import ast
from pathlib import Path

import edgering

PACKAGE_DIR = Path(edgering.__file__).parent
TESTS_DIR = Path(__file__).parent
BENCH_DIR = TESTS_DIR.parent / "bench"


def test_no_module_imports_private_names_of_another():
    # a private name is its module's own; another module that needs it should
    # get a public name or the function that already computes the result.  The
    # tests and the bench count too: a reference that imports a private helper
    # of the code under test shares the code it is meant to check.  Monkeypatch
    # targets named by string are not imports and stay allowed.
    paths = [*PACKAGE_DIR.glob("*.py"), *TESTS_DIR.glob("*.py"), *BENCH_DIR.glob("*.py")]
    assert len({path.parent for path in paths}) == 3
    offenders = []
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "edgering"
            if internal:
                offenders += [
                    f"{path.parent.name}/{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_no_except_clause_catches_broad_errors():
    # only the documented exception types are handled; anything else is a bug
    # and must surface with its traceback
    broad = {"Exception", "BaseException", "RuntimeError"}
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {getattr(t, "id", getattr(t, "attr", None)) for t in caught}
            if node.type is None or names & broad:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_module_imports_a_name_it_never_uses():
    # bench/tracer.py wraps oracle.support_form by that name, so oracle.py
    # keeps the import although it never calls it
    allowed = {("oracle.py", "support_form")}
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [
            f"{path.name}: {name}"
            for name in sorted(imported - used)
            if (path.name, name) not in allowed
        ]
    assert offenders == []


def test_every_private_module_name_is_used_in_its_module():
    # a private name serves its own module only, so one never loaded there is
    # a helper left behind by a refactor
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        offenders += [
            f"{path.name}: {name}"
            for name in sorted(defined - loaded)
            if name.startswith("_") and not name.startswith("__")
        ]
    assert offenders == []
