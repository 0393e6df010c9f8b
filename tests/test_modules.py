import ast
from pathlib import Path

import edgering

PACKAGE_DIR = Path(edgering.__file__).parent


def test_no_module_imports_private_names_of_another():
    # a private name is its module's own; another module that needs it should
    # get a public name or the function that already computes the result
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").split(".")[0] == "edgering"
            if internal:
                offenders += [
                    f"{path.name}: {node.module}.{alias.name}"
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
