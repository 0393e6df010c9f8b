import ast
import dataclasses
import inspect
import subprocess
import sys
import textwrap
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


def test_only_the_cli_branches_on_the_descriptor_kind():
    # facet_walk(g) alone says what a facet is, and every check reads a facet's
    # sides (T, N) off its walk item or its FacetCheck record; only the CLI's
    # encoder tells the kinds apart
    kinds = {"RegularVertex", "Fundamental"}
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                classes = node.args[1]
                names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
                if {getattr(n, "id", getattr(n, "attr", None)) for n in names} & kinds:
                    found.append(path.name)
    assert "cli.py" in found  # the scan sees the encoder's branch
    assert [name for name in found if name != "cli.py"] == []
    # and within the CLI only the encoder: the text renderers and the report
    # decoder read a violation's JSON kind, and JSON types are exact type tests
    assert _scopes_naming(PACKAGE_DIR / "cli.py", {"isinstance"}) == ["cli.violation_to_dict"]


def test_the_sweep_decides_eligibility_by_the_facet_data_gate():
    # require_nonbipartite is the one statement of "connected with an odd
    # cycle"; run_sweep skips a graph by that gate, not by its own floods
    tree = ast.parse((PACKAGE_DIR / "sweep.py").read_text())
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & {"is_connected", "is_bipartite"}
    assert "require_nonbipartite" in names


def _scopes_naming(path: Path, names: set[str]) -> list[str]:
    # the dotted scope (module.function) of each name or attribute in the file
    # that is one of names, in source order
    scopes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if {getattr(child, "id", None), getattr(child, "attr", None)} & names:
                scopes.append(scope)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    visit(ast.parse(path.read_text()), path.stem)
    return scopes


def test_every_connectivity_question_reads_the_one_flood():
    # first_component answers connectivity and odd cycles alike, and the scope
    # gates read its pair; is_connected and is_bipartite are kept for library
    # users, so no program path names them, and no second flood is left
    scopes = [
        scope
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
        for scope in _scopes_naming(path, {"is_connected", "is_bipartite", "_flood"})
    ]
    assert scopes == []
    assert "graph.require_connected" in _scopes_naming(PACKAGE_DIR / "graph.py", {"first_component"})


def test_only_the_fundamental_set_search_computes_neighborhoods():
    # a facet's sides (T, N) travel with its walk item and its record, so no
    # function recomputes N(T); the search names neighborhood once, for its
    # shared-neighbour table
    scopes = [
        scope
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for scope in _scopes_naming(path, {"neighborhood"})
    ]
    assert scopes == ["facets.iter_fundamental_sets"]


def _function(path: Path, name: str) -> ast.FunctionDef:
    # the module-level function of that name in the file
    return next(
        node for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_the_fundamental_set_search_states_its_push_rule_once():
    # each root's walk starts at the empty set, whose one extension is the root,
    # so {r} passes the floor test and the dead-child rule of every other child:
    # the search compares floor in one place and builds its frames at one append
    nodes = list(ast.walk(_function(PACKAGE_DIR / "facets.py", "iter_fundamental_sets")))
    floors = [
        ast.unparse(node) for node in nodes
        if isinstance(node, ast.Compare) and "floor" in {getattr(n, "id", None) for n in ast.walk(node)}
    ]
    assert len(floors) == 1, floors
    assert sum(isinstance(node, ast.Call) and ast.unparse(node.func) == "stack.append" for node in nodes) == 1
    stacks = [
        ast.unparse(node.value) for node in nodes
        if isinstance(node, ast.Assign) and "stack" in {getattr(t, "id", None) for t in node.targets}
    ]
    assert stacks == ["[]"]


def test_the_sweep_command_runs_one_loop_over_its_sources():
    # cmd_sweep maps each source to its graph stream and folds every summary
    # into one total, so it calls run_sweep at one site and adds up no counter
    # of its own
    assert _scopes_naming(PACKAGE_DIR / "cli.py", {"run_sweep"}).count("cli.cmd_sweep") == 1
    nodes = ast.walk(_function(PACKAGE_DIR / "cli.py", "cmd_sweep"))
    assert [ast.unparse(node) for node in nodes if isinstance(node, ast.AugAssign)] == []


def test_only_the_closed_form_rule_reads_pivots_in_the_oracle():
    # the even-sum lattice, K and D share one pivot shape, and oracle.py states
    # it once: only _has_closed_form names pivots or pivot_product
    scopes = _scopes_naming(PACKAGE_DIR / "oracle.py", {"pivots", "pivot_product"})
    assert set(scopes) == {"oracle._has_closed_form"}


def test_only_satisfies_r1_floors_the_fundamental_set_search():
    # the (R1) search, iter_fundamental_sets(g, True), yields only the fundamental
    # sets that fail (R1); facet_walk, and through it the oracle and the sweep,
    # need every facet.  The flag is the search's one optional parameter, and
    # satisfies_r1's core, serre._r1_search, alone passes it, as the constant
    # True, to the search by its module global, which the tracer wraps.
    # classify gates that core itself, so it never names satisfies_r1
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and "iter_fundamental_sets" in (
                getattr(child.func, "id", None), getattr(child.func, "attr", None)
            ):
                flags = [ast.unparse(arg) for arg in child.args[1:]] + [ast.unparse(kw) for kw in child.keywords]
                calls.append((scope, type(child.func).__name__, flags))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert ("facets.facet_walk", "Name", []) in calls  # the scan sees the full walk
    assert [call for call in calls if call[2]] == [("serre._r1_search", "Name", ["True"])]
    assert "serre.classify" not in _scopes_naming(PACKAGE_DIR / "serre.py", {"satisfies_r1"})
    params = list(inspect.signature(edgering.iter_fundamental_sets).parameters.values())
    assert [(p.kind, p.default) for p in params[1:]] == [(inspect.Parameter.POSITIONAL_OR_KEYWORD, False)]


def test_the_oracle_reads_no_connectivity_result():
    # the two (R1) routes stay independent: oracle.py imports nothing from
    # serre.py and never names the fundamental-set search, whose items carry
    # each set's connectivity flag, or the connectivity test itself
    tree = ast.parse((PACKAGE_DIR / "oracle.py").read_text())
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add((node.module or "").split(".")[-1])
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    assert "facet_forms" in names  # the scan sees the oracle's facet input
    assert "serre" not in modules | names
    assert {"iter_fundamental_sets", "connected_within"} & names == set()


def test_the_oracle_reads_the_walks_sides_never_its_flags():
    # a walk item is (T, N, connected), and the flag is the criterion's verdict:
    # every 3-element unpacking in oracle.py binds its third name to _, and
    # oracle.py never names the flag or the rule that reads it
    tree = ast.parse((PACKAGE_DIR / "oracle.py").read_text())
    unpacked = [
        node.elts for node in ast.walk(tree)
        if isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Store) and len(node.elts) == 3
    ]
    assert unpacked  # the scan sees the oracle's loop over the walk
    assert all(getattr(elts[2], "id", None) == "_" for elts in unpacked)
    fields = ("id", "attr", "name", "asname", "arg")  # names, attributes, imports, arguments
    names = {getattr(node, field, None) for node in ast.walk(tree) for field in fields}
    assert "facet_walk" in names  # the scan sees the oracle's walk
    assert {"connected", "r1_violations"} & names == set()


def test_the_oracle_builds_its_edge_vectors_without_the_validating_rule():
    # the oracle's edges come from a Graph, which checked them when it was
    # built, so its builder _edge_vectors, the package's only one, runs no
    # edge check: oracle.py names neither the edge rule nor another builder
    tree = ast.parse((PACKAGE_DIR / "oracle.py").read_text())
    fields = ("id", "attr", "name", "asname")  # names, attributes, imports, definitions
    names = {getattr(node, field, None) for node in ast.walk(tree) for field in fields}
    assert {"facet_forms", "_edge_vectors"} <= names  # the scan sees names and definitions
    assert {"edge_vector", "_edge"} & names == set()


def _tracer_targets() -> set[tuple[str, str]]:
    # (file, name) of each module-level TARGETS entry of bench/tracer.py, whose
    # owners are the modules bound by name to edgering.<module>
    tree = ast.parse((BENCH_DIR / "tracer.py").read_text())
    assign = next(
        node for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS"
    )
    return {
        (f"{entry.elts[0].id}.py", entry.elts[1].value)
        for entry in assign.value.elts
        if isinstance(entry.elts[0], ast.Name)
    }


def test_no_module_imports_a_name_it_never_uses():
    # bench/tracer.py wraps oracle.support_form, serre.chordless_odd_cycles and
    # sweep.satisfies_r1 by those names, so their modules keep the imports
    # although they never call them; a pin the tracer stops reading must go
    allowed = {
        ("oracle.py", "support_form"),
        ("serre.py", "chordless_odd_cycles"),
        ("sweep.py", "satisfies_r1"),
    }
    assert allowed <= _tracer_targets()
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


def _names_used(source: str) -> set[str]:
    # every name loaded and every attribute read in a module's source
    nodes = list(ast.walk(ast.parse(source)))
    loaded = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return loaded | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def _readme_library_block() -> str:
    readme = (TESTS_DIR.parent / "README.md").read_text()
    return readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_every_export_has_a_user_outside_the_tests():
    # a public name earns its export by a caller in the package, a use in the
    # bench, a tracer pin or a place in the README's Library example; one the
    # tests alone reach belongs in tests/helpers.py as a reference
    exported = {
        alias.asname or alias.name
        for node in ast.parse((PACKAGE_DIR / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {"classify", "Graph", "IntegerLattice"} <= exported  # the scan sees the exports
    used = {name for _, name in _tracer_targets()} | _names_used(_readme_library_block())
    for path in [*PACKAGE_DIR.glob("*.py"), *BENCH_DIR.glob("*.py")]:
        if path.name != "__init__.py":
            used |= _names_used(path.read_text())
    assert sorted(exported - used) == []


def test_a_report_stores_its_witnesses_and_reads_normality_and_notes_off_them():
    # normal is "no odd cycle pair" and notes follow from normal and (R1), so the
    # record stores neither, and each notes string is written in one place
    from edgering import ClassificationReport

    names = [f.name for f in dataclasses.fields(ClassificationReport)]
    assert names == ["bipartite", "r1", "r1_violations", "occ_violation"]
    source = "".join(path.read_text() for path in PACKAGE_DIR.glob("*.py"))
    for notes in ["normal hence Cohen-Macaulay", "satisfies (R1); normal iff Cohen-Macaulay"]:
        assert source.count(f'"{notes}"') == 1, notes


def test_readme_library_example_runs_as_documented():
    # the README's Library block must name only live API and state true values
    namespace: dict = {}
    exec(compile(_readme_library_block(), "README.md", "exec"), namespace)
    report, checks, walk = namespace["report"], namespace["checks"], namespace["walk"]
    assert [c.sides for c in checks] == [(t, nb) for t, nb, _ in walk]
    assert list(namespace["r1_violations"](walk)) == []
    assert report.normal is False and report.r1 is True
    assert report.notes == "satisfies (R1); normal iff Cohen-Macaulay"
    assert report.occ_violation == ((1, 2, 3), (4, 5, 6))
    assert (checks[0].unit, checks[0].match) == (True, True)


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # hypothesis imports libcst to report a failure, and libcst's import warns
    # that mypy_extensions.TypedDict is deprecated; with every warning an error
    # that ended the whole session in INTERNALERROR, so no later test ran
    (tmp_path / "pyproject.toml").write_text((TESTS_DIR.parent / "pyproject.toml").read_text())
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 5


        def test_passes():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
