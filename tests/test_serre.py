import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edgering.serre
from edgering import (
    ClassificationReport,
    Fundamental,
    Graph,
    RegularVertex,
    UnsupportedError,
    bridge_graph,
    chordless_odd_cycles,
    classify,
    complete_bipartite_graph,
    complete_graph,
    connected_within,
    cycle_graph,
    descriptor,
    facet_conditions,
    facet_connectivity_holds,
    facet_walk,
    first_component,
    is_bipartite,
    is_connected,
    iter_fundamental_sets,
    labelled_graphs,
    neighborhood,
    oracle_r1,
    parse_graph6,
    r1_violations,
    regular_vertices,
    satisfies_odd_cycle_condition,
    satisfies_r1,
    vset,
)
from helpers import (
    as_brute_violation,
    brute_r1,
    connected_nonbipartite_graphs,
    count_rest_floods,
    is_occ_witness,
    pair_loop_odd_cycle_condition,
    random_connected_nonbipartite,
    random_graph,
    record_calls,
    sparse_connected_nonbipartite_graphs,
    sparse_random_graphs,
    subset_scan_chordless_odd_cycles,
)

from conftest import DATA_DIR


# ---------------------------------------------------------------------------
# odd cycle condition

def test_occ_bridge2_fails_at_the_two_triangles(bridge2):
    assert satisfies_odd_cycle_condition(bridge2) == ((1, 2, 3), (4, 5, 6))


def test_occ_holds_on_small_graphs():
    assert satisfies_odd_cycle_condition(complete_graph(4)) is None
    assert satisfies_odd_cycle_condition(cycle_graph(5)) is None
    assert satisfies_odd_cycle_condition(complete_graph(3)) is None


def test_occ_holds_when_triangles_joined():
    joined = Graph(6, ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (3, 4)))
    assert satisfies_odd_cycle_condition(joined) is None


def test_occ_fails_for_all_bridge_graphs():
    for k in (*range(1, 7), 58):
        assert satisfies_odd_cycle_condition(bridge_graph(k)) == ((1, 2, 3), (4, 5, 6))


def test_occ_matches_pair_loop_on_all_small_graphs():
    # every connected nonbipartite labelled graph with d <= 6, against the
    # pair loop over the subset scan's cycles
    checked = 0
    for d in range(3, 7):
        for g in labelled_graphs(d):
            if is_connected(g) and not is_bipartite(g):
                cycles = subset_scan_chordless_odd_cycles(g)
                assert satisfies_odd_cycle_condition(g) == pair_loop_odd_cycle_condition(g, cycles), g
                checked += 1
    assert checked == 24226


def test_occ_matches_pair_loop_on_corpus(corpus7_path):
    graphs = parse_graph6(corpus7_path.read_text())
    found = [satisfies_odd_cycle_condition(g) for g in graphs]
    expect = [pair_loop_odd_cycle_condition(g, subset_scan_chordless_odd_cycles(g)) for g in graphs]
    assert found == expect
    assert None in found and any(found)


@st.composite
def gnp_graphs(draw, max_d: int = 20) -> Graph:
    d = draw(st.integers(3, max_d))
    p = draw(st.floats(0.12, 0.8))
    return random_connected_nonbipartite(random.Random(draw(st.integers(0, 2**32))), d, p)


@given(gnp_graphs())
@settings(max_examples=150, deadline=None)
def test_occ_matches_pair_loop_on_random_graphs(g):
    assert satisfies_odd_cycle_condition(g) == pair_loop_odd_cycle_condition(g, chordless_odd_cycles(g))


def test_occ_on_dense_and_large_graphs():
    # a pair loop over the 9 880 triangles of K40 takes seconds; the search
    # cuts every path at once, since the rest of any path is empty
    assert satisfies_odd_cycle_condition(complete_graph(40)) is None
    report = classify(complete_graph(64))
    assert report.normal and report.r1 and report.r1_violations == ()
    # G(64, 0.1) has over a million chordless odd cycles
    g = random_connected_nonbipartite(random.Random("occ-64"), 64, 0.1)
    witness = satisfies_odd_cycle_condition(g)
    assert witness is not None and is_occ_witness(g, witness)
    assert not is_occ_witness(g, (witness[0], witness[0]))


# ---------------------------------------------------------------------------
# the (R1) criterion

def test_r1_bridge2(bridge2):
    assert satisfies_r1(bridge2) == (True, [])


def test_r1_bridge1_fails_at_the_cut_vertex(bridge1):
    assert satisfies_r1(bridge1) == (False, [RegularVertex(7)])


def test_r1_bridge_family_by_path_count():
    for k in range(1, 7):
        ok, violations = satisfies_r1(bridge_graph(k))
        assert ok == (k >= 2)
        assert violations == ([] if k >= 2 else [RegularVertex(7)])


def test_r1_small_graphs():
    assert satisfies_r1(complete_graph(3)) == (True, [])
    assert satisfies_r1(cycle_graph(5)) == (True, [])
    assert satisfies_r1(complete_bipartite_graph(2, 3)) == (True, [])


def test_r1_requires_connected():
    with pytest.raises(ValueError, match="not connected"):
        satisfies_r1(Graph(4, ((1, 2), (3, 4))))


def test_r1_early_exit_truncates(bridge1):
    ok, violations = satisfies_r1(bridge1, early_exit=True)
    assert not ok
    assert violations == [RegularVertex(7)]
    full = satisfies_r1(bridge1)[1]
    assert violations == full[: len(violations)]


@given(connected_nonbipartite_graphs(max_d=6))
@settings(max_examples=30)
def test_r1_matches_brute_force(g):
    ok, violations = satisfies_r1(g)
    brute_ok, brute_violations = brute_r1(g)
    assert ok == brute_ok
    assert [as_brute_violation(f) for f in violations] == brute_violations


def test_r1_early_exit_is_the_first_violation_on_sparse_graphs():
    # sparse graphs whose violations are fundamental sets, found after the
    # regular vertices, so the enumeration must hand out its sets in order
    found = 0
    for d in range(20, 25):
        for seed in range(6):
            g = random_connected_nonbipartite(random.Random(seed), d, 0.15)
            ok, violations = satisfies_r1(g)
            assert satisfies_r1(g, early_exit=True) == (ok, violations[:1]), (d, seed)
            found += bool(violations) and isinstance(violations[0], Fundamental)
    assert found >= 5


def test_r1_early_exit_stops_the_enumeration(monkeypatch):
    # counted in rest floods, which the enumeration runs on every node that
    # inherits no bipartite rest piece: the early exit ends the enumeration
    # after the root of its first violation, vertex 3
    g = random_connected_nonbipartite(random.Random(5), 22, 0.15)
    floods = count_rest_floods(monkeypatch)
    assert satisfies_r1(g, early_exit=True)[1] == [Fundamental(vset([3, 4, 7]))]
    early = len(floods)
    floods.clear()
    assert len(satisfies_r1(g)[1]) == 11
    assert early < len(floods)


@given(connected_nonbipartite_graphs(max_d=6))
@settings(max_examples=30)
def test_r1_early_exit_agrees_on_verdict(g):
    ok, violations = satisfies_r1(g)
    ok2, violations2 = satisfies_r1(g, early_exit=True)
    assert ok == ok2
    assert violations2 == violations[: len(violations2)]
    assert len(violations2) <= 1


def test_facet_connectivity_holds(bridge2, bridge1):
    assert facet_connectivity_holds(bridge2, 0, vset([7]))
    assert not facet_connectivity_holds(bridge1, 0, vset([7]))
    t = vset([3, 4])
    assert facet_connectivity_holds(bridge2, t, neighborhood(bridge2, t))


def failing_records(g: Graph) -> list:
    # the facets whose record's sides (T, N) fail the connectivity test, which
    # floods V - (T | N) on its own
    return [c.facet for c in facet_conditions(g, facet_walk(g)) if not facet_connectivity_holds(g, *c.sides)]


@given(connected_nonbipartite_graphs(max_d=6))
@settings(max_examples=30, deadline=None)
def test_r1_violations_are_the_facets_failing_their_condition(g):
    failing = failing_records(g)
    assert satisfies_r1(g) == (not failing, failing)
    assert satisfies_r1(g, early_exit=True)[1] == failing[:1]


def test_r1_violations_are_the_records_failing_their_condition_on_corpus(corpus7_path):
    # the sweep and the CLI's oracle test the criterion at facet_conditions'
    # records instead of calling satisfies_r1; on the d = 7 corpus, where both
    # verdicts occur, the two agree
    verdicts = set()
    for g in parse_graph6(corpus7_path.read_text()):
        failing = failing_records(g)
        assert satisfies_r1(g) == (not failing, failing)
        assert satisfies_r1(g, early_exit=True)[1] == failing[:1]
        verdicts.add(not failing)
    assert verdicts == {True, False}


def violation_graphs() -> list[Graph]:
    # bridge_graph(1..10), the gnp golden graphs and the sparse d = 17..22 rows
    # of test_facets.py, drawn from the same seeds: graphs with violations of
    # both kinds among graphs with none
    graphs = [bridge_graph(k) for k in range(1, 11)]
    graphs += parse_graph6((DATA_DIR / "gnp_d18_20_22.g6").read_text())
    for d in range(17, 23):
        graphs.append(random_connected_nonbipartite(random.Random(f"gnp-{d}-0.15"), d, 0.15))
    return graphs


def test_r1_reads_the_search_flag_as_the_facet_test_and_the_oracle_do():
    # satisfies_r1 decides a fundamental set from the flag the search carries;
    # the facet test floods the rest at each record's sides, and the oracle
    # reads neither
    kinds = set()
    for g in violation_graphs():
        failing = failing_records(g)
        assert satisfies_r1(g) == (not failing, failing) == oracle_r1(g), g
        assert satisfies_r1(g, early_exit=True) == (not failing, failing[:1]), g
        kinds |= {type(f) for f in failing}
    assert kinds == {RegularVertex, Fundamental}


def test_r1_reads_the_full_walks_violations_on_sparse_graphs():
    # satisfies_r1 searches only the fundamental sets whose rest has at least
    # 6 vertices; the full walk's flags name the same violations, in order
    graphs = [*parse_graph6((DATA_DIR / "bridge_k7_10.g6").read_text()), *violation_graphs()]
    failing = 0
    for g in graphs + sparse_random_graphs():
        violations = list(r1_violations(facet_walk(g)))
        assert satisfies_r1(g) == (not violations, violations), g
        assert satisfies_r1(g, early_exit=True) == (not violations, violations[:1]), g
        failing += any(isinstance(f, Fundamental) for f in violations)
    assert failing == 9


@given(connected_nonbipartite_graphs(min_d=8, max_d=12))
@settings(max_examples=40, deadline=None)
def test_r1_reads_the_full_walks_violations(g):
    violations = list(r1_violations(facet_walk(g)))
    assert satisfies_r1(g) == (not violations, violations)
    assert satisfies_r1(g, early_exit=True) == (not violations, violations[:1])


@given(sparse_connected_nonbipartite_graphs())
@settings(max_examples=200, deadline=None)
def test_r1_reads_the_full_walks_violations_on_sparse_draws(g):
    # the dense strategy above seldom draws a failing fundamental set; sparse
    # G(d, p) draws do, so the floored search is checked where it cuts
    test_r1_reads_the_full_walks_violations.hypothesis.inner_test(g)


# N({1}) = {2}, and the rest of {1} is the two triangles 345 and 678, which no
# edge joins: the smallest rest that can fail
SIX_REST = Graph(8, ((1, 2), (2, 3), (2, 6), (3, 4), (3, 5), (4, 5), (6, 7), (6, 8), (7, 8)))


def test_the_floor_keeps_a_rest_of_exactly_six_vertices():
    g = SIX_REST
    assert satisfies_r1(g) == (False, [Fundamental(vset([1]))])
    assert satisfies_r1(g, early_exit=True) == (False, [Fundamental(vset([1]))])
    assert list(iter_fundamental_sets(g, True)) == [(vset([1]), vset([2]), False)]


@pytest.mark.parametrize("g", [
    pytest.param(bridge_graph(1), id="bridge-1"),
    pytest.param(bridge_graph(8), id="bridge-8"),
    pytest.param(random_graph(random.Random("r1-work-18"), 18, 0.3), id="gnp-18-0.3"),
])
def test_r1_runs_no_flood_of_its_own(monkeypatch, g):
    # both walks yield each facet with the flag of the flood that found it,
    # so the criterion never runs the connectivity test again, at a regular
    # vertex or a fundamental set, whether or not (R1) fails
    assert is_connected(g) and not is_bipartite(g) and regular_vertices(g)
    calls = record_calls(monkeypatch, connected_within, owners=[edgering.serre])
    satisfies_r1(g)
    satisfies_r1(g, early_exit=True)
    assert calls == []


GRID_8X8 = Graph(64, tuple((v, v + 1) for v in range(1, 65) if v % 8)
                 + tuple((v, v + 8) for v in range(1, 57)))


@pytest.mark.parametrize("g", [
    pytest.param(complete_bipartite_graph(32, 32), id="K32,32"),
    pytest.param(GRID_8X8, id="grid-8x8"),
])
@pytest.mark.parametrize("early_exit", [False, True])
def test_r1_answers_a_bipartite_graph_without_a_walk(monkeypatch, g, early_exit):
    # no program path asks the criterion about a bipartite graph, and its
    # walk runs for more than 20 s on these two; the stubs fail at once
    def walked(*args):
        raise AssertionError("(R1) walk on a bipartite graph")

    monkeypatch.setattr(edgering.serre, "regular_vertices", walked)
    monkeypatch.setattr(edgering.serre, "iter_fundamental_sets", walked)
    assert is_bipartite(g)
    assert satisfies_r1(g, early_exit=early_exit) == (True, [])


# ---------------------------------------------------------------------------
# classification reports

def test_classify_bridge2(bridge2):
    report = classify(bridge2)
    assert report == ClassificationReport(
        bipartite=False,
        r1=True,
        r1_violations=(),
        occ_violation=((1, 2, 3), (4, 5, 6)),
    )
    assert report.normal is False  # read off the odd cycle witness
    assert report.notes == "satisfies (R1); normal iff Cohen-Macaulay"


def test_classify_bipartite_shortcut():
    report = classify(complete_bipartite_graph(2, 3))
    assert report.bipartite and report.normal and report.r1
    assert report.r1_violations == ()
    assert report.occ_violation is None
    assert report.notes == "normal hence Cohen-Macaulay"
    assert classify(Graph(1, ())).normal
    assert classify(Graph(2, ((1, 2),))).r1


@pytest.mark.parametrize(
    "g", [complete_bipartite_graph(2, 3), cycle_graph(6), Graph(1, ())], ids=repr
)
def test_classify_bipartite_skips_odd_cycle_search(g, monkeypatch):
    def searched(h):
        raise AssertionError("odd cycle search on a bipartite graph")

    monkeypatch.setattr("edgering.serre.satisfies_odd_cycle_condition", searched)
    report = classify(g)
    assert report.bipartite and report.normal and report.occ_violation is None


def test_classify_normal_nonbipartite():
    report = classify(complete_graph(4))
    assert not report.bipartite
    assert report.normal and report.r1
    assert report.notes == "normal hence Cohen-Macaulay"


@pytest.mark.parametrize("g", [
    pytest.param(complete_graph(4), id="K4"),
    pytest.param(complete_bipartite_graph(2, 3), id="K23"),
])
@pytest.mark.parametrize("early_exit", [False, True])
def test_classify_runs_no_r1_search_on_a_normal_graph(g, early_exit, monkeypatch):
    # normal implies (R1), so the report needs no search; the tests below
    # check that the criterion agrees on the graphs that it skips
    def searched(h, early_exit):
        raise AssertionError("(R1) search on a normal graph")

    monkeypatch.setattr("edgering.serre._r1_search", searched)
    report = classify(g, early_exit=early_exit)
    assert report.normal and report.r1 and report.r1_violations == ()


@pytest.mark.parametrize("early_exit", [False, True])
def test_classify_runs_the_r1_search_once_when_not_normal(early_exit, monkeypatch):
    calls = record_calls(monkeypatch, edgering.serre._r1_search, lambda h, early_exit: (h, early_exit),
                         [edgering.serre])
    g = bridge_graph(2)
    report = classify(g, early_exit=early_exit)
    assert calls == [(g, early_exit)]
    assert not report.normal and report.r1


@pytest.mark.parametrize("g, normal", [
    pytest.param(complete_graph(4), True, id="K4"),
    pytest.param(complete_bipartite_graph(2, 3), True, id="K23"),
    pytest.param(cycle_graph(5), True, id="C5"),
    pytest.param(bridge_graph(1), False, id="bridge-1"),
    pytest.param(bridge_graph(8), False, id="bridge-8"),
    pytest.param(random_graph(random.Random("r1-work-18"), 18, 0.3), False, id="gnp-18-0.3"),
])
def test_classify_floods_the_whole_graph_once(monkeypatch, g, normal):
    # classify's require_connected floods the whole graph, and a graph that is
    # not normal has an odd cycle, so the (R1) core searches it with no gate
    # of its own: one whole-graph flood, normal or not
    assert classify(g).normal == normal
    calls = record_calls(monkeypatch, first_component, lambda h, within, odd_cycle: within == g.full)
    for early_exit in (False, True):
        calls.clear()
        classify(g, early_exit=early_exit)
        assert sum(calls) == 1


def test_classify_bridge1(bridge1):
    report = classify(bridge1)
    assert not report.normal
    assert not report.r1
    assert report.r1_violations == (RegularVertex(7),)
    assert report.occ_violation == ((1, 2, 3), (4, 5, 6))
    assert report.notes == ""


def test_classify_is_deterministic(bridge2):
    assert classify(bridge2) == classify(bridge2)


def test_classify_refuses_disconnected_as_unsupported():
    with pytest.raises(UnsupportedError, match="not connected"):
        classify(Graph(2, ()))
    with pytest.raises(UnsupportedError, match="not connected"):
        classify(Graph(4, ((1, 2), (3, 4))))


@given(connected_nonbipartite_graphs(max_d=10))
@settings(max_examples=60, deadline=None)
def test_normal_implies_r1(g):
    # classify takes (R1) for granted on a normal graph; the criterion agrees
    if satisfies_odd_cycle_condition(g) is None:
        assert satisfies_r1(g) == (True, [])
        assert satisfies_r1(g, early_exit=True) == (True, [])


@given(sparse_connected_nonbipartite_graphs())
@settings(max_examples=100, deadline=None)
def test_normal_implies_r1_on_sparse_draws(g):
    test_normal_implies_r1.hypothesis.inner_test(g)


def test_normal_implies_r1_on_the_corpora():
    normal = 0
    for path in sorted(DATA_DIR.glob("*.g6")):
        for g in parse_graph6(path.read_text()):
            if satisfies_odd_cycle_condition(g) is None:
                assert satisfies_r1(g) == (True, []), (path.name, g)
                normal += 1
    assert normal == 310  # conn7.g6 300, conn7_sample.g6 10


def assert_classify_agrees_with_satisfies_r1(g: Graph) -> None:
    # classify and satisfies_r1 each gate the (R1) core with their own flood
    # and neither calls the other, so their answers are checked side by side
    for early_exit in (False, True):
        report = classify(g, early_exit=early_exit)
        ok, violations = satisfies_r1(g, early_exit=early_exit)
        assert report.r1 == ok, (g, early_exit)
        assert report.r1_violations == tuple(violations), (g, early_exit)


@given(sparse_connected_nonbipartite_graphs())
@settings(max_examples=100, deadline=None)
def test_classify_agrees_with_satisfies_r1_on_sparse_draws(g):
    assert_classify_agrees_with_satisfies_r1(g)


def test_classify_agrees_with_satisfies_r1_on_the_corpora():
    not_normal = 0
    for path in sorted(DATA_DIR.glob("*.g6")):
        for g in parse_graph6(path.read_text()):
            if satisfies_odd_cycle_condition(g) is not None:
                assert_classify_agrees_with_satisfies_r1(g)
                not_normal += 1
    assert not_normal == 67  # bridge_k7_10 4, conn7 50, conn7_sample 10, gnp_d18_20_22 3


@given(connected_nonbipartite_graphs(max_d=6))
@settings(max_examples=30)
def test_violations_are_facets(g):
    report = classify(g)
    all_facets = [descriptor(t, nb) for t, nb, _ in facet_walk(g)]
    for f in report.r1_violations:
        assert f in all_facets


# ---------------------------------------------------------------------------
# a leaf added at one vertex

def walk_order(f) -> tuple:
    """Sort key of a descriptor in walk order: regular vertices by label, then
    fundamental sets by their sorted vertex tuples."""
    return (1, f.vertices) if isinstance(f, Fundamental) else (0, (f.vertex,))


def leaf_lift(g: Graph, v: int, violations) -> list:
    """g's violations as they read once a leaf d + 1 hangs at v: v's own
    regular-vertex facet becomes the leaf's fundamental set {d + 1}, a fundamental
    set T with v in N(T) takes the leaf in, and every other facet stays."""
    leaf = g.d + 1
    out = []
    for f in violations:
        if f == RegularVertex(v):
            f = Fundamental(vset([leaf]))
        elif isinstance(f, Fundamental) and neighborhood(g, f.mask) >> (v - 1) & 1:
            f = Fundamental(vset([*f.vertices, leaf]))
        out.append(f)
    return sorted(out, key=walk_order)


@given(connected_nonbipartite_graphs(max_d=10), st.integers(1, 10))
@example(bridge_graph(1), 7)  # the failing regular vertex 7 becomes {8}
@example(bridge_graph(1), 1)  # 7 stays
@example(SIX_REST, 2)  # the failing set {1} has 2 in N({1}), and becomes {1, 9}
@example(SIX_REST, 1)  # {1} stays, with the leaf in N({1})
@example(SIX_REST, 4)  # {1} stays, with the leaf in its rest
@settings(max_examples=60, deadline=None)
def test_a_leaf_lifts_the_violations_and_keeps_the_verdicts(g, k):
    # with the leaf, v's rest gains an isolated vertex, so v is no longer
    # regular, and {leaf} is fundamental with rest g - v exactly when v was
    # regular; a set T with v in N(T) leaves the leaf alone in its rest unless
    # it takes it in, and every other facet keeps its rest's components
    v = (k - 1) % g.d + 1
    lifted = Graph(g.d + 1, (*g.edges, (v, g.d + 1)))
    report, lifted_report = classify(g), classify(lifted)
    assert (lifted_report.r1, lifted_report.normal) == (report.r1, report.normal)
    assert lifted_report.occ_violation == report.occ_violation
    assert list(lifted_report.r1_violations) == leaf_lift(g, v, report.r1_violations)
    ok, violations = oracle_r1(g)
    assert oracle_r1(lifted) == (ok, leaf_lift(g, v, violations))


@given(sparse_connected_nonbipartite_graphs(), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_a_leaf_lifts_the_violations_of_sparse_draws(g, k):
    # sparse draws fail (R1) at fundamental sets as well as at regular vertices
    test_a_leaf_lifts_the_violations_and_keeps_the_verdicts.hypothesis.inner_test(g, k)
