import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    cycle_graph,
    facet_conditions,
    facet_connectivity_holds,
    facets,
    is_bipartite,
    is_connected,
    labelled_graphs,
    parse_graph6,
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
    subset_scan_chordless_odd_cycles,
)


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
    assert facet_connectivity_holds(bridge2, RegularVertex(7))
    assert not facet_connectivity_holds(bridge1, RegularVertex(7))
    assert facet_connectivity_holds(bridge2, Fundamental(vset([3, 4])))


@given(connected_nonbipartite_graphs(max_d=6))
@settings(max_examples=30, deadline=None)
def test_r1_violations_are_the_facets_failing_their_condition(g):
    failing = [f for f in facets(g) if not facet_connectivity_holds(g, f)]
    assert satisfies_r1(g) == (not failing, failing)
    assert satisfies_r1(g, early_exit=True)[1] == failing[:1]


def test_r1_violations_are_the_records_failing_their_condition_on_corpus(corpus7_path):
    # the sweep and the CLI's oracle test the criterion at facet_conditions'
    # records instead of calling satisfies_r1; on the d = 7 corpus, where both
    # verdicts occur, the two agree
    verdicts = set()
    for g in parse_graph6(corpus7_path.read_text()):
        failing = [c.facet for c in facet_conditions(g) if not facet_connectivity_holds(g, c.facet)]
        assert satisfies_r1(g) == (not failing, failing)
        assert satisfies_r1(g, early_exit=True)[1] == failing[:1]
        verdicts.add(not failing)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# classification reports

def test_classify_bridge2(bridge2):
    report = classify(bridge2)
    assert report == ClassificationReport(
        bipartite=False,
        normal=False,
        r1=True,
        r1_violations=(),
        occ_violation=((1, 2, 3), (4, 5, 6)),
        notes="satisfies (R1); normal iff Cohen-Macaulay",
    )


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


def test_classify_bridge1(bridge1):
    report = classify(bridge1)
    assert not report.normal
    assert not report.r1
    assert report.r1_violations == (RegularVertex(7),)
    assert report.occ_violation == ((1, 2, 3), (4, 5, 6))
    assert report.notes == ""


def test_classify_is_deterministic(bridge2):
    assert classify(bridge2) == classify(bridge2)


def test_classify_requires_connected():
    with pytest.raises(ValueError, match="not connected"):
        classify(Graph(2, ()))


def test_classify_refuses_disconnected_as_unsupported():
    with pytest.raises(UnsupportedError, match="not connected"):
        classify(Graph(2, ()))
    with pytest.raises(UnsupportedError, match="not connected"):
        classify(Graph(4, ((1, 2), (3, 4))))


@given(connected_nonbipartite_graphs(max_d=6))
@settings(max_examples=30)
def test_normal_implies_r1(g):
    report = classify(g)
    if report.normal:
        assert report.r1
        assert report.occ_violation is None


@given(connected_nonbipartite_graphs(max_d=6))
@settings(max_examples=30)
def test_violations_are_facets(g):
    report = classify(g)
    all_facets = facets(g)
    for f in report.r1_violations:
        assert f in all_facets
