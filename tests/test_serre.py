import pytest
from hypothesis import given, settings

from edgering import (
    ClassificationReport,
    Fundamental,
    Graph,
    RegularVertex,
    bridge_graph,
    classify,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    facet_connectivity_holds,
    facets,
    satisfies_odd_cycle_condition,
    satisfies_r1,
    vset,
)
from helpers import as_brute_violation, brute_r1, connected_nonbipartite_graphs


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
