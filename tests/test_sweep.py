import networkx as nx
import pytest

from edgering import (
    bridge_graph,
    cross_check,
    is_bipartite,
    is_connected,
    labelled_graphs,
    parse_graph6,
    run_sweep,
    sweep_targets,
)
from helpers import nx_graph


def test_cross_check_clean_on_exhibits(bridge2, bridge1):
    for g in (bridge2, bridge1, bridge_graph(3)):
        result = cross_check(g)
        assert result.failures == ()
        assert result.d == g.d and result.n == g.n
        assert parse_graph6(result.graph6) == [g]
    assert cross_check(bridge2).r1 and not cross_check(bridge2).normal
    assert not cross_check(bridge1).r1


def test_sweep_targets_counts_match_networkx():
    # recount connected nonbipartite labelled graphs independently
    for d in range(1, 5):
        ours = sum(1 for _ in sweep_targets(d))
        ref = 0
        for dd in range(1, d + 1):
            for g in labelled_graphs(dd):
                h = nx_graph(g)
                if nx.is_connected(h) and not nx.bipartite.is_bipartite(h):
                    ref += 1
        assert ours == ref
    assert sum(1 for _ in sweep_targets(3)) == 1
    assert sum(1 for _ in sweep_targets(4)) == 20


def test_sweep_targets_are_connected_nonbipartite():
    for g in sweep_targets(4):
        assert is_connected(g) and not is_bipartite(g)


def test_run_sweep_small():
    summary = run_sweep(sweep_targets(4))
    assert summary.checked == 20
    assert summary.normal == 20
    assert summary.r1 == 20
    assert summary.disagreements == []


def test_run_sweep_counts_verdicts(bridge1):
    summary = run_sweep([bridge1, bridge_graph(2)])
    assert summary.checked == 2
    assert summary.normal == 0
    assert summary.r1 == 1
    assert summary.disagreements == []


def test_monoid_group_failure_is_tagged_not_raised(monkeypatch, bridge1):
    # a wrong even-sum lattice makes monoid_group raise; cross_check must tag
    # the graph, skip the invariants that need the group, and still report
    # normality and (R1) by the criterion
    from edgering import IntegerLattice

    monkeypatch.setattr(
        "edgering.oracle.even_sum_lattice",
        lambda d: IntegerLattice(d, [[2 if i == j else 0 for i in range(d)] for j in range(d)]),
    )
    g = bridge_graph(2)
    result = cross_check(g)
    assert "monoid-group" in result.failures
    assert result.r1 and not result.normal
    assert "verdict-mismatch" not in result.failures
    summary = run_sweep([g, bridge1])
    assert summary.checked == 2 and summary.r1 == 1
    assert [cc.graph6 for cc in summary.disagreements] == [result.graph6, cross_check(bridge1).graph6]
    assert all("monoid-group" in cc.failures for cc in summary.disagreements)
