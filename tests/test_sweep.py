import networkx as nx
import pytest

from edgering import (
    Graph,
    bridge_graph,
    cross_check,
    is_bipartite,
    is_connected,
    labelled_graphs,
    parse_graph6,
    run_sweep,
)
from helpers import nx_graph


def test_cross_check_clean_on_exhibits(bridge2, bridge1):
    for g in (bridge2, bridge1, bridge_graph(3)):
        result = cross_check(g)
        assert result.failures == ()
        assert parse_graph6(result.graph6) == [g]
    assert cross_check(bridge2).r1 and not cross_check(bridge2).normal
    assert not cross_check(bridge1).r1


def test_run_sweep_counts_match_networkx():
    # recount connected nonbipartite labelled graphs independently
    checked = {}
    for d in range(1, 5):
        summary = run_sweep(labelled_graphs(d))
        checked[d] = summary.checked
        ref = skipped = 0
        for g in labelled_graphs(d):
            h = nx_graph(g)
            if nx.is_connected(h) and not nx.bipartite.is_bipartite(h):
                ref += 1
            else:
                skipped += 1
        assert (summary.checked, summary.skipped) == (ref, skipped)
    assert checked == {1: 0, 2: 0, 3: 1, 4: 19}


def test_run_sweep_checks_only_connected_nonbipartite(monkeypatch):
    import edgering.sweep

    seen = []
    original = edgering.sweep.cross_check

    def recorded(g):
        seen.append(g)
        return original(g)

    monkeypatch.setattr(edgering.sweep, "cross_check", recorded)
    summary = run_sweep(labelled_graphs(4))
    assert len(seen) == summary.checked == 19
    assert all(is_connected(g) and not is_bipartite(g) for g in seen)


def test_run_sweep_small():
    summary = run_sweep(g for d in range(1, 5) for g in labelled_graphs(d))
    assert summary.checked == 20
    assert summary.skipped == 1 + 2 + 8 + 64 - 20
    assert summary.normal == 20
    assert summary.r1 == 20
    assert summary.disagreements == []


def test_run_sweep_skips_disconnected_and_bipartite():
    summary = run_sweep([bridge_graph(2), Graph(2, ((1, 2),)), Graph(4, ((1, 2), (3, 4)))])
    assert summary.checked == 1
    assert summary.skipped == 2
    assert (summary.normal, summary.r1) == (0, 1)


def test_run_sweep_counts_verdicts(bridge1):
    summary = run_sweep([bridge1, bridge_graph(2)])
    assert summary.checked == 2
    assert summary.normal == 0
    assert summary.r1 == 1
    assert summary.disagreements == []


def test_monoid_group_failure_is_tagged_not_raised(monkeypatch, bridge1):
    # a failed even-sum identity makes monoid_group raise; cross_check must tag
    # the graph, skip the invariants that need the group, and still report
    # normality and (R1) by the criterion
    monkeypatch.setattr("edgering.oracle._is_even_sum_lattice", lambda lat: False)
    g = bridge_graph(2)
    result = cross_check(g)
    assert "monoid-group" in result.failures
    assert result.r1 and not result.normal
    assert "verdict-mismatch" not in result.failures
    summary = run_sweep([g, bridge1])
    assert summary.checked == 2 and summary.r1 == 1
    assert [cc.graph6 for cc in summary.disagreements] == [result.graph6, cross_check(bridge1).graph6]
    assert all("monoid-group" in cc.failures for cc in summary.disagreements)


def test_cross_check_builds_monoid_group_once(monkeypatch):
    # cross_check hands its group to facet_conditions, which would otherwise
    # build it again; count the calls at both import sites
    import edgering.oracle
    import edgering.sweep

    calls = []
    original = edgering.oracle.monoid_group

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(edgering.sweep, "monoid_group", counted)
    monkeypatch.setattr(edgering.oracle, "monoid_group", counted)
    g = bridge_graph(2)
    assert cross_check(g).failures == ()
    assert calls == [g]

