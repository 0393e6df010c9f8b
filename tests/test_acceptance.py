"""Acceptance gate: one test per promised behavior, one printed line each.

The heavy shared work is a full cross-check sweep over every connected
nonbipartite labelled graph with up to 6 vertices plus a 350-graph corpus
of 7-vertex graphs (tests/data/conn7.g6, seeded mix of random graphs and
relabelings of the broken-bridge graph, so both verdicts occur).
"""

import time

import pytest

from edgering import (
    ClassificationReport,
    RegularVertex,
    bridge_graph,
    classify,
    is_bipartite,
    is_connected,
    labelled_graphs,
    parse_graph6,
    satisfies_odd_cycle_condition,
    satisfies_r1,
)
from edgering.sweep import cross_check

from conftest import DATA_DIR


def _report(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{suffix}")


@pytest.fixture(scope="module")
def sweep_results():
    """Cross-check everything once: exhaustive d <= 6 and the d = 7 corpus."""
    t0 = time.perf_counter()
    exhaustive = [
        cross_check(g)
        for d in range(1, 7)
        for g in labelled_graphs(d)
        if is_connected(g) and not is_bipartite(g)
    ]
    corpus_graphs = parse_graph6((DATA_DIR / "conn7.g6").read_text())
    assert all(is_connected(g) and not is_bipartite(g) for g in corpus_graphs)
    corpus = [cross_check(g) for g in corpus_graphs]
    elapsed = time.perf_counter() - t0
    results = exhaustive + corpus
    # the material must exercise both verdicts
    assert len(exhaustive) == 24226
    assert len(corpus) == 350
    assert any(r.r1 for r in results) and any(not r.r1 for r in results)
    assert any(r.normal for r in results) and any(not r.normal for r in results)
    return results, elapsed


def _offenders(results, tags) -> list[str]:
    out = []
    for r in results:
        hit = [t for t in r.failures if t in tags]
        if hit:
            out.append(f"{r.graph6} [{','.join(hit)}]")
    return out


def test_criterion_1_doubled_bridge_classification(capsys, bridge2):
    t0 = time.perf_counter()
    report = classify(bridge2)
    elapsed = time.perf_counter() - t0
    expected = ClassificationReport(
        bipartite=False,
        normal=False,
        r1=True,
        r1_violations=(),
        occ_violation=((1, 2, 3), (4, 5, 6)),
        notes="satisfies (R1); normal iff Cohen-Macaulay",
    )
    ok = report == expected and elapsed < 1.0
    _report(capsys, 1, "doubled bridge classification", ok, f"{elapsed*1000:.0f} ms")
    assert report == expected
    assert elapsed < 1.0


def test_criterion_2_bridge_family_verdicts(capsys):
    t0 = time.perf_counter()
    verdicts = {}
    normals = {}
    for k in range(1, 7):
        g = bridge_graph(k)
        verdicts[k] = satisfies_r1(g)
        normals[k] = satisfies_odd_cycle_condition(g) is None
    elapsed = time.perf_counter() - t0
    ok = (
        verdicts[1] == (False, [RegularVertex(7)])
        and all(verdicts[k] == (True, []) for k in range(2, 7))
        and not any(normals.values())
        and elapsed < 1.0
    )
    _report(capsys, 2, "bridge family verdicts", ok, f"{elapsed*1000:.0f} ms")
    assert verdicts[1] == (False, [RegularVertex(7)])
    for k in range(2, 7):
        assert verdicts[k] == (True, [])
    assert not any(normals.values())
    assert elapsed < 1.0


def test_criterion_3_exhaustive_agreement(capsys, sweep_results):
    results, elapsed = sweep_results
    bad = _offenders(results, {"verdict-mismatch", "violation-mismatch"})
    ok = not bad
    _report(
        capsys, 3, "criterion vs oracle agreement", ok,
        f"{len(results)} graphs, {elapsed:.0f} s sweep",
    )
    assert not bad, f"disagreements: {bad[:5]}"


def test_criterion_4_monoid_group_structure(capsys, sweep_results):
    results, _ = sweep_results
    bad = _offenders(results, {"monoid-group", "basis-construction"})
    ok = not bad
    _report(capsys, 4, "edge vectors generate the even-sum lattice", ok)
    assert not bad, f"failures: {bad[:5]}"


def test_criterion_5_unit_value_everywhere(capsys, sweep_results):
    results, _ = sweep_results
    bad = _offenders(results, {"unit-value"})
    ok = not bad
    _report(capsys, 5, "every facet sees a unit-value generator", ok)
    assert not bad, f"failures: {bad[:5]}"


def test_criterion_6_lattice_condition_matches_connectivity(capsys, sweep_results):
    results, _ = sweep_results
    bad = _offenders(results, {"lattice-vs-connectivity", "decomposition"})
    ok = not bad
    _report(capsys, 6, "lattice condition equals connectivity condition", ok)
    assert not bad, f"failures: {bad[:5]}"


def test_criterion_7_normal_implies_r1(capsys, sweep_results):
    results, _ = sweep_results
    bad = _offenders(results, {"occ-implies-r1"})
    ok = not bad
    _report(capsys, 7, "odd cycle condition implies (R1)", ok)
    assert not bad, f"failures: {bad[:5]}"


def test_criterion_8_support_forms_cut_facets(capsys, sweep_results):
    results, _ = sweep_results
    bad = _offenders(results, {"facet-support"})
    ok = not bad
    _report(capsys, 8, "support forms cut facets of the correct rank", ok)
    assert not bad, f"failures: {bad[:5]}"
