"""Exhaustive agreement sweeps: connectivity criterion vs lattice oracle.

A sweep runs every invariant the package promises over the connected
nonbipartite graphs of a stream, counts the others as skipped, and records
any graph where two routes to the same fact disagree.  Zero failures is the
expected outcome; a failure names the graph (graph6) and the invariant that
broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .facets import Fundamental
from .graph import DisagreementError, Graph, is_bipartite, is_connected, serialize_graph6
from .oracle import (
    facet_conditions,
    failing_facets,
    monoid_group,
    verify_decomposition,
    verify_even_sum_basis,
    verify_facet_rank,
)
from .serre import facet_connectivity_holds, satisfies_odd_cycle_condition, satisfies_r1


@dataclass(frozen=True)
class CrossCheck:
    """Outcome of all invariants on one graph."""

    graph6: str
    normal: bool
    r1: bool
    failures: tuple[str, ...]


def cross_check(g: Graph) -> CrossCheck:
    """Run every cross-validation invariant on one connected nonbipartite graph.

    Failure tags:
      monoid-group            edge-vector group is not the even-sum lattice;
                              the invariants that need that group are skipped
      verdict-mismatch        criterion and oracle disagree on (R1)
      violation-mismatch      they agree but name different facets
      basis-construction      tree plus odd-closing edge is not a Z-basis of the even-sum lattice
      unit-value              some facet misses a value-1 edge vector
      lattice-vs-connectivity condition 2 differs from the connectivity test
      decomposition           zero-set lattice identity failed at some T
      occ-implies-r1          normal graph failing (R1)
      facet-support           a support form is not a facet form

    Each route's verdict is "no violations", so verdict-mismatch implies
    violation-mismatch by construction.
    """
    fails: list[str] = []
    certified = True
    try:
        monoid_group(g)
    except DisagreementError:
        certified = False
        fails.append("monoid-group")
    t_ok, t_viols = satisfies_r1(g)
    checks = facet_conditions(g) if certified else []
    o_viols = failing_facets(checks)
    if certified and t_ok != (not o_viols):
        fails.append("verdict-mismatch")
    if certified and t_viols != o_viols:
        fails.append("violation-mismatch")
    if not verify_even_sum_basis(g):
        fails.append("basis-construction")
    if not all(c.unit for c in checks):
        fails.append("unit-value")
    if any(c.match != facet_connectivity_holds(g, c.facet) for c in checks):
        fails.append("lattice-vs-connectivity")
    if any(isinstance(c.facet, Fundamental) and not verify_decomposition(g, c) for c in checks):
        fails.append("decomposition")
    occ = satisfies_odd_cycle_condition(g)
    if occ is None and not t_ok:
        fails.append("occ-implies-r1")
    if not all(verify_facet_rank(g, c) for c in checks):
        fails.append("facet-support")
    return CrossCheck(
        graph6=serialize_graph6(g),
        normal=occ is None,
        r1=t_ok,
        failures=tuple(fails),
    )


@dataclass
class SweepSummary:
    checked: int = 0
    normal: int = 0
    r1: int = 0
    skipped: int = 0
    disagreements: list[CrossCheck] = field(default_factory=list)


def run_sweep(graphs: Iterable[Graph]) -> SweepSummary:
    """Cross-check a stream of graphs and tally the outcomes; disconnected and
    bipartite graphs are skipped and counted."""
    summary = SweepSummary()
    for g in graphs:
        if not is_connected(g) or is_bipartite(g):
            summary.skipped += 1
            continue
        result = cross_check(g)
        summary.checked += 1
        summary.normal += result.normal
        summary.r1 += result.r1
        if result.failures:
            summary.disagreements.append(result)
    return summary
