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

from .facets import facet_walk
from .graph import DisagreementError, Graph, UnsupportedError, require_nonbipartite, serialize_graph6
from .oracle import (
    facet_conditions,
    failing_facets,
    monoid_group,
    verify_decomposition,
    verify_even_sum_basis,
    verify_facet_rank,
)
from .serre import facet_connectivity_holds, r1_violations, satisfies_odd_cycle_condition
# not called here; bench/tracer.py wraps sweep.satisfies_r1 by that name
from .serre import satisfies_r1  # noqa: F401


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
      decomposition           zero-set lattice identity failed at some facet
      occ-implies-r1          normal graph failing (R1)
      facet-support           a support form is not a facet form
      walk-flag               the walk's own connectivity flags name other violations

    The facets are walked once.  The oracle reads the walk's sides, never its
    flags; the criterion is retested at each record, the flags' reference.  A
    route's verdict is "no violations", so verdict-mismatch implies violation-mismatch.
    """
    fails: list[str] = []
    certified = True
    try:
        monoid_group(g)
    except DisagreementError:
        certified = False
        fails.append("monoid-group")
    walk = facet_walk(g)
    checks = facet_conditions(g, walk)
    holds = [facet_connectivity_holds(g, *c.sides) for c in checks]
    t_viols = [c.facet for c, ok in zip(checks, holds) if not ok]
    records = checks if certified else []
    o_viols = failing_facets(records)
    if certified and (not t_viols) != (not o_viols):
        fails.append("verdict-mismatch")
    if certified and t_viols != o_viols:
        fails.append("violation-mismatch")
    if list(r1_violations(walk)) != t_viols:
        fails.append("walk-flag")
    if not verify_even_sum_basis(g):
        fails.append("basis-construction")
    if not all(c.unit for c in records):
        fails.append("unit-value")
    if any(c.match != ok for c, ok in zip(records, holds)):
        fails.append("lattice-vs-connectivity")
    if not all(verify_decomposition(g, c) for c in records):
        fails.append("decomposition")
    occ = satisfies_odd_cycle_condition(g)
    if occ is None and t_viols:
        fails.append("occ-implies-r1")
    if not all(verify_facet_rank(g, c) for c in records):
        fails.append("facet-support")
    return CrossCheck(
        graph6=serialize_graph6(g),
        normal=occ is None,
        r1=not t_viols,
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
        try:
            require_nonbipartite(g)
        except UnsupportedError:  # the gate's refusal alone; cross_check's own errors propagate
            summary.skipped += 1
            continue
        result = cross_check(g)
        summary.checked += 1
        summary.normal += result.normal
        summary.r1 += result.r1
        if result.failures:
            summary.disagreements.append(result)
    return summary
