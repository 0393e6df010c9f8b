"""Serre's condition (R1) and normality for edge rings, by graph criteria.

The edge ring of a connected nonbipartite graph satisfies (R1) exactly when
every facet of the edge polytope passes facet_connectivity_holds: with
(T, N) the facet's sides, V - (T | N) is empty or connected, where a regular
vertex i is (empty set, {i}) and a fundamental set T is (T, N(T)).

Normality is the odd cycle condition: every two vertex-disjoint chordless
odd cycles are joined by an edge.  Normal implies (R1), and for a bipartite
graph the edge ring is always normal, hence both hold trivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .facets import (
    FacetDescriptor,
    Fundamental,
    RegularVertex,
    iter_fundamental_sets,
    regular_vertices,
)
from .graph import (
    Cycle,
    DisagreementError,
    Graph,
    chordless_odd_cycles,
    connected_within,
    is_bipartite,
    neighborhood,
    require_connected,
    vset,
)


def satisfies_odd_cycle_condition(g: Graph) -> tuple[Cycle, Cycle] | None:
    """None when every two disjoint chordless odd cycles see an edge between
    them; otherwise the first offending pair in sorted order.
    """
    cycles = chordless_odd_cycles(g)
    masks = [vset(c) for c in cycles]
    for a in range(len(cycles)):
        # b is disjoint from a and unjoined to it iff b misses a and N(a)
        closed = masks[a] | neighborhood(g, masks[a])
        for b in range(a + 1, len(cycles)):
            if not closed & masks[b]:
                return (cycles[a], cycles[b])
    return None


def facet_connectivity_holds(g: Graph, f: FacetDescriptor) -> bool:
    """The (R1) test at one facet: with (T, N) = f.sides(g), V - (T | N) is empty or connected."""
    t, nb = f.sides(g)
    rest = g.full & ~(t | nb)
    return not rest or connected_within(g, rest)


def satisfies_r1(g: Graph, *, early_exit: bool = False) -> tuple[bool, list[FacetDescriptor]]:
    """Decide (R1) for the edge ring of a connected graph.

    Returns (verdict, violations) where the violations are the facet
    descriptors whose connectivity condition fails: regular vertices by
    label, then fundamental sets in lexicographic order.  Bipartite graphs
    are normal and pass with no violations.
    With early_exit the search stops at the first violation.
    """
    require_connected(g)
    if is_bipartite(g):
        return (True, [])
    violations: list[FacetDescriptor] = []
    for f in chain(
        map(RegularVertex, regular_vertices(g)), map(Fundamental, iter_fundamental_sets(g))
    ):
        if not facet_connectivity_holds(g, f):
            violations.append(f)
            if early_exit:
                break
    return (not violations, violations)


@dataclass(frozen=True)
class ClassificationReport:
    bipartite: bool
    normal: bool
    r1: bool
    r1_violations: tuple[FacetDescriptor, ...]
    occ_violation: tuple[Cycle, Cycle] | None
    notes: str


def classify(g: Graph, *, early_exit: bool = False) -> ClassificationReport:
    """Full report for a connected graph: normality, (R1), and witnesses."""
    ok, violations = satisfies_r1(g, early_exit=early_exit)
    bipartite = is_bipartite(g)
    occ = None if bipartite else satisfies_odd_cycle_condition(g)
    normal = occ is None
    if normal and not ok:
        raise DisagreementError("normal graph failed the (R1) criterion; internal error")
    if normal:
        notes = "normal hence Cohen-Macaulay"
    elif ok:
        notes = "satisfies (R1); normal iff Cohen-Macaulay"
    else:
        notes = ""
    return ClassificationReport(
        bipartite=bipartite,
        normal=normal,
        r1=ok,
        r1_violations=tuple(violations),
        occ_violation=occ,
        notes=notes,
    )
