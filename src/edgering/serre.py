"""Serre's condition (R1) and normality for edge rings, by graph criteria.

The edge ring of a connected nonbipartite graph satisfies (R1) exactly when
every facet of the edge polytope keeps its connectivity condition:

* for a regular vertex i, deleting i leaves the graph connected;
* for a fundamental set T, either T and N(T) exhaust the vertex set or the
  subgraph induced away from T and N(T) is connected.

Normality is the odd cycle condition: every two vertex-disjoint chordless
odd cycles are joined by an edge.  Normal implies (R1), and for a bipartite
graph the edge ring is always normal, hence both hold trivially.
"""

from __future__ import annotations

from dataclasses import dataclass

from .facets import (
    FacetDescriptor,
    Fundamental,
    RegularVertex,
    iter_fundamental_sets,
    regular_vertices,
)
from .graph import (
    Cycle,
    Graph,
    VertexSet,
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


def _vertex_condition(g: Graph, v: int) -> bool:
    return connected_within(g, g.full & ~(1 << (v - 1)))


def _set_condition(g: Graph, t: VertexSet) -> bool:
    tn = t | neighborhood(g, t)
    return tn == g.full or connected_within(g, g.full & ~tn)


def facet_connectivity_holds(g: Graph, f: FacetDescriptor) -> bool:
    """The per-facet connectivity condition of the (R1) criterion."""
    if isinstance(f, RegularVertex):
        return _vertex_condition(g, f.vertex)
    return _set_condition(g, f.mask)


def satisfies_r1(g: Graph, *, early_exit: bool = False) -> tuple[bool, list[FacetDescriptor]]:
    """Decide (R1) for the edge ring of a connected graph.

    Returns (verdict, violations) where the violations are the facet
    descriptors whose connectivity condition fails, in facet_sort_key
    order.  Bipartite graphs are normal and pass with no violations.
    With early_exit the search stops at the first violation.
    """
    require_connected(g)
    if is_bipartite(g):
        return (True, [])
    violations: list[FacetDescriptor] = []
    for v in regular_vertices(g):
        if not _vertex_condition(g, v):
            violations.append(RegularVertex(v))
            if early_exit:
                return (False, violations)
    for t in iter_fundamental_sets(g):
        if not _set_condition(g, t):
            violations.append(Fundamental(t))
            if early_exit:
                return (False, violations)
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
    require_connected(g)
    if is_bipartite(g):
        return ClassificationReport(
            bipartite=True,
            normal=True,
            r1=True,
            r1_violations=(),
            occ_violation=None,
            notes="normal hence Cohen-Macaulay",
        )
    occ = satisfies_odd_cycle_condition(g)
    normal = occ is None
    ok, violations = satisfies_r1(g, early_exit=early_exit)
    if normal and not ok:
        raise RuntimeError("normal graph failed the (R1) criterion; internal error")
    if normal:
        notes = "normal hence Cohen-Macaulay"
    elif ok:
        notes = "satisfies (R1); normal iff Cohen-Macaulay"
    else:
        notes = ""
    return ClassificationReport(
        bipartite=False,
        normal=normal,
        r1=ok,
        r1_violations=tuple(violations),
        occ_violation=occ,
        notes=notes,
    )
