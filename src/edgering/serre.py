"""Serre's condition (R1) and normality for edge rings, by graph criteria.

The edge ring of a connected nonbipartite graph satisfies (R1) exactly when
V - (T | N) is empty or connected at every facet (T, N) of the edge polytope,
where a regular vertex i is (empty set, {i}) and a fundamental set T is
(T, N(T)).  Both facet walks yield (T, N, connected), decided by the flood
that found the facet, and r1_violations reads that flag in a walk;
facet_connectivity_holds tests one facet on its own, given its sides (T, N).

satisfies_r1 and classify each gate, by their own flood, one core that walks
the regular vertices and the (R1) search iter_fundamental_sets(g, True), which
yields only the fundamental sets whose rest is disconnected and pushes no
child whose rest has fewer than facets.R1_REST_FLOOR vertices (the lemma
beside that constant says why).  Both searches push no child that keeps a
bipartite piece of its parent's rest and cannot grow: it is neither
fundamental nor a parent.

Normality is the odd cycle condition: every two vertex-disjoint chordless
odd cycles are joined by an edge.  Normal implies (R1), and for a bipartite
graph the edge ring is always normal, hence both hold trivially.  So classify
decides the condition first and searches for (R1) violations only when it
fails; the sweep runs both routes on every graph and checks the implication.

The condition is decided without listing every cycle.  Call a chordless odd
cycle C exceptional when g - N[C], the graph with C and its neighbors
deleted, has an odd cycle.  A shortest odd cycle of that induced subgraph
is chordless in g, misses C and has no edge to it, so the condition fails
exactly when some cycle is exceptional.  The cycles partnered with C are
exceptional too, so the first offending pair in sorted order starts at the
first exceptional cycle a, and its partner is the first chordless odd cycle
of g - N[a].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator

from .facets import Facet, FacetDescriptor, descriptor, iter_fundamental_sets, regular_vertices
from .graph import (
    Cycle,
    Graph,
    VertexSet,
    connected_within,
    iter_chordless_odd_cycles,
    require_connected,
)

# not called here; bench/tracer.py wraps serre.chordless_odd_cycles by that name
from .graph import chordless_odd_cycles  # noqa: F401


def satisfies_odd_cycle_condition(g: Graph) -> tuple[Cycle, Cycle] | None:
    """None when every two disjoint chordless odd cycles see an edge between
    them; otherwise the first offending pair in sorted order.

    That pair is (a, b) with a the first exceptional cycle and b the first
    chordless odd cycle of g - N[a] (see the module docstring).
    """
    for a, closed in iter_chordless_odd_cycles(g, exceptional=True):
        b, _ = next(iter_chordless_odd_cycles(g, g.full & ~closed))
        return (a, b)
    return None


def facet_connectivity_holds(g: Graph, t: VertexSet, nb: VertexSet) -> bool:
    """The (R1) test at a facet with sides (T, N): V - (T | N) is empty or connected."""
    # the XOR keeps any side vertex outside 1..d, so the range check sees it
    return connected_within(g, g.full ^ (t | nb))


def r1_violations(walk: Iterable[Facet]) -> Iterator[FacetDescriptor]:
    """The (R1) rule: each walk item (T, N, connected) whose rest is not connected, named."""
    return (descriptor(t, nb) for t, nb, connected in walk if not connected)


def _r1_search(g: Graph, early_exit: bool) -> list[FacetDescriptor]:
    """The (R1) violations of a connected graph with an odd cycle: regular vertices
    by label, then fundamental sets in lexicographic order; with early_exit the
    lazy walk stops at the first.  Its fundamental sets come from the (R1) search,
    which yields only the failing ones and is floored at facets.R1_REST_FLOOR."""
    walk = chain(regular_vertices(g), iter_fundamental_sets(g, True))
    return list(islice(r1_violations(walk), 1 if early_exit else None))


def satisfies_r1(g: Graph, *, early_exit: bool = False) -> tuple[bool, list[FacetDescriptor]]:
    """Decide (R1) for the edge ring of a connected graph: (verdict, violations),
    the facet descriptors that fail, from _r1_search.  A bipartite graph passes unwalked.
    """
    violations = _r1_search(g, early_exit) if require_connected(g) else []
    return (not violations, violations)


@dataclass(frozen=True)
class ClassificationReport:
    bipartite: bool
    r1: bool
    r1_violations: tuple[FacetDescriptor, ...]
    occ_violation: tuple[Cycle, Cycle] | None

    @property
    def normal(self) -> bool:  # read off the witness: the odd cycle condition (Ohsugi-Hibi)
        return self.occ_violation is None

    @property
    def notes(self) -> str:  # a normal edge ring is Cohen-Macaulay (Hochster)
        if self.normal:
            return "normal hence Cohen-Macaulay"
        return "satisfies (R1); normal iff Cohen-Macaulay" if self.r1 else ""


def classify(g: Graph, *, early_exit: bool = False) -> ClassificationReport:
    """Full report for a connected graph: normality, then (R1) if not normal, and witnesses."""
    bipartite = not require_connected(g)
    occ = None if bipartite else satisfies_odd_cycle_condition(g)
    violations = [] if occ is None else _r1_search(g, early_exit)
    return ClassificationReport(bipartite, not violations, tuple(violations), occ)
