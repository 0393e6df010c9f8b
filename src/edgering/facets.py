"""Facet data of the edge polytope: regular vertices and fundamental sets.

For a connected nonbipartite graph the facets of the edge polytope come in
two kinds, which facet_walk(g) alone lists, each named by a vertex or a vertex set:

* a vertex i is regular when every connected component of the graph with i
  deleted contains an odd cycle;
* an independent set T is fundamental when the bipartite subgraph spanned by
  the edges between T and its neighborhood N(T) is connected, and the rest
  of the graph is empty or has an odd cycle in every component.

Both walks yield (T, N, connected): (T, N(T)) for a fundamental set and
(empty set, {i}) for a regular vertex i, with whether V - (T | N) is empty
or connected, read off the flood that found the facet.  descriptor(t, nb)
names a pair by T, or by i when T is empty, and keeps no N: the oracle's
records carry the pair as their sides.  The supporting form is the sum over
N minus the sum over T, halved when T and N exhaust the vertices.

iter_fundamental_sets(g, True) is the (R1) search: it yields only the
fundamental sets whose rest is disconnected, and never pushes a search child
whose rest has fewer than R1_REST_FLOOR vertices (the lemma stands beside it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .graph import (
    Graph,
    VertexSet,
    first_component,
    members,
    neighborhood,
    require_nonbipartite,
)


@dataclass(frozen=True)
class RegularVertex:
    vertex: int


@dataclass(frozen=True)
class Fundamental:
    mask: VertexSet

    @property
    def vertices(self) -> tuple[int, ...]:
        return members(self.mask)

    def __repr__(self) -> str:
        return "Fundamental({%s})" % ", ".join(str(v) for v in self.vertices)


FacetDescriptor = Union[RegularVertex, Fundamental]
Facet = tuple[VertexSet, VertexSet, bool]  # a walk item (T, N, connected)


def descriptor(t: VertexSet, nb: VertexSet) -> FacetDescriptor:
    """Fundamental(T) for a walk's pair (T, N), or RegularVertex(i) when T is empty and N = {i}."""
    return Fundamental(t) if t else RegularVertex(nb.bit_length())


@dataclass(frozen=True)
class SupportForm:
    """Integer linear form with denominator 1 or 2: the form is coeffs / denom."""

    coeffs: tuple[int, ...]
    denom: int

    def __post_init__(self) -> None:
        if self.denom not in (1, 2):
            raise ValueError(f"denominator must be 1 or 2, got {self.denom}")
        if not any(self.coeffs):
            raise ValueError("zero form")


# ---------------------------------------------------------------------------
# regular vertices

def regular_vertices(g: Graph) -> list[Facet]:
    """(empty set, {v}, connected) for each regular vertex v, by label: every
    component of g - v contains an odd cycle; connected: g - v is connected."""
    # a list, not a generator, as bench/tracer.py times it with a plain span
    out = []
    for i in range(g.d):
        rest = g.full ^ (1 << i)
        bad, lowest = first_component(g, rest, False)
        if not bad:
            out.append((0, 1 << i, lowest == rest))
    return out


# ---------------------------------------------------------------------------
# fundamental sets

# Every component of a fundamental set's rest V - (T | N(T)) has an odd cycle, so
# at least three vertices, and a rest that fails (R1) has two or more: a
# failing fundamental set's rest has at least this many vertices.  T and N(T) are
# nonempty, so a rest has at most d - 2 vertices: no fundamental set fails when d <= 7
R1_REST_FLOOR = 6


def iter_fundamental_sets(g: Graph, r1_search: bool = False) -> Iterator[Facet]:
    """(T, N(T), connected) for each fundamental set T, in lexicographic order
    of the sorted tuples of T; connected: V - (T | N(T)) is empty or connected.

    An independent T has a connected T-to-N(T) bipartite part exactly when
    T is connected in the graph H where two vertices share a neighbour.  So
    T grows along H by the ESU enumeration (Wernicke, IEEE/ACM TCBB 2006),
    and the cost scales with the H-connected independent sets, not with all.
    A child whose rest keeps a bipartite piece of its parent's rest, and which
    has nothing to extend by, is neither fundamental nor a parent, so it is
    never pushed: on bridge_graph(k) that leaves 9 * 2^(k-1) + 11 of the
    9 * 2^k - 2 H-connected independent sets.

    With r1_search, the (R1) search: only the fundamental sets that fail (R1),
    those whose rest is disconnected, are yielded, all with connected false.
    A child whose rest has fewer than R1_REST_FLOOR vertices (the lemma stands
    beside the constant) is never pushed, since a child's rest is a subset of
    its parent's, and a popped node is kept only when the flood that finds it
    fundamental finds its rest disconnected.
    """
    adj, full = g.adj, g.full
    share = [neighborhood(g, a) & ~(1 << i) for i, a in enumerate(adj)]
    closed = [a | 1 << i for i, a in enumerate(adj)]
    floor = R1_REST_FLOOR if r1_search else 0
    for r in range(g.d):
        root = 1 << r
        out = []
        above = -root << 1
        # (T, extension set, T and its H-neighbours, rest V - T - N(T), bad); T is
        # independent, so N(T) is V - T - rest.  T's smallest vertex is r: the walk
        # starts at the empty set, whose one extension is r, and a child adds w with
        # its fresh H-neighbours above r.  bad is 0 or a union of bipartite components
        # of the rest; a child's rest loses w and N(w), and what bad keeps is still
        # such a union, so a child with a bad piece and no extension is neither
        # fundamental nor a parent, and is never pushed
        t, ext, reached, rest, bad = 0, root, root, full, 0
        stack = []
        while True:
            while ext:
                w = ext & -ext
                ext ^= w
                i = w.bit_length() - 1
                child_rest = rest & ~closed[i]
                if child_rest.bit_count() >= floor:
                    child_ext = (ext | share[i] & above & ~reached) & child_rest
                    child_bad = bad & child_rest
                    if child_ext or not child_bad:
                        stack.append((t | w, child_ext, reached | share[i], child_rest, child_bad))
            if not stack:
                break
            t, ext, reached, rest, bad = stack.pop()
            if not bad:
                bad, lowest = first_component(g, rest, False)
                if not bad and (lowest != rest or not r1_search):
                    out.append((t, full ^ t ^ rest, lowest == rest))
        # each root's sorted tuples start with r, so come before the next root's
        if len(out) > 1:
            out.sort(key=lambda e: members(e[0]))
        yield from out


# ---------------------------------------------------------------------------
# the facet list and supporting forms

def facet_walk(g: Graph) -> list[Facet]:
    """(T, N, connected) for every facet: the regular vertices by label, then the
    fundamental sets in lexicographic order, of a graph that require_nonbipartite admits."""
    require_nonbipartite(g)
    return [*regular_vertices(g), *iter_fundamental_sets(g)]


def facet_forms(g: Graph, walk: Sequence[Facet]) -> list[tuple[FacetDescriptor, SupportForm]]:
    """Each facet of a walk, in walk order, with its supporting form."""
    out = []
    for t, nb, _ in walk:
        coeffs = tuple([(nb >> i & 1) - (t >> i & 1) for i in range(g.d)])
        out.append((descriptor(t, nb), SupportForm(coeffs, 2 if (t | nb) == g.full else 1)))
    return out


def support_form(g: Graph, f: FacetDescriptor) -> SupportForm:
    """Supporting form of a facet descriptor; raises ValueError unless f is in the facet walk."""
    forms = dict(facet_forms(g, facet_walk(g)))
    if f not in forms:
        raise ValueError(f"{f!r} is not a facet of this graph")
    return forms[f]
