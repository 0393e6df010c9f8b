"""Facet data of the edge polytope: regular vertices and fundamental sets.

For a connected nonbipartite graph the facets of the edge polytope come in
two kinds, which facets(g) alone lists, each named by a vertex or a vertex set:

* a vertex i is regular when every connected component of the graph with i
  deleted contains an odd cycle;
* an independent set T is fundamental when the bipartite subgraph spanned by
  the edges between T and its neighborhood N(T) is connected, and the rest
  of the graph is empty or has an odd cycle in every component.  They are
  enumerated in time that scales with the independent sets connected
  through shared neighbours, not with all independent sets; a bipartite
  piece of the rest passes from a search node to its children, so most
  nodes are decided without a flood of their own.

Each descriptor reads as a pair (T, N) through its sides(g) method: (T, N(T))
for a fundamental set, and (empty set, {i}) for a regular vertex i.  Its
supporting linear form is the sum over N minus the sum over T (the coordinate
form x_i for a regular vertex), halved when T and N exhaust the vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .graph import (
    Graph,
    UnsupportedError,
    VertexSet,
    first_component,
    is_bipartite,
    members,
    neighborhood,
    require_connected,
)


@dataclass(frozen=True)
class RegularVertex:
    vertex: int

    def sides(self, g: Graph) -> tuple[VertexSet, VertexSet]:
        """(T, N): where the facet's form is -1 and +1; the empty set and {vertex}."""
        return 0, 1 << (self.vertex - 1)


@dataclass(frozen=True)
class Fundamental:
    mask: VertexSet

    @property
    def vertices(self) -> tuple[int, ...]:
        return members(self.mask)

    def sides(self, g: Graph) -> tuple[VertexSet, VertexSet]:
        """(T, N): where the facet's form is -1 and +1; the set and its neighborhood."""
        return self.mask, neighborhood(g, self.mask)

    def __repr__(self) -> str:
        return "Fundamental({%s})" % ", ".join(str(v) for v in self.vertices)


FacetDescriptor = Union[RegularVertex, Fundamental]


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

def regular_vertices(g: Graph) -> list[int]:
    """The vertices v such that every component of g - v contains an odd cycle."""
    full = g.full
    return [v for v in range(1, g.d + 1) if not first_component(g, full & ~(1 << (v - 1)), False)]


# ---------------------------------------------------------------------------
# fundamental sets

def iter_fundamental_sets(g: Graph) -> Iterator[VertexSet]:
    """Fundamental sets, in lexicographic order of their sorted vertex tuples.

    An independent T has a connected T-to-N(T) bipartite part exactly when
    T is connected in the graph H where two vertices share a neighbour.  So
    T grows along H by the ESU enumeration (Wernicke, IEEE/ACM TCBB 2006),
    and the cost scales with the H-connected independent sets, not with all.
    """
    adj, full = g.adj, g.full
    share = [neighborhood(g, a) & ~(1 << i) for i, a in enumerate(adj)]
    for r in range(g.d):
        out = []
        root = 1 << r
        above = -root << 1
        # (T, N(T), extension set, T and its H-neighbours, bad); T's smallest
        # vertex is r, and a child adds w with its fresh H-neighbours above r.
        # bad is 0 or a union of bipartite components of the rest V - T - N(T);
        # a child's rest loses w and N(w), and what bad keeps is still such a union
        stack = [(root, adj[r], share[r] & above & ~adj[r], root | share[r], 0)]
        while stack:
            t, nb, ext, reached, bad = stack.pop()
            if not bad:
                bad = first_component(g, full & ~(t | nb), False)
                if not bad:
                    out.append(t)
            while ext:
                w = ext & -ext
                ext ^= w
                i = w.bit_length() - 1
                child_nb = nb | adj[i]
                fresh = share[i] & above & ~reached
                stack.append((t | w, child_nb, (ext | fresh) & ~child_nb, reached | share[i],
                              bad & ~(w | adj[i])))
        # every sorted tuple here starts with r, so each root's sets come out
        # before the next root's are searched
        yield from sorted(out, key=members)


# ---------------------------------------------------------------------------
# supporting forms and the facet list

def _form_for(g: Graph, f: FacetDescriptor) -> SupportForm:
    # no validation; callers pass descriptors already known to be facets
    t, nb = f.sides(g)
    coeffs = tuple([(nb >> i & 1) - (t >> i & 1) for i in range(g.d)])
    return SupportForm(coeffs, 2 if (t | nb) == g.full else 1)


def support_form(g: Graph, f: FacetDescriptor) -> SupportForm:
    """Supporting form of a facet descriptor; raises ValueError unless f is in facets(g)."""
    if f not in facets(g):
        raise ValueError(f"{f!r} is not a facet of this graph")
    return _form_for(g, f)


def facets(g: Graph) -> list[FacetDescriptor]:
    """All facet descriptors of the edge polytope: the regular vertices by
    label, then the fundamental sets in lexicographic order.

    Requires a connected nonbipartite graph; the facet description below
    two dimensions degenerates otherwise.
    """
    require_connected(g)
    if is_bipartite(g):
        raise UnsupportedError("graph is bipartite; facet data needs an odd cycle")
    out: list[FacetDescriptor] = [RegularVertex(v) for v in regular_vertices(g)]
    out += [Fundamental(t) for t in iter_fundamental_sets(g)]
    return out


def facet_forms(g: Graph) -> list[tuple[FacetDescriptor, SupportForm]]:
    """Every facet descriptor with its supporting form, in facets() order."""
    return [(f, _form_for(g, f)) for f in facets(g)]
