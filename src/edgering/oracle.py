"""Monoid-lattice route to (R1), independent of the connectivity criterion.

The edge ring is the monoid ring of the monoid generated by the edge
vectors e_i + e_j inside Z^d.  Over each facet of the edge polytope the
ring is regular in codimension one exactly when two exact conditions hold:

1. some edge vector evaluates to 1 under the normalized supporting form;
2. the edge vectors on which the form vanishes generate, as a lattice, the
   full kernel of the form inside the group generated by all edge vectors.

:func:`facet_conditions` evaluates both once per facet into
:class:`FacetCheck` records, which the verdict and the structural checks
:func:`verify_facet_rank` and :func:`verify_decomposition` then read.

Everything is checked with exact integer arithmetic; any half-integral
value where an integer is forced is reported as an internal error rather
than rounded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .facets import FacetDescriptor, Fundamental, SupportForm, facet_forms
# not called here; bench/tracer.py wraps oracle.support_form by that name
from .facets import support_form  # noqa: F401
from .graph import (
    Edge,
    Graph,
    VertexSet,
    connected_components,
    is_bipartite,
    members,
    neighborhood,
    odd_cycle_witness,
    require_connected,
    spanning_tree_edges,
)
from .lattice import IntegerLattice, IntVec, even_sum_lattice


def edge_vector(e: Edge, d: int) -> IntVec:
    """The 0/1 vector e_i + e_j of an edge {i, j} in Z^d."""
    i, j = e
    if i == j:
        raise ValueError(f"loop at vertex {i}")
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError(f"edge {{{i},{j}}} out of range 1..{d}")
    v = [0] * d
    v[i - 1] = 1
    v[j - 1] = 1
    return tuple(v)


def monoid_group(g: Graph) -> IntegerLattice:
    """Group generated by the edge vectors of a connected nonbipartite graph.

    This is the even-coordinate-sum lattice; that identity is recomputed
    here and a mismatch raises, since downstream kernels rely on it.
    """
    require_connected(g)
    if is_bipartite(g):
        raise ValueError("graph is bipartite; its edge vectors span a proper sublattice")
    lat = IntegerLattice(g.d, (edge_vector(e, g.d) for e in g.edges))
    if lat != even_sum_lattice(g.d):
        raise RuntimeError("edge vectors did not span the even-sum lattice; internal error")
    return lat


def verify_even_sum_basis(g: Graph) -> bool:
    """Certify the even-sum identity for the edge-vector group directly.

    Checks that the alternating sum of edge vectors around an odd cycle
    collapses to twice a unit vector, and that this vector together with a
    spanning tree's edge vectors is a Z-basis of the even-sum lattice.
    """
    cyc = odd_cycle_witness(g, g.full)
    if cyc is None:
        return False
    acc = [0] * g.d
    sign = 1
    for idx in range(len(cyc)):
        u, w = cyc[idx], cyc[(idx + 1) % len(cyc)]
        acc[u - 1] += sign
        acc[w - 1] += sign
        sign = -sign
    doubled = [0] * g.d
    doubled[cyc[0] - 1] = 2
    if acc != doubled:
        return False
    gens = [edge_vector(e, g.d) for e in spanning_tree_edges(g)]
    gens.append(tuple(acc))
    if len(gens) != g.d:
        return False
    lat = IntegerLattice(g.d, gens)
    return lat.rank == g.d and lat == even_sum_lattice(g.d)


def _edge_numerators(g: Graph, form: SupportForm) -> tuple[int, ...]:
    # integer values of denom * form on each edge vector, in edge order;
    # for a halved form every numerator must come out even (integrality of
    # the normalized form on the monoid), else the form is wrong.  Built from
    # a list: tuple() of a generator resizes, which fills the tuple free lists
    c = form.coeffs
    nums = tuple([c[i - 1] + c[j - 1] for i, j in g.edges])
    if form.denom == 2 and any(v & 1 for v in nums):
        raise RuntimeError("half-integral support value on an edge vector; internal error")
    return nums


def _zero_vectors(g: Graph, values: Sequence[int]) -> list[IntVec]:
    # the edge vectors on which the form vanishes, in edge order
    return [edge_vector(e, g.d) for e, v in zip(g.edges, values) if v == 0]


@dataclass(frozen=True)
class FacetCheck:
    """The oracle's data on one facet.

    values holds denom * form on each edge vector, in edge order; zero is
    the lattice generated by the zero-valued edge vectors; unit and match
    are conditions 1 and 2.
    """

    facet: FacetDescriptor
    values: tuple[int, ...]
    zero: IntegerLattice
    unit: bool
    match: bool


def facet_conditions(g: Graph) -> list[FacetCheck]:
    """Both conditions for every facet, one record per facet in facet order."""
    forms = facet_forms(g)  # first, so that bad input gets the facet error message
    group = monoid_group(g)
    out = []
    for f, form in forms:
        values = _edge_numerators(g, form)
        zero = IntegerLattice(g.d, _zero_vectors(g, values))
        match = zero == group.kernel_of_form(form.coeffs)
        out.append(FacetCheck(f, values, zero, form.denom in values, match))
    return out


def failing_facets(checks: Sequence[FacetCheck]) -> list[FacetDescriptor]:
    """The facets of the records that miss either condition, in order."""
    return [c.facet for c in checks if not (c.unit and c.match)]


def oracle_r1(g: Graph) -> tuple[bool, list[FacetDescriptor]]:
    """(R1) verdict by the lattice route, with the failing facets."""
    violations = failing_facets(facet_conditions(g))
    return (not violations, violations)


def verify_facet_rank(g: Graph, check: FacetCheck) -> bool:
    """Sanity check that a supporting form really cuts out a facet: it is
    nonnegative on every edge vector, vanishes on some, and its zero set
    spans an affine sublattice of rank d - 2.
    """
    zero = _zero_vectors(g, check.values)
    if not zero or any(v < 0 for v in check.values):
        return False
    base = zero[0]
    diffs = [[a - b for a, b in zip(vec, base)] for vec in zero[1:]]
    return IntegerLattice(g.d, diffs).rank == g.d - 2


def _bipartite_tree_edges(g: Graph, t: VertexSet, nb: VertexSet) -> list[Edge]:
    # BFS spanning tree of the connected bipartite subgraph on t | nb,
    # using only edges between t and nb
    start = (t & -t).bit_length()
    seen = t & -t
    queue = deque([start])
    tree = []
    while queue:
        u = queue.popleft()
        side = nb if t >> (u - 1) & 1 else t
        m = g.adj[u - 1] & side & ~seen
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length()
            seen |= low
            tree.append((u, w) if u < w else (w, u))
            queue.append(w)
    return tree


def verify_decomposition(g: Graph, check: FacetCheck) -> bool:
    """Structural identity behind condition 2 at a fundamental set T.

    The zero-valued edge vectors (the record's zero lattice) must generate
    the same lattice as the even-sum lattices of the components away from
    T and N(T), embedded coordinatewise, together with the edge vectors of
    a spanning tree of the T-to-N(T) bipartite subgraph.
    """
    if not isinstance(check.facet, Fundamental):
        raise ValueError("not a fundamental set")
    t = check.facet.mask
    nb = neighborhood(g, t)
    gens: list[Sequence[int]] = [edge_vector(e, g.d) for e in _bipartite_tree_edges(g, t, nb)]
    for comp in connected_components(g, g.full & ~(t | nb)):
        vs = members(comp)
        gens += [edge_vector(pair, g.d) for pair in zip(vs, vs[1:])]
        gens.append([2 if v == vs[-1] else 0 for v in range(1, g.d + 1)])
    return check.zero == IntegerLattice(g.d, gens)
