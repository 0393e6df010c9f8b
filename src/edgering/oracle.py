"""Monoid-lattice route to (R1), independent of the connectivity criterion.

The edge ring is the monoid ring of the monoid generated by the edge vectors
e_i + e_j in Z^d (built by _edge_vectors).  Over each facet of the edge polytope
the ring is regular in codimension one exactly when two exact conditions hold:

1. some edge vector evaluates to 1 under the normalized supporting form;
2. the edge vectors on which the form vanishes generate, as a lattice, the
   full kernel of the form inside the group generated by all edge vectors.

The zero-valued edge vectors lie in that kernel K by construction, so
condition 2 is the sublattice rule of :meth:`IntegerLattice.pivot_product`.
Each lattice the oracle compares has a closed form, never built (Ohsugi &
Hibi, J. Algebra 207, 1998), and :func:`_has_closed_form` is its one rule:
with (T, N) a facet's sides, (T, N(T)) or (empty set, {i}), P a set of columns
and R the rest, the pivots are every column but the last of P (all d for an
empty P), and the pivot product is known:

  lattice                           P        pivot product
  even-sum (:func:`monoid_group`)   empty    2
  K (condition 2)                   T | N    2, or 1 for an empty R (the halved form)
  D (:func:`verify_decomposition`)  T | N    2 ** #components of R

where D = {x on P : sum_T x = sum_N x} (+) the even-sum lattice of each
component of R.  K's closed form holds inside the even-sum lattice only, so
each caller that decides (R1) certifies, with :func:`monoid_group` once per
graph, that the edge vectors, whose coordinate sums are even, generate it.

:func:`facet_conditions` evaluates both conditions once per facet into
:class:`FacetCheck` records, which the verdict and the structural checks read.
Edge vectors have coordinate sum 2, so a zero set's affine hull misses the
origin: a facet's rank d - 2 is read by :func:`verify_facet_rank` as its zero
lattice's rank d - 1.

Everything is checked with exact integer arithmetic; any half-integral
value where an integer is forced is reported as an internal error rather
than rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .facets import Facet, FacetDescriptor, SupportForm, facet_forms, facet_walk
# not called here; bench/tracer.py wraps oracle.support_form by that name
from .facets import support_form  # noqa: F401
from .graph import (
    DisagreementError,
    Edge,
    Graph,
    VertexSet,
    connected_components,
    odd_spanning_edges,
    require_nonbipartite,
)
from .lattice import IntegerLattice


def monoid_group(g: Graph) -> IntegerLattice:
    """Group generated by the edge vectors of a connected nonbipartite graph.

    This is the even-coordinate-sum lattice; that identity is recomputed
    here and a mismatch raises, since condition 2's closed-form kernel relies on it.
    """
    require_nonbipartite(g)
    lat = IntegerLattice(g.d, _edge_vectors(g.d, g.edges))
    if not _has_closed_form(lat, 0, 2):
        raise DisagreementError("edge vectors did not span the even-sum lattice; internal error")
    return lat


def verify_even_sum_basis(g: Graph) -> bool:
    """Certify the even-sum identity from a BFS tree plus one odd-closing edge.

    With sigma(x) the sum of x over even-depth minus odd-depth vertices, the tree's
    d - 1 edge vectors span ker sigma and the odd edge has sigma = +-2: index 2, a basis.
    """
    return _has_closed_form(IntegerLattice(g.d, _edge_vectors(g.d, odd_spanning_edges(g))), 0, 2)


def _edge_vectors(d: int, edges: Sequence[Edge]) -> list[tuple[int, ...]]:
    # the one edge-vector builder, e_i + e_j per edge, unchecked: the edges are a Graph's
    # own (g.edges or odd_spanning_edges), which graph._edge checked at construction
    out = []
    for i, j in edges:
        v = [0] * d
        v[i - 1] = v[j - 1] = 1
        out.append(tuple(v))
    return out


def _has_closed_form(lat: IntegerLattice, part: VertexSet, product: int) -> bool:
    # the module docstring's rule: every column but P's last (-1 if P is empty) is a pivot
    last = part.bit_length() - 1
    shape = lat.rank == lat.dim - (last >= 0) and last not in lat.pivots
    return shape and lat.pivot_product() == product


def _edge_numerators(g: Graph, form: SupportForm) -> tuple[int, ...]:
    # integer values of denom * form on each edge vector, in edge order;
    # for a halved form every numerator must come out even (integrality of
    # the normalized form on the monoid), else the form is wrong.  Built from
    # a list: tuple() of a generator resizes, which fills the tuple free lists
    c = form.coeffs
    nums = tuple([c[i - 1] + c[j - 1] for i, j in g.edges])
    if form.denom == 2 and any(v & 1 for v in nums):
        raise DisagreementError("half-integral support value on an edge vector; internal error")
    return nums


@dataclass(frozen=True, eq=False)
class FacetCheck:
    """The oracle's data on one facet.

    sides is the walk's (T, N), where the form is -1 and +1: (T, N(T)) or (empty set, {i});
    values holds denom * form on each edge vector, in edge order; zero is the
    lattice generated by the zero-valued edge vectors; unit and match are
    conditions 1 and 2.  Records compare by identity.
    """

    facet: FacetDescriptor
    sides: tuple[VertexSet, VertexSet]
    values: tuple[int, ...]
    zero: IntegerLattice
    unit: bool
    match: bool


def facet_conditions(g: Graph, walk: Sequence[Facet]) -> list[FacetCheck]:
    """A record of both conditions per facet of a walk, in order: from its sides, never its flag.

    Condition 2 reads the kernel in closed form (module docstring), which holds
    for the even-sum group only: a caller that decides (R1) certifies that
    group with :func:`monoid_group`.
    """
    vectors = _edge_vectors(g.d, g.edges)
    out = []
    for (t, nb, _), (f, form) in zip(walk, facet_forms(g, walk), strict=True):
        values = _edge_numerators(g, form)
        zero = IntegerLattice(g.d, [vec for vec, v in zip(vectors, values) if v == 0])
        # K's product from the sides, not the form's denominator: the sum is even
        # on the rest, a condition exactly when R is nonempty
        match = _has_closed_form(zero, t | nb, 2 if (t | nb) != g.full else 1)
        out.append(FacetCheck(f, (t, nb), values, zero, form.denom in values, match))
    return out


def failing_facets(checks: Sequence[FacetCheck]) -> list[FacetDescriptor]:
    """The facets of the records that miss either condition, in order."""
    return [c.facet for c in checks if not (c.unit and c.match)]


def oracle_r1(g: Graph) -> tuple[bool, list[FacetDescriptor]]:
    """(R1) verdict by the lattice route, with the failing facets."""
    checks = facet_conditions(g, facet_walk(g))
    monoid_group(g)  # certifies the group that condition 2 reads in closed form
    violations = failing_facets(checks)
    return (not violations, violations)


def verify_facet_rank(g: Graph, check: FacetCheck) -> bool:
    """Sanity check that a supporting form really cuts out a facet: it is
    nonnegative on every edge vector, vanishes on some, and its zero set
    spans an affine sublattice of rank d - 2.  Every edge vector has coordinate
    sum 2, so that affine hull misses the origin and check.zero has rank d - 1.
    """
    return 0 in check.values and min(check.values) >= 0 and check.zero.rank == g.d - 1


def verify_decomposition(g: Graph, check: FacetCheck) -> bool:
    """Structural identity behind condition 2 at the record's sides (T, N).

    The record's zero lattice must equal D of the module docstring, with
    P = T | N.  It lies in D exactly when each zero-valued edge joins T to N
    or misses P, and then equals D exactly when it has D's closed form.  For an
    independent T the zero lattice is the edge lattice of the T-to-N part plus
    those of the rest components, so a vertex set T with N = N(T) meets the
    identity exactly when it is fundamental.  At a regular vertex i the sides
    are (empty set, {i}) and D is the even-sum lattice of each component of
    G - i, so the identity holds exactly when i is regular.
    """
    t, nb = check.sides
    part = t | nb
    # the XOR keeps any side vertex outside 1..d, so the range check sees it
    rest = connected_components(g, g.full ^ part)
    if t & nb:
        return False  # not independent, so not a fundamental set
    for (a, b), v in zip(g.edges, check.values):
        if v == 0:
            ends = 1 << (a - 1) | 1 << (b - 1)
            if bool(ends & t) != bool(ends & nb):
                return False  # an edge within N or from N to the rest: not in D
    return _has_closed_form(check.zero, part, 1 << len(rest))
