"""Monoid-lattice route to (R1), independent of the connectivity criterion.

The edge ring is the monoid ring of the monoid generated by the edge
vectors e_i + e_j inside Z^d.  Over each facet of the edge polytope the
ring is regular in codimension one exactly when two exact conditions hold:

1. some edge vector evaluates to 1 under the normalized supporting form;
2. the edge vectors on which the form vanishes generate, as a lattice, the
   full kernel of the form inside the group generated by all edge vectors.

The zero-valued edge vectors lie in that kernel by construction, so condition
2 is :meth:`IntegerLattice.fills`: the same echelon pivot columns and the same
|product of pivots|, with no canonical form.  Nor does the group identity need
the even-sum lattice: edge vectors have even coordinate sum, so their group
fills that lattice exactly when it has its rank d and pivot product 2.

:func:`facet_conditions` evaluates both once per facet, against the monoid
group a caller passes as ``group`` or else its own, into :class:`FacetCheck`
records, which the verdict and the structural checks read.  Edge vectors have
coordinate sum 2, so a zero set's affine hull misses the origin: a facet's
rank d - 2 is read by :func:`verify_facet_rank` as its zero lattice's rank d - 1.

Everything is checked with exact integer arithmetic; any half-integral
value where an integer is forced is reported as an internal error rather
than rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .facets import FacetDescriptor, Fundamental, SupportForm, facet_forms
# not called here; bench/tracer.py wraps oracle.support_form by that name
from .facets import support_form  # noqa: F401
from .graph import (
    DisagreementError,
    Edge,
    Graph,
    UnsupportedError,
    connected_components,
    is_bipartite,
    members,
    neighborhood,
    odd_spanning_edges,
    require_connected,
)
from .lattice import IntegerLattice, IntVec


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
        raise UnsupportedError("graph is bipartite; its edge vectors span a proper sublattice")
    lat = IntegerLattice(g.d, (edge_vector(e, g.d) for e in g.edges))
    if not _is_even_sum_lattice(lat):
        raise DisagreementError("edge vectors did not span the even-sum lattice; internal error")
    return lat


def verify_even_sum_basis(g: Graph) -> bool:
    """Certify the even-sum identity from a BFS tree plus one odd-closing edge.

    With sigma(x) the sum of x over even-depth minus odd-depth vertices, the tree's
    d - 1 edge vectors span ker sigma and the odd edge has sigma = +-2: index 2, a basis.
    """
    gens = [edge_vector(e, g.d) for e in odd_spanning_edges(g)]
    return _is_even_sum_lattice(IntegerLattice(g.d, gens))


def _is_even_sum_lattice(lat: IntegerLattice) -> bool:
    # lat is generated by vectors of even coordinate sum, so it lies inside the
    # even-sum lattice, whose pivots are 0..d-1 with product 2 (module docstring)
    return lat.rank == lat.dim and lat.pivot_product() == 2


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


def facet_conditions(g: Graph, *, group: IntegerLattice | None = None) -> list[FacetCheck]:
    """Both conditions for every facet, one record per facet in facet order,
    against the monoid group `group` (built here if not given).
    """
    forms = facet_forms(g)  # first, so that bad input gets the facet error message
    if group is None:
        group = monoid_group(g)
    vectors = [edge_vector(e, g.d) for e in g.edges]
    out = []
    for f, form in forms:
        values = _edge_numerators(g, form)
        zero = IntegerLattice(g.d, [vec for vec, v in zip(vectors, values) if v == 0])
        match = zero.fills(group.kernel_of_form(form.coeffs))
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
    spans an affine sublattice of rank d - 2.  Every edge vector has coordinate
    sum 2, so that affine hull misses the origin and check.zero has rank d - 1.
    """
    return 0 in check.values and min(check.values) >= 0 and check.zero.rank == g.d - 1


def verify_decomposition(g: Graph, check: FacetCheck) -> bool:
    """Structural identity behind condition 2 at a fundamental set T.

    The record's zero lattice must equal D, whose two blocks are written in
    closed form: the vectors on T and N(T) whose sums over T and over N(T)
    agree, and the even-sum lattice of each component away from T and N(T).
    For an independent T the zero lattice is the edge lattice of the T-to-N(T)
    part plus those of the rest components, so a vertex set meets the
    identity exactly when it is fundamental.
    """
    if not isinstance(check.facet, Fundamental):
        raise ValueError("not a fundamental set")
    t = check.facet.mask
    nb = neighborhood(g, t)
    if t & nb:
        return False  # not independent, so not a fundamental set
    # consecutive members a < b of T and N(T): e_a + e_b across the two sides,
    # e_a - e_b within one; each vector has its own pivot column a
    part = members(t | nb)
    gens: list[Sequence[int]] = []
    for a, b in zip(part, part[1:]):
        vec = [0] * g.d
        vec[a - 1] = 1
        vec[b - 1] = 1 if (t >> (a - 1) ^ t >> (b - 1)) & 1 else -1
        gens.append(vec)
    for comp in connected_components(g, g.full & ~(t | nb)):
        vs = members(comp)
        gens += [edge_vector(pair, g.d) for pair in zip(vs, vs[1:])]
        gens.append([2 if v == vs[-1] else 0 for v in range(1, g.d + 1)])
    return check.zero == IntegerLattice(g.d, gens)
