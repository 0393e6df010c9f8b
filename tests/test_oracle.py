import dataclasses
import random
import re

import pytest
from hypothesis import given, settings

import edgering.oracle
from edgering import (
    FacetCheck,
    connected_components,
    facet_forms,
    facet_walk,
    is_bipartite,
    is_connected,
    labelled_graphs,
    members,
    neighborhood,
    odd_spanning_edges,
    parse_graph6,
    Fundamental,
    Graph,
    IntegerLattice,
    RegularVertex,
    UnsupportedError,
    bridge_graph,
    complete_graph,
    cross_check,
    cycle_graph,
    descriptor,
    facet_conditions,
    facet_connectivity_holds,
    failing_facets,
    monoid_group,
    oracle_r1,
    satisfies_r1,
    support_form,
    verify_decomposition,
    verify_even_sum_basis,
    verify_facet_rank,
    vset,
)
from conftest import DATA_DIR
from helpers import (
    all_columns_but,
    brute_fundamental,
    brute_regular_vertex,
    connected_nonbipartite_graphs,
    decomposition_generators,
    EagerLattice,
    canonical_basis,
    diff_lattice_facet_rank,
    edge_vector,
    even_sum_generators,
    form_value,
    random_connected_nonbipartite,
)


def check_for(g, f) -> FacetCheck:
    """The facet_conditions record of one facet."""
    (check,) = [c for c in facet_conditions(g, facet_walk(g)) if c.facet == f]
    return check


# ---------------------------------------------------------------------------
# edge vectors and the monoid group

def test_oracle_edge_vectors_equal_edge_vector():
    # the oracle's builder, the package's one, skips the edge check that Graph
    # already ran; its vectors must be the reference's e_i + e_j
    assert edgering.oracle._edge_vectors(4, [(1, 3), (2, 4)]) == [(1, 0, 1, 0), (0, 1, 0, 1)]
    graphs_seen = 0
    for g in _small_graphs():
        vectors = [edge_vector(e, g.d) for e in g.edges]
        assert edgering.oracle._edge_vectors(g.d, g.edges) == vectors
        graphs_seen += 1
    assert graphs_seen == 553


def test_monoid_group_is_even_sum(bridge2):
    for g in (complete_graph(3), cycle_graph(5), bridge2, bridge_graph(1)):
        lat = monoid_group(g)
        assert canonical_basis(lat) == EagerLattice(g.d, even_sum_generators(g.d)).basis
        assert lat.rank == g.d
        assert lat.pivot_product() == 2


def test_monoid_group_rejects_bad_graphs():
    with pytest.raises(ValueError, match="not connected"):
        monoid_group(Graph(4, ((1, 2), (3, 4))))
    with pytest.raises(ValueError, match="bipartite"):
        monoid_group(cycle_graph(4))


def test_monoid_group_refuses_bad_graphs_as_unsupported():
    with pytest.raises(UnsupportedError, match="not connected"):
        monoid_group(Graph(4, ((1, 2), (3, 4))))
    with pytest.raises(UnsupportedError, match="bipartite"):
        monoid_group(cycle_graph(4))


def test_verify_even_sum_basis(bridge2):
    assert verify_even_sum_basis(complete_graph(3))
    assert verify_even_sum_basis(cycle_graph(5))
    assert verify_even_sum_basis(bridge2)
    assert verify_even_sum_basis(complete_graph(6))
    with pytest.raises(UnsupportedError, match="not connected"):
        verify_even_sum_basis(Graph(4, ((1, 2), (3, 4))))


def test_verify_even_sum_basis_is_false_on_bipartite_graphs():
    # a bipartite graph has no odd-closing edge, so the tree alone has rank d - 1
    seen = 0
    for d in range(1, 7):
        for g in labelled_graphs(d):
            if is_connected(g) and is_bipartite(g):
                assert not verify_even_sum_basis(g), g
                seen += 1
    assert seen == 3250


def test_verify_even_sum_basis_rejects_bad_edge_sets(monkeypatch):
    # the certificate must catch a missing odd edge and an extra edge that
    # closes the even cycle 3-7-4-8 with the tree, and cross_check must tag it
    g = bridge_graph(2)
    tree = odd_spanning_edges(g)[:-1]
    assert (4, 8) not in tree
    for edges in (tree, tree + ((4, 8),)):
        monkeypatch.setattr("edgering.oracle.odd_spanning_edges", lambda g, edges=edges: edges)
        assert not verify_even_sum_basis(g)
        assert cross_check(g).failures == ("basis-construction",)


def test_edge_order_does_not_change_an_oracle_lattice():
    # the oracle inserts its edge vectors last edge first; the canonical basis,
    # pivots and pivot product of each lattice it builds, from the edges, the
    # certificate's tree or a facet's zero set, must not depend on the order
    lattices = 0
    for name in ("conn7.g6", "bridge_k7_10.g6", "gnp_d18_20_22.g6"):
        for g in parse_graph6((DATA_DIR / name).read_text()):
            vectors = edgering.oracle._edge_vectors(g.d, g.edges)
            sets = [vectors, edgering.oracle._edge_vectors(g.d, odd_spanning_edges(g))]
            for check in facet_conditions(g, facet_walk(g)):
                sets.append([vec for vec, v in zip(vectors, check.values) if v == 0])
            for vecs in sets:
                forward, backward = IntegerLattice(g.d, vecs), IntegerLattice(g.d, vecs[::-1])
                assert canonical_basis(forward) == canonical_basis(backward), g
                assert forward.pivots == backward.pivots, g
                assert forward.pivot_product() == backward.pivot_product(), g
                lattices += 1
    assert lattices > 350 * 3


# ---------------------------------------------------------------------------
# the two facet conditions

def test_unit_value_on_exhibits(bridge2, bridge1):
    assert check_for(bridge2, RegularVertex(7)).unit
    assert check_for(bridge2, Fundamental(vset([1]))).unit
    assert check_for(complete_graph(3), Fundamental(vset([1]))).unit
    assert check_for(bridge1, RegularVertex(7)).unit


def test_lattice_match_on_exhibits(bridge2, bridge1):
    assert check_for(bridge2, RegularVertex(7)).match
    assert check_for(bridge2, Fundamental(vset([3, 4]))).match
    assert check_for(complete_graph(3), Fundamental(vset([1]))).match
    assert not check_for(bridge1, RegularVertex(7)).match


def test_lattice_match_bridge1_witness(bridge1):
    # with vertex 7 removed the remaining edges are two disjoint triangles,
    # whose vectors force even sums on both triangles separately; the kernel
    # only forces x7 = 0 and even total, so the all-ones-off-7 vector splits
    # the two lattices
    form = support_form(bridge1, RegularVertex(7))
    zero = [edge_vector(e, 7) for e in bridge1.edges if form_value(form, edge_vector(e, 7)) == 0]
    facet_lattice = EagerLattice(7, zero).basis
    assert canonical_basis(check_for(bridge1, RegularVertex(7)).zero) == facet_lattice
    kernel = canonical_basis(monoid_group(bridge1).kernel_of_form(form.coeffs))
    witness = (1, 1, 1, 1, 1, 1, 0)
    with_witness = canonical_basis(IntegerLattice(7, [*zero, witness]))
    assert with_witness == kernel  # so the witness lies in the kernel
    assert with_witness != facet_lattice  # but not in the facet lattice


def test_facet_conditions_bridge2(bridge2):
    checks = facet_conditions(bridge2, facet_walk(bridge2))
    assert len(checks) == 17
    assert [c.facet for c in checks] == [descriptor(t, nb) for t, nb, _ in facet_walk(bridge2)]
    assert all(c.unit and c.match for c in checks)
    assert failing_facets(checks) == []


def test_facet_conditions_bridge1(bridge1):
    checks = facet_conditions(bridge1, facet_walk(bridge1))
    assert failing_facets(checks) == [RegularVertex(7)]
    by_facet = {c.facet: (c.unit, c.match) for c in checks}
    assert by_facet[RegularVertex(7)] == (True, False)


@given(connected_nonbipartite_graphs(max_d=5))
@settings(max_examples=25, deadline=None)
def test_facet_check_records_match_their_forms(g):
    # values are denom * form on each edge vector, zero is the lattice of the
    # zero-valued edge vectors, and unit is condition 1, each recomputed here
    # from the validated support_form
    checks = facet_conditions(g, facet_walk(g))
    assert [c.facet for c in checks] == [descriptor(t, nb) for t, nb, _ in facet_walk(g)]
    for c in checks:
        form = support_form(g, c.facet)
        vectors = [edge_vector(e, g.d) for e in g.edges]
        assert c.values == tuple(int(form_value(form, v) * form.denom) for v in vectors)
        zero = [v for v in vectors if form_value(form, v) == 0]
        assert canonical_basis(c.zero) == EagerLattice(g.d, zero).basis
        assert c.unit == any(form_value(form, v) == 1 for v in vectors)
    assert failing_facets(checks) == [c.facet for c in checks if not (c.unit and c.match)]


def test_facet_check_is_frozen(bridge2):
    check = facet_conditions(bridge2, facet_walk(bridge2))[0]
    with pytest.raises(AttributeError):
        check.unit = False


# ---------------------------------------------------------------------------
# the oracle verdict

def test_oracle_r1_exhibits(bridge2, bridge1):
    assert oracle_r1(bridge2) == (True, [])
    assert oracle_r1(bridge1) == (False, [RegularVertex(7)])
    assert oracle_r1(complete_graph(3)) == (True, [])


def test_oracle_r1_bridge_family():
    for k in range(1, 5):
        g = bridge_graph(k)
        assert oracle_r1(g) == satisfies_r1(g)


def test_oracle_matches_criterion_on_random_graphs():
    rng = random.Random(11)
    for _ in range(25):
        g = random_connected_nonbipartite(rng, 6, 0.4)
        assert oracle_r1(g) == satisfies_r1(g)


@given(connected_nonbipartite_graphs(max_d=5))
@settings(max_examples=25, deadline=None)
def test_oracle_matches_criterion_property(g):
    assert oracle_r1(g) == satisfies_r1(g)


# ---------------------------------------------------------------------------
# structural verifications

def test_verify_facet_rank(bridge2, bridge1):
    assert verify_facet_rank(complete_graph(3), check_for(complete_graph(3), Fundamental(vset([1]))))
    assert verify_facet_rank(bridge2, check_for(bridge2, RegularVertex(7)))
    assert verify_facet_rank(bridge2, check_for(bridge2, Fundamental(vset([3, 4]))))
    assert verify_facet_rank(bridge1, check_for(bridge1, RegularVertex(7)))


def test_verify_facet_rank_all_facets(bridge2):
    for g in (complete_graph(3), cycle_graph(5), bridge2):
        for c in facet_conditions(g, facet_walk(g)):
            assert verify_facet_rank(g, c)


@pytest.mark.parametrize("mask, message", [
    pytest.param(-2, r"negative vertex set -\d+ out of range 1\.\.4", id="negative-mask"),
    pytest.param(1 << 4, re.escape("vertex set [5] out of range 1..4"), id="vertex-d-plus-1"),
    pytest.param(1 << 5, re.escape("vertex set [6] out of range 1..4"), id="set-6"),
])
def test_facet_tests_reject_vertices_off_the_graph(mask, message):
    # V - (T | N) would drop a side vertex outside 1..d silently; the
    # connectivity test and the oracle's identity both put the sides through
    # the range check, as T or as N, and name the range 1..d
    g = complete_graph(4)
    check = check_for(g, RegularVertex(1))
    for sides in ((mask, 0), (0, mask)):
        with pytest.raises(ValueError, match=message):
            facet_connectivity_holds(g, *sides)
        with pytest.raises(ValueError, match=message):
            verify_decomposition(g, dataclasses.replace(check, sides=sides))


def test_verify_decomposition(bridge2):
    k3 = complete_graph(3)
    assert verify_decomposition(k3, check_for(k3, Fundamental(vset([1]))))
    assert verify_decomposition(bridge2, check_for(bridge2, Fundamental(vset([1]))))
    assert verify_decomposition(bridge2, check_for(bridge2, Fundamental(vset([3, 4]))))
    assert verify_decomposition(bridge2, check_for(bridge2, RegularVertex(7)))
    for c in facet_conditions(bridge2, facet_walk(bridge2)):
        assert verify_decomposition(bridge2, c)


def test_verify_checks_reject_wrong_records(bridge1):
    # the structural checks compare against what the record carries, so a
    # record with a foreign zero lattice or a negative value fails them
    check = check_for(bridge1, Fundamental(vset([1])))
    other = check_for(bridge1, Fundamental(vset([4])))
    assert verify_decomposition(bridge1, check)
    assert not verify_decomposition(bridge1, dataclasses.replace(check, zero=other.zero))
    negative = dataclasses.replace(check, values=(-1,) + check.values[1:])
    assert not verify_facet_rank(bridge1, negative)
    assert verify_facet_rank(bridge1, check)
    assert not verify_facet_rank(bridge1, dataclasses.replace(check, zero=IntegerLattice(7, [])))


def _unchecked_record(g, t, nb):
    # the record of sides (T, N), whether or not they are a facet's: -1 on T,
    # +1 on the rest of N, and the lattice of the zero-valued edge vectors
    coeffs = [-1 if t >> v & 1 else nb >> v & 1 for v in range(g.d)]
    values = tuple(coeffs[i - 1] + coeffs[j - 1] for i, j in g.edges)
    vectors = [edge_vector(e, g.d) for e in g.edges]
    zero = IntegerLattice(g.d, [vec for vec, v in zip(vectors, values) if v == 0])
    return FacetCheck(descriptor(t, nb), (t, nb), values, zero, 1 in values, False)


def _small_graphs():
    # the 553 connected nonbipartite labelled graphs with d <= 5
    for d in range(1, 6):
        for g in labelled_graphs(d):
            if is_connected(g) and not is_bipartite(g):
                yield g


def _vertex_set_records():
    # every nonempty vertex set T of every small graph, with the record T's
    # form would give.  This reaches disconnected T-to-N(T) parts, bipartite
    # rest components and non-independent masks, which no facet record does
    for g in _small_graphs():
        for t in range(1, 1 << g.d):
            yield g, t, _unchecked_record(g, t, neighborhood(g, t))


def test_verify_decomposition_holds_exactly_at_fundamental_sets():
    sets_seen = 0
    for g, t, check in _vertex_set_records():
        assert verify_decomposition(g, check) == brute_fundamental(g, frozenset(members(t)))
        sets_seen += 1
    assert sets_seen == 16815


def test_verify_decomposition_holds_exactly_at_regular_vertices():
    # at a vertex i the sides are (empty set, {i}) and D is the even-sum
    # lattice of each component of G - i, so regular or not, every vertex
    # record meets the identity exactly when the vertex is regular
    vertices_seen = 0
    for g in _small_graphs():
        for v in range(1, g.d + 1):
            check = _unchecked_record(g, 0, vset([v]))
            assert verify_decomposition(g, check) == brute_regular_vertex(g, v), (g, v)
            vertices_seen += 1
    assert vertices_seen == 2744


def test_verify_decomposition_equals_generator_reference():
    # the closed-form pivot data and edge containment against the lattice
    # equality they replace: the zero lattice against D built from generators
    for g, t, check in _vertex_set_records():
        independent = not t & check.sides[1]
        expected = independent and (
            canonical_basis(check.zero) == EagerLattice(g.d, decomposition_generators(g, t)).basis
        )
        assert verify_decomposition(g, check) == expected


def test_verify_decomposition_rejects_zero_values_outside_d(bridge2):
    # T = {1}: N(T) = {2, 3}, and (3, 7) runs from N(T) to the rest, outside D.
    # Marking its value zero while the zero lattice stays the facet's own leaves
    # the pivot data equal to D's, so only the edge containment rejects it
    check = check_for(bridge2, Fundamental(vset([1])))
    assert verify_decomposition(bridge2, check)
    k = bridge2.edges.index((3, 7))
    assert check.values[k] == 1
    marked = dataclasses.replace(check, values=check.values[:k] + (0,) + check.values[k + 1:])
    assert marked.zero.pivots == check.zero.pivots
    assert not verify_decomposition(bridge2, marked)


def _column_tuple_pivot_data(g, check, product):
    # the zero lattice's pivot data as condition 2 and verify_decomposition once
    # compared it: its pivots against the tuple of every column but P's last
    last = (check.sides[0] | check.sides[1]).bit_length() - 1
    pivots = check.zero.pivots == all_columns_but(g.d, last)
    return pivots and check.zero.pivot_product() == product


def test_pivot_tests_equal_the_column_tuple_reference():
    # condition 2 and verify_decomposition read "every column but P's last" from
    # the rank and one membership test.  Against the tuple comparison, on every
    # record of conn7_sample and on forged records with an empty P (column -1),
    # where the reference asks for all d columns: the facet's own zero lattice
    # has rank d - 1 and fails, the certified group has them and holds
    records = 0
    for g in parse_graph6((DATA_DIR / "conn7_sample.g6").read_text()):
        group = monoid_group(g)
        for check in facet_conditions(g, facet_walk(g)):
            part = check.sides[0] | check.sides[1]
            rest = connected_components(g, g.full ^ part)
            product = 2 if part != g.full else 1
            assert check.match == _column_tuple_pivot_data(g, check, product)
            # every zero-valued edge of a facet's record lies in D, so the pivot data decide
            decomposition = _column_tuple_pivot_data(g, check, 1 << len(rest))
            assert verify_decomposition(g, check) == decomposition
            empty = dataclasses.replace(check, sides=(0, 0))
            full = dataclasses.replace(empty, zero=group)
            assert not verify_decomposition(g, empty) and not _column_tuple_pivot_data(g, empty, 2)
            assert verify_decomposition(g, full) and _column_tuple_pivot_data(g, full, 2)
            records += 1
    assert records == 261


@given(connected_nonbipartite_graphs(max_d=5))
@settings(max_examples=20, deadline=None)
def test_structural_checks_hold_everywhere(g):
    assert verify_even_sum_basis(g)
    for c in facet_conditions(g, facet_walk(g)):
        assert verify_facet_rank(g, c)
        assert verify_decomposition(g, c)


# ---------------------------------------------------------------------------
# condition 2 by pivots and pivot product, against canonical equality

def _shortcut_targets(max_d=5):
    for d in range(1, max_d + 1):
        for g in labelled_graphs(d):
            if is_connected(g) and not is_bipartite(g):
                yield g
    yield from parse_graph6((DATA_DIR / "conn7.g6").read_text())


def test_lattice_match_equals_canonical_equality():
    # condition 2 against the reference's canonical bases of the zero lattice
    # and of the kernel in the edge-vector group
    facets_seen = 0
    for g in _shortcut_targets():
        vectors = [edge_vector(e, g.d) for e in g.edges]
        group = EagerLattice(g.d, vectors)
        walk = facet_walk(g)
        for check, (f, form) in zip(facet_conditions(g, walk), facet_forms(g, walk), strict=True):
            assert check.facet == f
            zero = EagerLattice(g.d, [v for v, x in zip(vectors, check.values) if x == 0])
            assert check.match == (zero.basis == group.kernel_of_form(form.coeffs).basis)
            facets_seen += 1
    assert facets_seen == 7586


def test_facet_rank_equals_diff_lattice_reference():
    # the rank of the record's zero lattice against the lattice of zero-set
    # differences, on the same 7 586 facets as above
    facets_seen = 0
    for g in _shortcut_targets():
        for check in facet_conditions(g, facet_walk(g)):
            assert verify_facet_rank(g, check) == diff_lattice_facet_rank(g, check)
            facets_seen += 1
    assert facets_seen == 7586


# ---------------------------------------------------------------------------
# condition 2 reads its form's kernel in closed form

def _with_hnf_kernels_as_zero(g, hnf):
    # facet_conditions with every zero lattice replaced by the HNF kernel
    # monoid_group(g).kernel_of_form(form.coeffs) of that facet's form, so that
    # condition 2 holds exactly when the closed-form kernel has the HNF's pivots
    # and pivot product.  hnf caches kernels by form: monoid_group certifies
    # each group as the even-sum lattice of its d, so the kernel depends on the
    # form alone
    kernels = []
    walk = facet_walk(g)
    for _, form in facet_forms(g, walk):
        if form.coeffs not in hnf:
            hnf[form.coeffs] = monoid_group(g).kernel_of_form(form.coeffs)
        kernels.append(hnf[form.coeffs])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("edgering.oracle.IntegerLattice", lambda dim, vectors, it=iter(kernels): next(it))
        return facet_conditions(g, walk)


def test_closed_form_kernel_exhibits(bridge2):
    # regular vertex 7 of bridge2: every column but 6, product 2
    kernel = monoid_group(bridge2).kernel_of_form(support_form(bridge2, RegularVertex(7)).coeffs)
    assert (kernel.pivots, kernel.pivot_product()) == ((0, 1, 2, 3, 4, 5, 7), 2)
    # T = {1} in bridge2: P = {1, 2, 3}, so every column but 2, product 2
    kernel = monoid_group(bridge2).kernel_of_form(support_form(bridge2, Fundamental(vset([1]))).coeffs)
    assert (kernel.pivots, kernel.pivot_product()) == ((0, 1, 3, 4, 5, 6, 7), 2)
    # T = {1} in a triangle leaves no rest (the halved form): every column but 2, product 1
    k3 = complete_graph(3)
    form = support_form(k3, Fundamental(vset([1])))
    kernel = monoid_group(k3).kernel_of_form(form.coeffs)
    assert form.denom == 2 and (kernel.pivots, kernel.pivot_product()) == ((0, 1), 1)
    for g in (bridge2, k3):
        assert all(c.match for c in _with_hnf_kernels_as_zero(g, {}))


def test_closed_form_kernels_equal_hnf_kernels():
    # every facet of every connected nonbipartite labelled graph with d <= 6 and of conn7
    hnf: dict = {}
    facets_seen = 0
    for g in _shortcut_targets(max_d=6):
        checks = _with_hnf_kernels_as_zero(g, hnf)
        assert all(c.match for c in checks)
        facets_seen += len(checks)
    assert facets_seen == 220492


@given(connected_nonbipartite_graphs(max_d=10))
@settings(max_examples=40, deadline=None)
def test_closed_form_kernels_equal_hnf_kernels_property(g):
    group = monoid_group(g)
    walk = facet_walk(g)
    for check, (_, form) in zip(facet_conditions(g, walk), facet_forms(g, walk), strict=True):
        kernel = group.kernel_of_form(form.coeffs)
        assert check.match == (canonical_basis(check.zero) == canonical_basis(kernel))
    assert all(c.match for c in _with_hnf_kernels_as_zero(g, {}))
