import dataclasses
import random

import pytest
from hypothesis import given, settings

from edgering import (
    FacetCheck,
    facet_forms,
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
    edge_vector,
    facet_conditions,
    facets,
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
    brute_fundamental,
    connected_nonbipartite_graphs,
    EagerLattice,
    diff_lattice_facet_rank,
    even_sum_generators,
    form_value,
    random_connected_nonbipartite,
)


def check_for(g, f) -> FacetCheck:
    """The facet_conditions record of one facet."""
    (check,) = [c for c in facet_conditions(g) if c.facet == f]
    return check


# ---------------------------------------------------------------------------
# edge vectors and the monoid group

def test_edge_vector():
    assert edge_vector((1, 3), 4) == (1, 0, 1, 0)
    assert edge_vector((2, 1), 2) == (1, 1)
    with pytest.raises(ValueError, match="loop"):
        edge_vector((2, 2), 3)
    with pytest.raises(ValueError, match="out of range"):
        edge_vector((1, 5), 4)


def test_monoid_group_is_even_sum(bridge2):
    for g in (complete_graph(3), cycle_graph(5), bridge2, bridge_graph(1)):
        lat = monoid_group(g)
        assert lat == IntegerLattice(g.d, even_sum_generators(g.d))
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
    facet_lattice = IntegerLattice(7, zero)
    assert check_for(bridge1, RegularVertex(7)).zero == facet_lattice
    kernel = monoid_group(bridge1).kernel_of_form(form.coeffs)
    witness = (1, 1, 1, 1, 1, 1, 0)
    with_witness = IntegerLattice(7, [*zero, witness])
    assert with_witness == kernel  # so the witness lies in the kernel
    assert with_witness != facet_lattice  # but not in the facet lattice


def test_facet_conditions_bridge2(bridge2):
    checks = facet_conditions(bridge2)
    assert len(checks) == 17
    assert [c.facet for c in checks] == facets(bridge2)
    assert all(c.unit and c.match for c in checks)
    assert failing_facets(checks) == []


def test_facet_conditions_bridge1(bridge1):
    checks = facet_conditions(bridge1)
    assert failing_facets(checks) == [RegularVertex(7)]
    by_facet = {c.facet: (c.unit, c.match) for c in checks}
    assert by_facet[RegularVertex(7)] == (True, False)


@given(connected_nonbipartite_graphs(max_d=5))
@settings(max_examples=25, deadline=None)
def test_facet_check_records_match_their_forms(g):
    # values are denom * form on each edge vector, zero is the lattice of the
    # zero-valued edge vectors, and unit is condition 1, each recomputed here
    # from the validated support_form
    checks = facet_conditions(g)
    assert [c.facet for c in checks] == facets(g)
    for c in checks:
        form = support_form(g, c.facet)
        vectors = [edge_vector(e, g.d) for e in g.edges]
        assert c.values == tuple(int(form_value(form, v) * form.denom) for v in vectors)
        assert c.zero == IntegerLattice(g.d, [v for v in vectors if form_value(form, v) == 0])
        assert c.unit == any(form_value(form, v) == 1 for v in vectors)
    assert failing_facets(checks) == [c.facet for c in checks if not (c.unit and c.match)]


def test_facet_check_is_frozen(bridge2):
    check = facet_conditions(bridge2)[0]
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
        for c in facet_conditions(g):
            assert verify_facet_rank(g, c)


def test_verify_decomposition(bridge2):
    k3 = complete_graph(3)
    assert verify_decomposition(k3, check_for(k3, Fundamental(vset([1]))))
    assert verify_decomposition(bridge2, check_for(bridge2, Fundamental(vset([1]))))
    assert verify_decomposition(bridge2, check_for(bridge2, Fundamental(vset([3, 4]))))
    for c in facet_conditions(bridge2):
        if isinstance(c.facet, Fundamental):
            assert verify_decomposition(bridge2, c)


def test_verify_decomposition_rejects_non_fundamental(bridge2):
    with pytest.raises(ValueError, match="fundamental"):
        verify_decomposition(bridge2, check_for(bridge2, RegularVertex(7)))


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


def test_verify_decomposition_holds_exactly_at_fundamental_sets():
    # every nonempty vertex set T, with the record T's form would give: -1 on
    # T, +1 on the rest of N(T), and the lattice of the zero-valued edge vectors.
    # This reaches disconnected T-to-N(T) parts, bipartite rest components
    # and non-independent masks, which no facet record does
    sets_seen = 0
    for d in range(1, 6):
        for g in labelled_graphs(d):
            if not is_connected(g) or is_bipartite(g):
                continue
            vectors = [edge_vector(e, d) for e in g.edges]
            for t in range(1, 1 << d):
                nb = neighborhood(g, t)
                coeffs = [-1 if t >> v & 1 else nb >> v & 1 for v in range(d)]
                values = tuple(coeffs[i - 1] + coeffs[j - 1] for i, j in g.edges)
                zero = IntegerLattice(d, [vec for vec, v in zip(vectors, values) if v == 0])
                check = FacetCheck(Fundamental(t), values, zero, 1 in values, False)
                assert verify_decomposition(g, check) == brute_fundamental(g, frozenset(members(t)))
                sets_seen += 1
    assert sets_seen == 16815


@given(connected_nonbipartite_graphs(max_d=5))
@settings(max_examples=20, deadline=None)
def test_structural_checks_hold_everywhere(g):
    assert verify_even_sum_basis(g)
    for c in facet_conditions(g):
        assert verify_facet_rank(g, c)
        if isinstance(c.facet, Fundamental):
            assert verify_decomposition(g, c)


# ---------------------------------------------------------------------------
# condition 2 by pivots and pivot product, against canonical equality

def _shortcut_targets():
    for d in range(1, 6):
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
        for check, (f, form) in zip(facet_conditions(g), facet_forms(g), strict=True):
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
        for check in facet_conditions(g):
            assert verify_facet_rank(g, check) == diff_lattice_facet_rank(g, check)
            facets_seen += 1
    assert facets_seen == 7586

