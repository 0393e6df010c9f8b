import gc
import inspect
import random
import sys
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgering.facets
from conftest import DATA_DIR
from edgering import (
    Fundamental,
    Graph,
    RegularVertex,
    SupportForm,
    UnsupportedError,
    bridge_graph,
    complete_graph,
    connected_within,
    cycle_graph,
    descriptor,
    facet_conditions,
    facet_forms,
    facet_walk,
    is_bipartite,
    is_connected,
    iter_fundamental_sets,
    labelled_graphs,
    members,
    neighborhood,
    parse_graph6,
    r1_violations,
    regular_vertices,
    satisfies_r1,
    support_form,
    vset,
)
from edgering.facets import R1_REST_FLOOR
from helpers import (
    brute_fundamental,
    brute_fundamental_sets,
    brute_regular_vertex,
    connected_nonbipartite_graphs,
    count_rest_floods,
    form_value,
    independent_set_scan_fundamental_sets,
    random_connected_nonbipartite,
    random_graph,
    reference_fundamental_search,
    search_nodes,
    sparse_random_graphs,
)


def descriptors(g: Graph) -> list:
    """The facet descriptors of g, in walk order."""
    return [descriptor(t, nb) for t, nb, _ in facet_walk(g)]


# ---------------------------------------------------------------------------
# regular vertices

def regular_labels(g: Graph) -> list[int]:
    # each item is (empty set, {v}, connected); the label v of each
    out = []
    for t, nb, _ in regular_vertices(g):
        assert t == 0 and len(members(nb)) == 1, (g, t, nb)
        out += members(nb)
    return out


def test_regular_vertices_bridge2(bridge2):
    assert regular_labels(bridge2) == [1, 2, 5, 6, 7, 8]


def test_regular_vertices_small():
    assert regular_labels(complete_graph(3)) == []
    assert regular_labels(cycle_graph(5)) == []
    assert regular_labels(complete_graph(4)) == [1, 2, 3, 4]
    assert regular_vertices(complete_graph(4)) == [(0, 1 << i, True) for i in range(4)]


def test_bridge1_vertex7_regular_but_not_fundamental(bridge1):
    # deleting 7 leaves the two triangles, so 7 is regular; but {7} spans a
    # bipartite piece whose leftover components are single edges, so it is
    # not fundamental
    assert 7 in regular_labels(bridge1)
    with pytest.raises(ValueError, match="not a facet"):
        support_form(bridge1, Fundamental(vset([7])))


@given(connected_nonbipartite_graphs())
@settings(max_examples=40)
def test_regular_vertices_match_brute_force(g):
    assert regular_labels(g) == [v for v in range(1, g.d + 1) if brute_regular_vertex(g, v)]


def regular_vertex_flag_graphs():
    # the 553 connected nonbipartite labelled graphs with d <= 5 and seeded
    # G(d, p) draws for d = 8..16.  None of them has a regular cut vertex, so
    # bridge_graph(1) adds one: deleting its vertex 7 leaves two triangles
    for d in range(1, 6):
        for g in labelled_graphs(d):
            if is_connected(g) and not is_bipartite(g):
                yield g
    for d in range(8, 17):
        for p in (0.2, 0.35):
            yield random_connected_nonbipartite(random.Random(f"regular-{d}-{p}"), d, p)
    yield bridge_graph(1)


def test_regular_vertex_flags_match_connected_within():
    # the flag comes from the flood that found v regular; connected_within
    # floods g - v again on its own
    flags = set()
    for g in regular_vertex_flag_graphs():
        for t, nb, connected in regular_vertices(g):
            assert connected == connected_within(g, g.full ^ nb), (g, members(nb))
            flags.add(connected)
    assert flags == {True, False}


def test_descriptor_names_the_walks_pairs(bridge2):
    assert descriptor(0, vset([7])) == RegularVertex(7)
    assert descriptor(vset([3, 4]), vset([2, 5])) == Fundamental(vset([3, 4]))
    pairs = [(t, nb) for t, nb, _ in regular_vertices(bridge2)]
    pairs += [(t, nb) for t, nb, _ in iter_fundamental_sets(bridge2)]
    assert [descriptor(t, nb) for t, nb in pairs] == descriptors(bridge2)
    assert [c.sides for c in facet_conditions(bridge2, facet_walk(bridge2))] == pairs


def test_records_carry_their_facets_sides():
    # the oracle's records take (T, N) from the walk; a fundamental set
    # T has sides (T, N(T)) and a regular vertex i has (empty set, {i}), and
    # the sides name the record's facet again
    kinds = set()
    for g in regular_vertex_flag_graphs():
        for c in facet_conditions(g, facet_walk(g)):
            if isinstance(c.facet, Fundamental):
                assert c.sides == (c.facet.mask, neighborhood(g, c.facet.mask)), (g, c.facet)
            else:
                assert c.sides == (0, vset([c.facet.vertex])), (g, c.facet)
            assert descriptor(*c.sides) == c.facet
            kinds.add(type(c.facet))
    assert kinds == {RegularVertex, Fundamental}


# ---------------------------------------------------------------------------
# fundamental sets

def fundamental_sets(g: Graph) -> list[int]:
    return [t for t, _, _ in iter_fundamental_sets(g)]


def carried_fundamental_sets(g: Graph) -> list[int]:
    # the enumeration's sets, each checked against the N(T) and the rest
    # connectivity that it carries, both recomputed by their own functions
    out = []
    for t, nb, connected in iter_fundamental_sets(g):
        assert nb == neighborhood(g, t), (g, members(t))
        assert connected == connected_within(g, g.full & ~(t | nb)), (g, members(t))
        out.append(t)
    return out


def test_fundamental_sets_bridge2(bridge2):
    got = [members(t) for t in fundamental_sets(bridge2)]
    assert got == [
        (1,), (1, 5, 7, 8), (1, 6, 7, 8),
        (2,), (2, 5, 7, 8), (2, 6, 7, 8),
        (3,), (3, 4), (4,), (5,), (6,),
    ]


def test_fundamental_sets_small():
    assert [members(t) for t in fundamental_sets(complete_graph(3))] == [
        (1,), (2,), (3,),
    ]
    assert [members(t) for t in fundamental_sets(cycle_graph(5))] == [
        (1, 3), (1, 4), (2, 4), (2, 5), (3, 5),
    ]


def test_fundamental_enumeration_is_lexicographic(bridge2):
    got = [members(t) for t in fundamental_sets(bridge2)]
    assert got == sorted(got)


def test_fundamental_sets_match_independent_set_scan_on_all_small_graphs():
    for d in range(1, 6):
        for g in labelled_graphs(d):
            if is_connected(g) and not is_bipartite(g):
                assert fundamental_sets(g) == independent_set_scan_fundamental_sets(g), g


# G(d, p) rows, plus sparse connected nonbipartite rows: their rests split
# into the most bipartite pieces, which the enumeration hands down its search
GNP_ROWS = [
    pytest.param(d, p, random_graph, id=f"{d}-{p}")
    for d in range(8, 17)
    for p in (0.2, 0.3, 0.5, 0.8)
] + [pytest.param(d, 0.15, random_connected_nonbipartite, id=f"{d}-0.15") for d in range(17, 23)]


@pytest.mark.parametrize("d, p, draw", GNP_ROWS)
def test_fundamental_sets_match_independent_set_scan_on_random_graphs(d, p, draw):
    rng = random.Random(f"gnp-{d}-{p}")
    g = draw(rng, d, p)
    assert carried_fundamental_sets(g) == independent_set_scan_fundamental_sets(g)


@pytest.mark.parametrize("k", range(1, 11))
def test_fundamental_sets_match_independent_set_scan_on_relabelled_bridges(k):
    # the middle vertices all share both path ends, so nearly every
    # independent set is connected through shared neighbours
    d = 6 + k
    image = random.Random(f"bridge-{k}").sample(range(1, d + 1), d)
    g = Graph(d, tuple((image[i - 1], image[j - 1]) for i, j in bridge_graph(k).edges))
    assert carried_fundamental_sets(g) == independent_set_scan_fundamental_sets(g)


def esu_work(monkeypatch, g: Graph, r1_search: bool = False) -> tuple[int, int]:
    """(rest floods, search nodes) of one run of iter_fundamental_sets(g, r1_search).

    Floods are counted at the enumeration's call of first_component, and
    nodes as the executions of its stack.pop() line, through a line tracer
    on the enumeration's own frames.
    """
    floods = count_rest_floods(monkeypatch)
    code = iter_fundamental_sets.__code__
    lines, first = inspect.getsourcelines(iter_fundamental_sets)
    pop_line = next((first + k for k, line in enumerate(lines) if "stack.pop()" in line), None)
    assert pop_line is not None, "iter_fundamental_sets has no stack.pop() line to count nodes on"
    nodes = 0

    def local(frame, event, arg):
        nonlocal nodes
        if event == "line" and frame.f_lineno == pop_line:
            nodes += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        list(iter_fundamental_sets(g, r1_search))
    finally:
        sys.settrace(previous)
    return len(floods), nodes


@pytest.mark.parametrize("k", range(6, 15))
def test_bridge_enumeration_floods_linearly_and_visits_every_node(monkeypatch, k):
    # the middle vertices of bridge_graph(k) give 9 * 2^k - 2 nodes of the
    # reference search, of which 9 * 2^(k-1) - 13 are dead and never pushed;
    # the bipartite rest piece a node hands to its children decides nearly all
    # of the others, so the floods grow linearly.  A lost piece raises the
    # flood count, and a cut subtree lowers the node count
    g = bridge_graph(k)
    floods, pops = esu_work(monkeypatch, g)
    _, nodes = reference_fundamental_search(g)
    assert len(nodes) == 9 * 2**k - 2
    assert floods == 13 * k + 3
    assert pops == sum(not dead for _, dead in nodes) == 9 * 2 ** (k - 1) + 11 >= 2**k


@given(connected_nonbipartite_graphs(max_d=12), st.booleans())
@settings(max_examples=60, deadline=None)
def test_the_search_pops_the_reference_nodes_that_are_not_dead(g, r1_search):
    # a dead child is neither fundamental nor a parent, so leaving it off the
    # stack changes no item and drops exactly that one node; the (R1) search
    # pops the floored reference's nodes and keeps its failing items
    items, nodes = reference_fundamental_search(g, R1_REST_FLOOR if r1_search else 0)
    with pytest.MonkeyPatch.context() as mp:
        pops = esu_work(mp, g, r1_search)[1]
    if r1_search:
        items = [f for f in items if not f[2]]
    assert list(iter_fundamental_sets(g, r1_search)) == items
    assert pops == sum(not dead for _, dead in nodes)


def test_fundamental_enumeration_is_a_generator_function():
    # bench/tracer.py lists it in GENERATORS and times each resumption; an
    # eager function would move its time into the caller's span
    assert inspect.isgeneratorfunction(iter_fundamental_sets)


def test_regular_vertices_return_a_list(bridge2):
    # bench/tracer.py times regular_vertices with a plain span, which covers
    # a generator's creation but none of its work
    assert not inspect.isgeneratorfunction(regular_vertices)
    assert isinstance(regular_vertices(bridge2), list)


def test_fundamental_enumeration_leaves_no_cyclic_garbage():
    g = bridge_graph(6)
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            list(iter_fundamental_sets(g))
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(connected_nonbipartite_graphs(max_d=6))
@settings(max_examples=30)
def test_fundamental_sets_match_brute_force(g):
    assert [members(t) for t in fundamental_sets(g)] == brute_fundamental_sets(g)


def test_fundamental_predicate_matches_brute_on_random_subsets():
    # support_form accepts a vertex set exactly when the facet walk lists it
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected_nonbipartite(rng, 7, 0.35)
        for _ in range(20):
            t = vset(rng.sample(range(1, 8), rng.randint(1, 4)))
            if brute_fundamental(g, frozenset(members(t))):
                support_form(g, Fundamental(t))
            else:
                with pytest.raises(ValueError, match="not a facet"):
                    support_form(g, Fundamental(t))


# ---------------------------------------------------------------------------
# support forms

def test_support_form_regular_vertex(bridge2):
    form = support_form(bridge2, RegularVertex(7))
    assert form.coeffs == (0, 0, 0, 0, 0, 0, 1, 0)
    assert form.denom == 1
    assert form_value(form, (1, 1, 0, 0, 0, 0, 0, 0)) == 0
    assert form_value(form, (0, 0, 1, 0, 0, 0, 1, 0)) == 1


def test_support_form_fundamental_exhausting():
    form = support_form(complete_graph(3), Fundamental(vset([1])))
    assert form.coeffs == (-1, 1, 1)
    assert form.denom == 2
    assert form_value(form, (0, 1, 1)) == 1
    assert form_value(form, (1, 1, 0)) == 0


def test_support_form_fundamental_not_exhausting(bridge2):
    form = support_form(bridge2, Fundamental(vset([1])))
    assert form.coeffs == (-1, 1, 1, 0, 0, 0, 0, 0)
    assert form.denom == 1
    assert form_value(form, (0, 0, 1, 0, 0, 0, 1, 0)) == 1


def test_is_fundamental_rejects_bad_sets(bridge2):
    # the empty set and a set reaching past vertex d are never facets
    for t in (0, 1 << 8):
        with pytest.raises(ValueError, match="not a facet"):
            support_form(bridge2, Fundamental(t))


def test_support_form_validates(bridge2):
    # only a descriptor that the facet walk lists has a form; a negative mask would
    # loop forever in the error message's repr if members accepted it
    for f in (
        RegularVertex(3),
        Fundamental(vset([7, 8])),
        "vertex 7",
    ):
        with pytest.raises(ValueError, match="not a facet"):
            support_form(bridge2, f)
    with pytest.raises(ValueError, match="negative"):
        support_form(bridge2, Fundamental(-1))


def test_support_form_refuses_bipartite_and_disconnected_graphs():
    with pytest.raises(UnsupportedError, match="bipartite"):
        support_form(cycle_graph(4), Fundamental(vset([1])))
    with pytest.raises(UnsupportedError, match="not connected"):
        support_form(Graph(4, ((1, 2), (3, 4))), RegularVertex(1))


def test_support_form_type_invariants():
    with pytest.raises(ValueError, match="denominator"):
        SupportForm((1, 0), 3)
    with pytest.raises(ValueError, match="zero form"):
        SupportForm((0, 0), 1)
    assert form_value(SupportForm((1, -1), 2), (1, 0)) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# the facet list

def test_facets_bridge2(bridge2):
    fs = descriptors(bridge2)
    assert len(fs) == 17
    assert fs[:6] == [RegularVertex(v) for v in (1, 2, 5, 6, 7, 8)]
    assert Fundamental(vset([3, 4])) in fs
    # regular vertices by label, then fundamental sets in lexicographic order
    regular = [f for f in fs if isinstance(f, RegularVertex)]
    assert regular == sorted(regular, key=lambda f: f.vertex)
    assert fs == regular + sorted(set(fs) - set(regular), key=lambda f: f.vertices)


def test_facets_small():
    assert descriptors(complete_graph(3)) == [Fundamental(1 << (v - 1)) for v in (1, 2, 3)]
    assert len(facet_walk(cycle_graph(5))) == 5
    assert len(facet_walk(complete_graph(4))) == 8


def test_facets_rejects_disconnected_and_bipartite():
    from edgering import Graph

    with pytest.raises(ValueError, match="not connected"):
        facet_walk(Graph(4, ((1, 2), (3, 4))))
    with pytest.raises(ValueError, match="bipartite"):
        facet_walk(cycle_graph(4))


def test_facets_refuses_disconnected_and_bipartite_as_unsupported():
    from edgering import Graph, UnsupportedError

    with pytest.raises(UnsupportedError, match="not connected"):
        facet_walk(Graph(4, ((1, 2), (3, 4))))
    with pytest.raises(UnsupportedError, match="bipartite"):
        facet_walk(cycle_graph(4))


def test_fundamental_repr_shows_vertices():
    f = Fundamental(vset([7, 8]))
    assert repr(f) == "Fundamental({7, 8})"
    assert f.vertices == (7, 8)


@given(connected_nonbipartite_graphs(max_d=6))
@settings(max_examples=30)
def test_facet_forms_support_the_generators(g):
    # every supporting form is nonnegative on all edge vectors and vanishes
    # on at least one
    from helpers import edge_vector

    for f in descriptors(g):
        form = support_form(g, f)
        values = [form_value(form, edge_vector(e, g.d)) for e in g.edges]
        assert all(v >= 0 for v in values)
        assert any(v == 0 for v in values)
        assert any(v == 1 for v in values)


@given(connected_nonbipartite_graphs(max_d=6))
@settings(max_examples=30)
def test_facet_forms_pair_facets_with_validated_forms(g):
    walk = facet_walk(g)
    pairs = facet_forms(g, walk)
    assert [f for f, _ in pairs] == descriptors(g)
    assert all(form == support_form(g, f) for f, form in pairs)
    # each record's sides are the walk's (T, N): where its form is -1 and +1
    for check, (f, form) in zip(facet_conditions(g, walk), pairs, strict=True):
        by_sign = [vset(i for i, c in enumerate(form.coeffs, 1) if c == s) for s in (-1, 1)]
        assert (check.facet, check.sides) == (f, tuple(by_sign))


def test_facet_forms_rejects_like_facets():
    # facet_forms reads any walk; the walk refuses the graphs that have no facet list
    assert facet_forms(cycle_graph(4), []) == []
    with pytest.raises(ValueError, match="bipartite"):
        facet_forms(cycle_graph(4), facet_walk(cycle_graph(4)))


@pytest.mark.parametrize("g", [
    pytest.param(bridge_graph(6), id="bridge-6"),
    pytest.param(cycle_graph(7), id="cycle-7"),
    pytest.param(random_connected_nonbipartite(random.Random("forms-14"), 14, 0.3), id="gnp-14"),
])
def test_facet_forms_take_n_of_t_from_the_walk(monkeypatch, g):
    # facets.py computes neighborhoods once per vertex, for the search's
    # shared-neighbour table; each form reads its N off the walk's pair
    calls: list[int] = []
    original = edgering.facets.neighborhood

    def counted(g, t):
        calls.append(t)
        return original(g, t)

    monkeypatch.setattr(edgering.facets, "neighborhood", counted)
    forms = facet_forms(g, facet_walk(g))
    assert len(calls) == g.d
    assert any(isinstance(f, Fundamental) for f, _ in forms)


# ---------------------------------------------------------------------------
# one walk, one (R1) rule

def walk_targets():
    # every connected nonbipartite labelled graph with d <= 5, conn7, and the
    # gnp goldens, one of which has a failing fundamental set
    for d in range(1, 6):
        for g in labelled_graphs(d):
            if is_connected(g) and not is_bipartite(g):
                yield g
    for name in ("conn7.g6", "gnp_d18_20_22.g6"):
        yield from parse_graph6((DATA_DIR / name).read_text())


def test_the_package_attribute_facets_is_the_module():
    assert edgering.facets is sys.modules["edgering.facets"]


def test_facet_walk_is_both_walks_in_order():
    graphs = 0
    for g in walk_targets():
        assert facet_walk(g) == list(chain(regular_vertices(g), iter_fundamental_sets(g))), g
        graphs += 1
    assert graphs == 553 + 350 + 3


def test_satisfies_r1_reads_the_walks_violations():
    kinds = set()
    for g in walk_targets():
        violations = list(r1_violations(facet_walk(g)))
        assert satisfies_r1(g) == (not violations, violations), g
        assert satisfies_r1(g, early_exit=True)[1] == violations[:1], g
        kinds |= {type(f) for f in violations}
    assert kinds == {RegularVertex, Fundamental}


# ---------------------------------------------------------------------------
# the (R1) search and its rest floor

def rest_size(g: Graph, t: int, nb: int) -> int:
    return (g.full & ~(t | nb)).bit_count()


def floor_targets():
    # walk_targets, the bridge goldens, bridge_graph(1..10), sparse G(d, 0.15)
    # and two dense G(d, 0.3) draws for each d = 16..20, where the floor drops
    # most children of a node
    yield from walk_targets()
    yield from parse_graph6((DATA_DIR / "bridge_k7_10.g6").read_text())
    yield from (bridge_graph(k) for k in range(1, 11))
    yield from sparse_random_graphs()
    for d in range(16, 21):
        for i in range(2):
            yield random_connected_nonbipartite(random.Random(f"dense-{d}-{i}"), d, 0.3)


def test_the_floor_lists_the_full_walks_sets_with_large_rests():
    # the (R1) search yields the full walk's items whose rest has at least 6
    # vertices and is disconnected, item for item and in order; the floored
    # reference lists every large rest, and the failing ones are among them
    failing = large_passing = small = 0
    for g in floor_targets():
        full = list(iter_fundamental_sets(g))
        large = [f for f in full if rest_size(g, f[0], f[1]) >= 6]
        assert list(iter_fundamental_sets(g, True)) == [f for f in large if not f[2]], g
        assert [f for f in full if not f[2]] == [f for f in large if not f[2]], g
        assert reference_fundamental_search(g)[0] == full, g
        assert reference_fundamental_search(g, 6)[0] == large, g
        failing += sum(not f[2] for f in large)
        large_passing += sum(f[2] for f in large)
        small += len(full) - len(large)
    assert failing and large_passing and small


def test_no_fundamental_set_fails_below_eight_vertices():
    # T and N(T) are nonempty, so a rest has at most d - 2 <= 5 vertices when
    # d <= 7, and a failing rest needs two components with an odd cycle each
    graphs = 0
    for g in walk_targets():
        if g.d <= 7:
            assert list(iter_fundamental_sets(g, True)) == [], g
            assert all(connected for _, _, connected in iter_fundamental_sets(g)), g
            graphs += 1
    assert graphs == 553 + 350


@given(connected_nonbipartite_graphs(min_d=6, max_d=12))
@settings(max_examples=40, deadline=None)
def test_the_floor_filters_the_full_walk_in_order(g):
    failing = [f for f in iter_fundamental_sets(g) if not f[2]]
    assert all(rest_size(g, t, nb) >= R1_REST_FLOOR for t, nb, _ in failing)
    assert list(iter_fundamental_sets(g, True)) == failing


# pops of iter_fundamental_sets(bridge_graph(k), True), read off the floored reference search
FLOORED_POPS = {6: 99, 7: 263, 8: 643, 9: 1507, 10: 3403}


@pytest.mark.parametrize("k", range(6, 11))
def test_the_floor_skips_whole_subtrees(monkeypatch, k):
    # a child below the floor is never pushed, and rests shrink down the
    # search, so the floored reference search pops exactly the unfloored
    # search's nodes whose rest reaches the floor, and the search those that
    # are not dead; a floor that filtered the output alone would pop all
    # 9 * 2^(k-1) + 11 live nodes
    g = bridge_graph(k)
    nodes = sorted(search_nodes(g))
    assert sorted(t for t, _ in reference_fundamental_search(g)[1]) == nodes
    _, floored = reference_fundamental_search(g, 6)
    reached = [t for t in nodes if rest_size(g, t, neighborhood(g, t)) >= 6]
    assert sorted(t for t, _ in floored) == reached
    pops = esu_work(monkeypatch, g, True)[1]
    assert pops == sum(not dead for _, dead in floored) == FLOORED_POPS[k] < 9 * 2 ** (k - 1) + 11
