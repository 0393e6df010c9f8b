import gc
import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

from edgering import (
    Fundamental,
    Graph,
    RegularVertex,
    SupportForm,
    UnsupportedError,
    bridge_graph,
    complete_graph,
    cycle_graph,
    facet_forms,
    facets,
    is_bipartite,
    is_connected,
    iter_fundamental_sets,
    labelled_graphs,
    members,
    regular_vertices,
    support_form,
    vset,
)
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
)


# ---------------------------------------------------------------------------
# regular vertices

def test_regular_vertices_bridge2(bridge2):
    assert regular_vertices(bridge2) == [1, 2, 5, 6, 7, 8]


def test_regular_vertices_small():
    assert regular_vertices(complete_graph(3)) == []
    assert regular_vertices(cycle_graph(5)) == []
    assert regular_vertices(complete_graph(4)) == [1, 2, 3, 4]


def test_bridge1_vertex7_regular_but_not_fundamental(bridge1):
    # deleting 7 leaves the two triangles, so 7 is regular; but {7} spans a
    # bipartite piece whose leftover components are single edges, so it is
    # not fundamental
    assert 7 in regular_vertices(bridge1)
    with pytest.raises(ValueError, match="not a facet"):
        support_form(bridge1, Fundamental(vset([7])))


@given(connected_nonbipartite_graphs())
@settings(max_examples=40)
def test_regular_vertices_match_brute_force(g):
    assert regular_vertices(g) == [v for v in range(1, g.d + 1) if brute_regular_vertex(g, v)]


# ---------------------------------------------------------------------------
# fundamental sets

def test_fundamental_sets_bridge2(bridge2):
    got = [members(t) for t in iter_fundamental_sets(bridge2)]
    assert got == [
        (1,), (1, 5, 7, 8), (1, 6, 7, 8),
        (2,), (2, 5, 7, 8), (2, 6, 7, 8),
        (3,), (3, 4), (4,), (5,), (6,),
    ]


def test_fundamental_sets_small():
    assert [members(t) for t in iter_fundamental_sets(complete_graph(3))] == [
        (1,), (2,), (3,),
    ]
    assert [members(t) for t in iter_fundamental_sets(cycle_graph(5))] == [
        (1, 3), (1, 4), (2, 4), (2, 5), (3, 5),
    ]


def test_fundamental_enumeration_is_lexicographic(bridge2):
    got = [members(t) for t in iter_fundamental_sets(bridge2)]
    assert got == sorted(got)


def test_fundamental_sets_match_independent_set_scan_on_all_small_graphs():
    for d in range(1, 6):
        for g in labelled_graphs(d):
            if is_connected(g) and not is_bipartite(g):
                assert list(iter_fundamental_sets(g)) == independent_set_scan_fundamental_sets(g), g


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
    assert list(iter_fundamental_sets(g)) == independent_set_scan_fundamental_sets(g)


@pytest.mark.parametrize("k", range(1, 11))
def test_fundamental_sets_match_independent_set_scan_on_relabelled_bridges(k):
    # the middle vertices all share both path ends, so nearly every
    # independent set is connected through shared neighbours
    d = 6 + k
    image = random.Random(f"bridge-{k}").sample(range(1, d + 1), d)
    g = Graph(d, tuple((image[i - 1], image[j - 1]) for i, j in bridge_graph(k).edges))
    assert list(iter_fundamental_sets(g)) == independent_set_scan_fundamental_sets(g)


def esu_work(monkeypatch, g: Graph) -> tuple[int, int]:
    """(rest floods, search nodes) of one run of iter_fundamental_sets on g.

    Floods are counted at the enumeration's call of first_component, and
    nodes as the executions of its stack.pop() line, through a line tracer
    on the enumeration's own frames.
    """
    floods = count_rest_floods(monkeypatch)
    code = iter_fundamental_sets.__code__
    lines, first = inspect.getsourcelines(iter_fundamental_sets)
    pop_line = first + next(k for k, line in enumerate(lines) if "stack.pop()" in line)
    nodes = 0

    def local(frame, event, arg):
        nonlocal nodes
        if event == "line" and frame.f_lineno == pop_line:
            nodes += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        list(iter_fundamental_sets(g))
    finally:
        sys.settrace(previous)
    return len(floods), nodes


@pytest.mark.parametrize("k", range(6, 15))
def test_bridge_enumeration_floods_linearly_and_visits_every_node(monkeypatch, k):
    # the middle vertices of bridge_graph(k) give 9 * 2^k - 2 search nodes; the
    # bipartite rest piece a node hands to its children decides nearly all
    # of them, so the floods grow linearly.  A lost piece raises the flood
    # count, and a cut subtree lowers the node count
    floods, nodes = esu_work(monkeypatch, bridge_graph(k))
    assert floods == 13 * k + 3
    assert nodes == 9 * 2**k - 2 >= 2**k


def test_fundamental_enumeration_is_a_generator_function():
    # bench/tracer.py lists it in GENERATORS and times each resumption; an
    # eager function would move its time into the caller's span
    assert inspect.isgeneratorfunction(iter_fundamental_sets)


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
    assert [members(t) for t in iter_fundamental_sets(g)] == brute_fundamental_sets(g)


def test_fundamental_predicate_matches_brute_on_random_subsets():
    # support_form accepts a vertex set exactly when facets(g) lists it
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
    # only a descriptor that facets(g) lists has a form; a negative mask would
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
    fs = facets(bridge2)
    assert len(fs) == 17
    assert fs[:6] == [RegularVertex(v) for v in (1, 2, 5, 6, 7, 8)]
    assert Fundamental(vset([3, 4])) in fs
    # regular vertices by label, then fundamental sets in lexicographic order
    regular = [f for f in fs if isinstance(f, RegularVertex)]
    assert regular == sorted(regular, key=lambda f: f.vertex)
    assert fs == regular + sorted(set(fs) - set(regular), key=lambda f: f.vertices)


def test_facets_small():
    assert facets(complete_graph(3)) == [Fundamental(1 << (v - 1)) for v in (1, 2, 3)]
    assert len(facets(cycle_graph(5))) == 5
    assert len(facets(complete_graph(4))) == 8


def test_facets_rejects_disconnected_and_bipartite():
    from edgering import Graph

    with pytest.raises(ValueError, match="not connected"):
        facets(Graph(4, ((1, 2), (3, 4))))
    with pytest.raises(ValueError, match="bipartite"):
        facets(cycle_graph(4))


def test_facets_refuses_disconnected_and_bipartite_as_unsupported():
    from edgering import Graph, UnsupportedError

    with pytest.raises(UnsupportedError, match="not connected"):
        facets(Graph(4, ((1, 2), (3, 4))))
    with pytest.raises(UnsupportedError, match="bipartite"):
        facets(cycle_graph(4))


def test_fundamental_repr_shows_vertices():
    f = Fundamental(vset([7, 8]))
    assert repr(f) == "Fundamental({7, 8})"
    assert f.vertices == (7, 8)


@given(connected_nonbipartite_graphs(max_d=6))
@settings(max_examples=30)
def test_facet_forms_support_the_generators(g):
    # every supporting form is nonnegative on all edge vectors and vanishes
    # on at least one
    from edgering import edge_vector

    for f in facets(g):
        form = support_form(g, f)
        values = [form_value(form, edge_vector(e, g.d)) for e in g.edges]
        assert all(v >= 0 for v in values)
        assert any(v == 0 for v in values)
        assert any(v == 1 for v in values)


@given(connected_nonbipartite_graphs(max_d=6))
@settings(max_examples=30)
def test_facet_forms_pair_facets_with_validated_forms(g):
    pairs = facet_forms(g)
    assert [f for f, _ in pairs] == facets(g)
    assert all(form == support_form(g, f) for f, form in pairs)
    # sides(g) is (T, N): the vertices where the form is -1 and where it is +1
    for f, form in pairs:
        by_sign = [vset(i for i, c in enumerate(form.coeffs, 1) if c == s) for s in (-1, 1)]
        assert f.sides(g) == tuple(by_sign)


def test_facet_forms_rejects_like_facets():
    with pytest.raises(ValueError, match="bipartite"):
        facet_forms(cycle_graph(4))
