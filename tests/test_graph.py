import itertools
import random
import re
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgering import (
    Fundamental,
    Graph,
    ParseError,
    UnsupportedError,
    bridge_graph,
    chordless_odd_cycles,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    connected_within,
    cycle_graph,
    first_component,
    generate_family,
    is_bipartite,
    is_connected,
    iter_chordless_odd_cycles,
    labelled_graphs,
    members,
    neighborhood,
    odd_spanning_edges,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
    serialize_graph6,
    vset,
)
from edgering.graph import require_connected
from helpers import (
    brute_chordless_odd_cycles,
    graphs,
    nx_graph,
    random_graph,
    subset_scan_chordless_odd_cycles,
)

from conftest import BRIDGE2_EDGES


# ---------------------------------------------------------------------------
# bitmask helpers

def test_vset_members_roundtrip():
    assert vset([3, 1, 8]) == 0b10000101
    assert members(0b10000101) == (1, 3, 8)
    assert members(0) == ()
    assert vset([]) == 0


# the public functions that take a vertex set of a graph and check it
SET_ARGUMENT_CALLS = {
    "neighborhood": neighborhood,
    "connected-within": connected_within,
    "connected-components": connected_components,
    "chordless-odd-cycles-within": lambda g, s: list(iter_chordless_odd_cycles(g, s)),
}


@pytest.mark.parametrize(
    "call, pattern",
    [
        pytest.param(lambda: members(-1), "negative vertex set", id="members"),
        pytest.param(lambda: repr(Fundamental(-1)), "negative vertex set", id="fundamental-repr"),
        pytest.param(lambda: vset([2, 0]), "vertex label 0 below 1", id="vset-label-0"),
        pytest.param(lambda: vset([True]), "vertex label True is not a positive integer", id="vset-bool"),
        pytest.param(lambda: vset([1.0]), "vertex label 1.0 is not a positive integer", id="vset-float"),
        pytest.param(lambda: vset([65]), re.escape("vertex label 65 out of range 1..64"), id="vset-65"),
        pytest.param(lambda: vset([10**8]), "vertex label 100000000 out of range", id="vset-huge"),
        *(
            pytest.param(lambda f=f: f(complete_graph(3), -1), "negative vertex set", id=name)
            for name, f in SET_ARGUMENT_CALLS.items()
        ),
        *(
            pytest.param(
                lambda f=f: f(complete_graph(3), 1 << 3),
                re.escape("vertex set [4] out of range 1..3"),
                id=f"{name}-past-d",
            )
            for name, f in SET_ARGUMENT_CALLS.items()
        ),
    ],
)
def test_negative_vertex_set_raises(call, pattern):
    # a negative mask has infinitely many set bits, so reading off its
    # members would never end; a bit past vertex d names no vertex of the graph;
    # vset refuses a label that is not a plain int in 1..64 before shifting it
    with pytest.raises(ValueError, match=pattern):
        call()


# ---------------------------------------------------------------------------
# Graph construction

def test_graph_normalizes_edges():
    g = Graph(3, ((3, 1), (2, 1)))
    assert g.edges == ((1, 2), (1, 3))
    assert g.n == 2
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(2, 3)
    assert g.adj[0] == vset([2, 3])


def test_graph_equality_ignores_edge_order():
    assert Graph(3, ((1, 2), (2, 3))) == Graph(3, ((3, 2), (2, 1)))


def test_graph_rejects_loops():
    with pytest.raises(ValueError, match="loop"):
        Graph(3, ((1, 1),))


def test_graph_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, ((1, 2), (2, 1)))


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, ((1, 4),))
    # a bool is an int that serialize_edge_list writes as True; a float never is a label
    for edges in (((True, 2), (2, 3)), ((1, 2.0),)):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, edges)


@pytest.mark.parametrize("edge", [(2, 2), (0, 1), (1, 4)], ids=["loop", "end-0", "end-d-plus-1"])
def test_edge_rule_gives_one_message(edge):
    # Graph and the edge-list parser share one edge check
    with pytest.raises(ValueError) as graph_error:
        Graph(3, (edge,))
    with pytest.raises(ParseError) as parse_error:
        parse_edge_list("3 1\n%d %d\n" % edge)
    assert str(parse_error.value) == f"line 2: {graph_error.value}"


def test_graph_rejects_bad_vertex_count():
    with pytest.raises(ValueError):
        Graph(0, ())
    for d in (True, 3.0):  # a bool is an int, but no vertex count
        with pytest.raises(ValueError, match="positive integer"):
            Graph(d, ())
    with pytest.raises(UnsupportedError):
        Graph(65, ())


# ---------------------------------------------------------------------------
# edge-list format

def test_parse_edge_list_bridge2(bridge2):
    text = "8 10\n" + "\n".join(f"{i} {j}" for i, j in BRIDGE2_EDGES) + "\n"
    assert parse_edge_list(text) == bridge2


def test_parse_edge_list_roundtrip(bridge2):
    assert parse_edge_list(serialize_edge_list(bridge2)) == bridge2


@pytest.mark.parametrize(
    "text,pattern",
    [
        ("", "empty input"),
        ("3\n", "header"),
        ("a b\n", "two integers"),
        ("3 1\n1 1\n", "loop"),
        ("3 2\n1 2\n2 1\n", "duplicate"),
        ("3 1\n1 4\n", "out of range"),
        ("3 2\n1 2\n", "expected 2 edges"),
        ("3 1\n1 2\n2 3\n", "trailing data"),
        ("3 1\n1 2 3\n", "expected edge"),
        ("3 2\n1 2\n\n2 3\n", "blank line"),
        ("0 0\n", "positive"),
        ("3 -1\n", "nonnegative"),
        ("3 -0\n", "nonnegative"),
        ("3 2\n1 2\n2 +3\n", "two integers"),
        ("3 2\n1 2\n1 \u0663\n", "two integers"),
        ("1_0 1\n1 2\n", "two integers"),
        # int() refuses more than 4300 digits by default
        pytest.param("1" * 5000 + " 0\n", "two integers", id="header-past-int-digit-limit"),
        pytest.param("3 1\n1 " + "2" * 5000 + "\n", "two integers", id="edge-past-int-digit-limit"),
    ],
)
def test_parse_edge_list_rejects(text, pattern):
    with pytest.raises(ParseError, match=pattern):
        parse_edge_list(text)


def test_parse_edge_list_too_many_vertices():
    with pytest.raises(UnsupportedError, match="65"):
        parse_edge_list("65 0\n")


def test_parse_edge_list_allows_trailing_blank_lines():
    assert parse_edge_list("2 1\n1 2\n\n\n") == Graph(2, ((1, 2),))


@given(graphs())
def test_edge_list_roundtrip_property(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


# ---------------------------------------------------------------------------
# graph6 format

def test_parse_graph6_known_strings():
    (tri,) = parse_graph6("Bw")
    assert tri == complete_graph(3)
    (edge,) = parse_graph6("A_")
    assert edge == Graph(2, ((1, 2),))


def test_parse_graph6_header_and_blank_lines(bridge2):
    data = ">>graph6<<" + serialize_graph6(bridge2) + "\n\nBw\n"
    gs = parse_graph6(data)
    assert gs == [bridge2, complete_graph(3)]


def test_parse_graph6_rejects_bad_bytes():
    with pytest.raises(ParseError, match="invalid graph6 byte"):
        parse_graph6("B\x1f")
    with pytest.raises(ParseError, match="truncated"):
        parse_graph6("C")
    for line in ("~", "~??"):
        with pytest.raises(ParseError, match="truncated vertex count"):
            parse_graph6(line)
    with pytest.raises(ParseError, match="invalid graph6 byte in vertex count"):
        parse_graph6("~? ?")
    with pytest.raises(ParseError, match="trailing"):
        parse_graph6("Bww")
    with pytest.raises(ParseError, match="padding"):
        parse_graph6(chr(63 + 3) + chr(63 + 0b111111))
    with pytest.raises(ParseError, match="empty graph"):
        parse_graph6("?")
    with pytest.raises(ParseError, match="not ASCII"):
        parse_graph6("Bé")


# digits, signs and whitespace of several scripts: int() accepts Unicode
# decimal digits and underscores, and str.splitlines breaks at more than \n
EDGE_LIST_ALPHABET = "0123456789+-_ \t\n\r\x0b\x0c\x1c\x85\u2028\u3000\u0663\u0967\uff12\u00b2"


@st.composite
def respelled_edge_lists(draw):
    # a valid edge list whose numbers may be written in the other forms that
    # int() reads: a sign, a leading zero and underscore, or Arabic-Indic digits
    g = draw(graphs())
    arabic = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
    forms = [str, "+{}".format, "0_{}".format, lambda k: str(k).translate(arabic)]

    def spell(k):
        return draw(st.sampled_from(forms))(k)

    return "".join(f"{spell(a)} {spell(b)}\n" for a, b in [(g.d, g.n), *g.edges])


@given(st.one_of(st.text(alphabet=EDGE_LIST_ALPHABET), respelled_edge_lists()))
def test_parse_edge_list_raises_only_input_errors(text):
    try:
        parse_edge_list(text)
    except (ParseError, UnsupportedError):
        return
    # accepted input is written in unsigned ASCII decimal numbers only
    assert all(re.fullmatch("[0-9]+", token) for token in text.split())


@given(st.binary())
def test_parse_graph6_raises_only_input_errors(data):
    try:
        parse_graph6(data)
    except (ParseError, UnsupportedError):
        pass


def test_parse_graph6_rejects_oversized():
    with pytest.raises(UnsupportedError):
        parse_graph6("~?@c")  # long-form vertex count 100
    with pytest.raises(UnsupportedError):
        parse_graph6("~~?????" + "?" * 100)


def test_graph6_long_form_roundtrip():
    rng = random.Random(7)
    for d in (63, 64):
        g = random_graph(rng, d, 0.1)
        line = serialize_graph6(g)
        assert line.startswith("~")
        (back,) = parse_graph6(line)
        assert back == g
        h = nx.from_graph6_bytes(line.encode())
        assert {(min(a, b) + 1, max(a, b) + 1) for a, b in h.edges} == set(g.edges)


@given(graphs())
@settings(max_examples=60)
def test_graph6_roundtrip_and_networkx_agreement(g):
    line = serialize_graph6(g)
    (back,) = parse_graph6(line)
    assert back == g
    h = nx.from_graph6_bytes(line.encode())
    assert set(h.nodes) == set(range(g.d))
    assert {(min(a, b) + 1, max(a, b) + 1) for a, b in h.edges} == set(g.edges)
    ours = parse_graph6(nx.to_graph6_bytes(nx_graph(g)))
    assert ours == [g]


# ---------------------------------------------------------------------------
# connectivity

def test_is_connected(bridge2):
    assert is_connected(bridge2)
    assert is_connected(Graph(1, ()))
    assert not is_connected(Graph(2, ()))
    two_triangles = Graph(6, ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)))
    assert not is_connected(two_triangles)


def test_connected_components(bridge2):
    assert connected_components(complete_graph(3)) == [0b111]
    assert connected_components(Graph(3, ())) == [0b001, 0b010, 0b100]
    rest = bridge2.full & ~vset([3, 4, 7, 8])
    assert connected_components(bridge2, rest) == [vset([1, 2]), vset([5, 6])]


def test_connected_within(bridge2):
    assert connected_within(bridge2, 0)
    assert connected_within(bridge2, vset([1]))
    assert connected_within(bridge2, vset([1, 2, 3]))
    assert not connected_within(bridge2, vset([1, 5]))


@given(graphs())
def test_components_partition_and_are_connected(g):
    comps = connected_components(g)
    union = 0
    for c in comps:
        assert c and not (union & c)
        union |= c
        assert connected_within(g, c)
    assert union == g.full
    for i, j in g.edges:
        e = vset([i, j])
        assert any(e & ~c == 0 for c in comps)


# ---------------------------------------------------------------------------
# odd cycles and bipartiteness

def test_is_bipartite():
    assert is_bipartite(cycle_graph(4))
    assert is_bipartite(complete_bipartite_graph(2, 3))
    assert not is_bipartite(complete_graph(3))
    assert is_bipartite(Graph(3, ()))
    # a triangle beside a separate edge
    assert not is_bipartite(Graph(5, ((1, 2), (1, 3), (2, 3), (4, 5))))


def test_require_connected_returns_whether_an_odd_cycle_exists():
    assert require_connected(cycle_graph(5)) is True
    assert require_connected(cycle_graph(4)) is False
    assert require_connected(Graph(1, ())) is False
    triangle_beside_edge = Graph(5, ((1, 2), (1, 3), (2, 3), (4, 5)))
    for g in (Graph(2, ()), triangle_beside_edge):
        with pytest.raises(UnsupportedError, match="not connected"):
            require_connected(g)


@pytest.mark.parametrize("d", range(1, 6))
def test_is_bipartite_matches_networkx(d):
    # every labelled graph, disconnected ones included
    for g in labelled_graphs(d):
        assert is_bipartite(g) == nx.is_bipartite(nx_graph(g)), g


@pytest.mark.parametrize("d", range(1, 11))
def test_every_component_nonbipartite_matches_networkx(d):
    # the layered flood against its definition, on every vertex subset
    # including the empty one: for each flag it returns the lowest-labelled
    # whole component with that odd-cycle status, or 0 when there is none;
    # so every component is nonbipartite exactly when the False flood gives 0.
    # Beside it comes the lowest-labelled component, or 0 for the empty set.
    # Every other reader of the flood is checked on the same sets, among them
    # sets whose lowest component is bipartite and has later components
    rng = random.Random(f"parity-{d}")
    for p in (0.2, 0.35, 0.6):
        g = random_graph(rng, d, p)
        h = nx_graph(g)
        for s in range(1 << d):
            sub = h.subgraph(members(s))
            comps = sorted((vset(c) for c in nx.connected_components(sub)), key=lambda c: c & -c)
            odd = [not nx.is_bipartite(sub.subgraph(members(c))) for c in comps]
            lowest = comps[0] if comps else 0
            for odd_cycle in (False, True):
                want = next((c for c, o in zip(comps, odd) if o == odd_cycle), 0)
                assert first_component(g, s, odd_cycle) == (want, lowest), (g, s, odd_cycle)
            assert connected_within(g, s) == (len(comps) <= 1), (g, s)
            assert connected_components(g, s) == comps, (g, s)
            if s == g.full:
                assert is_connected(g) == (len(comps) == 1), g
                assert is_bipartite(g) == (not any(odd)), g
                if len(comps) == 1:
                    assert require_connected(g) is odd[0], g
                else:
                    with pytest.raises(UnsupportedError, match="not connected"):
                        require_connected(g)


# ---------------------------------------------------------------------------
# neighborhoods

def test_neighborhood(bridge2):
    assert neighborhood(bridge2, vset([7, 8])) == vset([3, 4])
    assert neighborhood(bridge2, vset([1])) == vset([2, 3])
    assert neighborhood(complete_graph(3), vset([1])) == vset([2, 3])
    assert neighborhood(bridge2, 0) == 0


# ---------------------------------------------------------------------------
# chordless odd cycles

def test_chordless_odd_cycles_bridge2(bridge2):
    assert chordless_odd_cycles(bridge2) == [(1, 2, 3), (4, 5, 6)]


def test_chordless_odd_cycles_known():
    assert chordless_odd_cycles(cycle_graph(5)) == [(1, 2, 3, 4, 5)]
    assert chordless_odd_cycles(complete_graph(4)) == [
        (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
    ]
    assert chordless_odd_cycles(cycle_graph(4)) == []
    wheel5 = Graph(6, tuple((i, i + 1) for i in range(1, 5)) + ((1, 5),)
                   + tuple((i, 6) for i in range(1, 6)))
    assert (1, 2, 3, 4, 5) in chordless_odd_cycles(wheel5)


@given(graphs(max_d=7))
@settings(max_examples=60)
def test_chordless_odd_cycles_match_brute_force(g):
    assert chordless_odd_cycles(g) == brute_chordless_odd_cycles(g)


def test_chordless_odd_cycles_match_subset_scan_on_all_small_graphs():
    for d in range(1, 6):
        for g in labelled_graphs(d):
            assert chordless_odd_cycles(g) == subset_scan_chordless_odd_cycles(g), g


@pytest.mark.parametrize("p", [0.2, 0.3, 0.5, 0.8])
@pytest.mark.parametrize("d", range(8, 17))
def test_chordless_odd_cycles_match_subset_scan_on_random_graphs(d, p):
    rng = random.Random(f"gnp-{d}-{p}")
    g = random_graph(rng, d, p)
    assert chordless_odd_cycles(g) == subset_scan_chordless_odd_cycles(g)


@pytest.mark.parametrize("d", range(3, 11))
def test_iter_chordless_odd_cycles_within_a_set_and_exceptional(d):
    # the cycles inside `within`, each with its closed neighborhood, and the
    # exceptional ones: those whose rest still has an odd cycle (networkx)
    rng = random.Random(f"within-{d}")
    for p in (0.3, 0.5, 0.7):
        g = random_graph(rng, d, p)
        h = nx_graph(g)
        cycles = subset_scan_chordless_odd_cycles(g)
        for within in {g.full, rng.getrandbits(d) or 1, rng.getrandbits(d) or 1}:
            inside = [c for c in cycles if not vset(c) & ~within]
            found = list(iter_chordless_odd_cycles(g, within))
            assert found == [(c, vset(c) | neighborhood(g, vset(c))) for c in inside], (g, within)
        exceptional = [
            c for c in cycles
            if not nx.is_bipartite(h.subgraph(set(h).difference(c, *(h[v] for v in c))))
        ]
        assert [c for c, _ in iter_chordless_odd_cycles(g, exceptional=True)] == exceptional, g


def test_chordless_odd_cycles_large_graphs():
    # sizes far beyond what a scan over all 2^d vertex subsets could finish
    assert chordless_odd_cycles(cycle_graph(63)) == [tuple(range(1, 64))]
    assert chordless_odd_cycles(cycle_graph(64)) == []
    assert chordless_odd_cycles(complete_bipartite_graph(32, 32)) == []
    triangles = list(itertools.combinations(range(1, 13), 3))
    assert chordless_odd_cycles(complete_graph(12)) == triangles
    assert chordless_odd_cycles(bridge_graph(58)) == [(1, 2, 3), (4, 5, 6)]


# ---------------------------------------------------------------------------
# spanning trees

def _has_odd_cycle(edges):
    return not nx.is_bipartite(nx.Graph(edges))


@given(graphs())
@settings(max_examples=150)
def test_odd_spanning_edges(g):
    if not is_connected(g):
        with pytest.raises(UnsupportedError, match="not connected"):
            odd_spanning_edges(g)
        return
    out = odd_spanning_edges(g)
    tree = out[: g.d - 1]
    assert len(set(tree)) == len(tree) == g.d - 1
    assert set(out) <= set(g.edges)
    assert is_connected(Graph(g.d, tree))
    nonbipartite = not nx.is_bipartite(nx_graph(g))
    assert len(out) == g.d - 1 + nonbipartite
    assert not _has_odd_cycle(tree)
    assert _has_odd_cycle(out) == nonbipartite


def test_odd_spanning_edges_exhibits(bridge2):
    # BFS from 1 over bridge2: depths 1:0, 2,3:1, 7,8:2, 4:3, 5,6:4; of the
    # equal-depth edges {2,3} and {5,6}, the first one found is kept
    assert odd_spanning_edges(bridge2) == (
        (1, 2), (1, 3), (3, 7), (3, 8), (4, 7), (4, 5), (4, 6), (2, 3),
    )
    assert odd_spanning_edges(cycle_graph(4)) == ((1, 2), (1, 4), (2, 3))
    assert odd_spanning_edges(Graph(1, ())) == ()


# ---------------------------------------------------------------------------
# families

def test_bridge_graph_two_paths_is_the_doubled_bridge(bridge2):
    assert bridge_graph(2) == bridge2


def test_bridge_graph_shape():
    for k in range(1, 7):
        g = bridge_graph(k)
        assert g.d == 6 + k
        assert g.n == 6 + 2 * k


def test_named_families():
    assert cycle_graph(5).edges == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
    assert complete_graph(4).n == 6
    assert complete_bipartite_graph(2, 3) == Graph(
        5, ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))
    )
    assert is_bipartite(complete_bipartite_graph(2, 3))


@pytest.mark.parametrize(
    "name,params",
    [("bridge", (0,)), ("cycle", (2,)), ("complete", (0,)),
     ("complete_bipartite", (0, 2)), ("mystery", (3,)), ("cycle", (3, 4))],
)
def test_generate_family_rejects(name, params):
    with pytest.raises(ValueError):
        generate_family(name, params)


def test_generate_family_dispatch():
    assert generate_family("bridge", (2,)) == bridge_graph(2)
    assert generate_family("complete_bipartite", (2, 3)) == complete_bipartite_graph(2, 3)


@pytest.mark.parametrize(
    "name,params",
    [("cycle", (100_000,)), ("complete", (700,)),
     ("complete_bipartite", (300, 300)), ("bridge", (50_000,))],
)
def test_family_above_vertex_bound_fails_before_building_edges(name, params):
    # Graph checks the vertex bound before it reads the first edge, so a family
    # far above it raises without building its edges (complete_graph(700) has
    # about 245 000)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedError, match="vertex count"):
            generate_family(name, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_labelled_graphs_counts():
    assert sum(1 for _ in labelled_graphs(1)) == 1
    assert sum(1 for _ in labelled_graphs(3)) == 8
    gs = list(labelled_graphs(4))
    assert len(gs) == 64
    assert len(set(gs)) == 64
