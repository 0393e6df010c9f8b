"""Finite simple graphs on vertex sets {1, ..., d}.

Vertices carry 1-based labels, at most 64 of them.  A vertex set is an int
bitmask in which bit v-1 stands for vertex v, so set arithmetic is integer bit
twiddling.  One check refuses a loop or an edge end outside 1..d, one a vertex
set with a bit outside 1..d, and one layered flood finds a component with or
without an odd cycle.  Chordless odd cycles and fundamental sets (facets.py)
are enumerated in time that scales with the chordless paths and with the
independent sets connected through shared neighbours; both counts can be
exponential, so some graphs under the cap remain slow.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64

Edge = tuple[int, int]
Cycle = tuple[int, ...]
VertexSet = int


class ParseError(ValueError):
    """Malformed edge-list or graph6 input."""


class UnsupportedError(ValueError):
    """Well-formed input outside the supported domain (e.g. too many vertices)."""


class DisagreementError(RuntimeError):
    """Two routes to the same fact disagree: an internal error."""


def vset(vertices: Iterable[int]) -> VertexSet:
    """Bitmask for 1-based vertex labels; the one label rule, checked before each shift."""
    mask = 0
    for v in vertices:
        if type(v) is not int:  # a bool or a float would read as its value
            raise ValueError(f"vertex label {v!r} is not a positive integer")
        if v < 1:
            raise ValueError(f"vertex label {v} below 1")
        if v > MAX_VERTICES:
            raise ValueError(f"vertex label {v} out of range 1..{MAX_VERTICES}")
        mask |= 1 << (v - 1)
    return mask


def members(mask: VertexSet) -> tuple[int, ...]:
    """Ascending 1-based labels of the vertices in a bitmask."""
    if mask < 0:
        raise ValueError(f"negative vertex set {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..d.

    Edges are normalized to sorted pairs in lexicographic order, so two
    graphs with the same edge set compare equal and serialize identically.
    Edges may come lazily: the vertex bound is checked before the first is read.
    ``adj[v-1]`` is the neighbor bitmask of vertex v.
    """

    d: int
    edges: tuple[Edge, ...]
    adj: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.d) is not int or self.d < 1:
            raise ValueError(f"vertex count {self.d!r} is not a positive integer")
        if self.d > MAX_VERTICES:
            raise UnsupportedError(f"vertex count {self.d} exceeds the {MAX_VERTICES}-vertex bound")
        normalized = sorted([_edge(i, j, self.d) for i, j in self.edges])
        adj = [0] * self.d
        for i, j in normalized:  # in sorted order, so the smallest duplicate is named
            if adj[i - 1] >> (j - 1) & 1:
                raise ValueError(f"duplicate edge {{{i},{j}}}")
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "adj", tuple(adj))

    @property
    def n(self) -> int:
        return len(self.edges)

    @property
    def full(self) -> VertexSet:
        """Bitmask of the whole vertex set."""
        return (1 << self.d) - 1

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i - 1] >> (j - 1) & 1)


def _edge(i: int, j: int, d: int) -> Edge:
    # the one edge rule: no loop, both ends plain ints (not bools) in 1..d; returns the sorted pair
    if i == j:
        raise ValueError(f"loop at vertex {i}")
    if not (type(i) is type(j) is int and 1 <= i <= d and 1 <= j <= d):
        raise ValueError(f"edge {{{i},{j}}} out of range 1..{d}")
    return (i, j) if i < j else (j, i)


# ---------------------------------------------------------------------------
# edge-list format: header "d n", then n lines "i j", in ASCII decimal digits
_INTEGER = re.compile(r"-?[0-9]+")


def _two_integers(tokens: list[str], ln: int, line: str, shape: str) -> tuple[int, int]:
    # int() alone also reads "+3", "1_0" and non-ASCII digits, and raises
    # ValueError past the interpreter's digit limit (4300 digits by default)
    if len(tokens) != 2:
        raise ParseError(f"line {ln}: expected {shape}, got {line!r}")
    try:
        if all(map(_INTEGER.fullmatch, tokens)):
            return int(tokens[0]), int(tokens[1])
    except ValueError:
        pass
    raise ParseError(f"line {ln}: expected two integers, got {line!r}")


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: a "d n" header then n lines "i j"."""
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise ParseError("empty input")
    header = lines[0].split()
    d, n = _two_integers(header, 1, lines[0], "header 'd n'")
    if d < 1:
        raise ParseError(f"line 1: vertex count must be positive, got {d}")
    if d > MAX_VERTICES:
        raise UnsupportedError(f"line 1: vertex count {d} exceeds the {MAX_VERTICES}-vertex bound")
    if header[1].startswith("-"):  # "-0" too
        raise ParseError(f"line 1: edge count must be nonnegative, got {header[1]}")
    edges: list[Edge] = []
    seen: set[Edge] = set()
    ln = 1
    for ln, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            if any(rest.split() for rest in lines[ln:]):
                raise ParseError(f"line {ln}: blank line inside edge list")
            break
        if len(edges) == n:
            raise ParseError(f"line {ln}: trailing data after {n} edges")
        i, j = _two_integers(tokens, ln, line, "edge 'i j'")
        try:
            e = _edge(i, j, d)
        except ValueError as exc:
            raise ParseError(f"line {ln}: {exc}") from None
        if e in seen:
            raise ParseError(f"line {ln}: duplicate edge {{{e[0]},{e[1]}}}")
        seen.add(e)
        edges.append(e)
    if len(edges) != n:
        raise ParseError(f"expected {n} edges, found {len(edges)}")
    return Graph(d, tuple(edges))


def serialize_edge_list(g: Graph) -> str:
    lines = [f"{g.d} {g.n}"]
    lines += [f"{i} {j}" for i, j in g.edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6 format (headerless lines; optional ">>graph6<<" prefix tolerated)

def _g6_size(line: bytes, where: str) -> tuple[int, int]:
    # returns (vertex count, offset of the first adjacency byte)
    b0 = line[0]
    if b0 == 126:
        if len(line) >= 2 and line[1] == 126:
            raise UnsupportedError(f"{where}: vertex count exceeds the {MAX_VERTICES}-vertex bound")
        if len(line) < 4:
            raise ParseError(f"{where}: truncated vertex count")
        parts = [line[k] - 63 for k in (1, 2, 3)]
        if any(p < 0 or p > 63 for p in parts):
            raise ParseError(f"{where}: invalid graph6 byte in vertex count")
        return (parts[0] << 12) | (parts[1] << 6) | parts[2], 4
    if not 63 <= b0 <= 125:
        raise ParseError(f"{where}: invalid graph6 byte {b0}")
    return b0 - 63, 1


def _g6_decode(line: bytes, where: str) -> Graph:
    n, off = _g6_size(line, where)
    if n == 0:
        raise ParseError(f"{where}: empty graph")
    if n > MAX_VERTICES:
        raise UnsupportedError(f"{where}: vertex count {n} exceeds the {MAX_VERTICES}-vertex bound")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = line[off:]
    if len(body) < nbytes:
        raise ParseError(f"{where}: truncated adjacency data")
    if len(body) > nbytes:
        raise ParseError(f"{where}: trailing bytes after adjacency data")
    bits = 0
    for b in body:
        if not 63 <= b <= 126:
            raise ParseError(f"{where}: invalid graph6 byte {b}")
        bits = (bits << 6) | (b - 63)
    pad = 6 * nbytes - nbits
    if bits & ((1 << pad) - 1):
        raise ParseError(f"{where}: nonzero padding bits")
    bits >>= pad
    edges = []
    pos = nbits
    for j in range(2, n + 1):  # upper triangle, column by column
        for i in range(1, j):
            pos -= 1
            if bits >> pos & 1:
                edges.append((i, j))
    return Graph(n, tuple(edges))


def parse_graph6(data: bytes | str) -> list[Graph]:
    """Parse graph6 data, one graph per line; blank lines are skipped."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError:
            raise ParseError("graph6 data is not ASCII") from None
    graphs = []
    for ln, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if line.startswith(b">>graph6<<"):
            line = line[len(b">>graph6<<"):]
        if not line:
            continue
        graphs.append(_g6_decode(line, f"line {ln}"))
    return graphs


def serialize_graph6(g: Graph) -> str:
    """Single graph6 line (no trailing newline, no header)."""
    n = g.d
    if n <= 62:
        prefix = chr(63 + n)
    else:
        prefix = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bits = 0
    nbits = n * (n - 1) // 2
    for j in range(2, n + 1):
        for i in range(1, j):
            bits = (bits << 1) | (g.adj[i - 1] >> (j - 1) & 1)
    nbytes = (nbits + 5) // 6
    bits <<= 6 * nbytes - nbits
    body = "".join(chr(63 + (bits >> 6 * (nbytes - 1 - k) & 63)) for k in range(nbytes))
    return prefix + body


# ---------------------------------------------------------------------------
# connectivity and odd cycles

def _checked_set(g: Graph, s: VertexSet) -> VertexSet:
    if s < 0:  # every bit past vertex d is set
        raise ValueError(f"negative vertex set {s} out of range 1..{g.d}")
    if s >> g.d:  # a bit past vertex d; the message names those vertices alone
        raise ValueError(f"vertex set {list(members(s >> g.d << g.d))} out of range 1..{g.d}")
    return s


def connected_within(g: Graph, s: VertexSet) -> bool:
    """True iff s is empty or induces a connected subgraph."""
    return first_component(g, _checked_set(g, s), True)[1] == s


def is_connected(g: Graph) -> bool:
    return first_component(g, g.full, True)[1] == g.full


def connected_components(g: Graph, within: VertexSet | None = None) -> list[VertexSet]:
    """Vertex sets of the connected components, smallest member first.

    With `within` given, components of the subgraph induced on that set.
    """
    rem = g.full if within is None else _checked_set(g, within)
    comps = []
    while rem:
        # the lowest vertex's component; the True flood stops there when it has
        # an odd cycle, as every component of a facet's rest does, so the
        # sweep floods each rest once
        comp = first_component(g, rem, True)[1]
        comps.append(comp)
        rem &= ~comp
    return comps


def is_bipartite(g: Graph) -> bool:
    return not first_component(g, g.full, True)[0]


def first_component(g: Graph, within: VertexSet, odd_cycle: bool) -> tuple[VertexSet, VertexSet]:
    """(piece, lowest): the lowest-labelled component of `within` with an odd
    cycle if odd_cycle is true, or without one if it is false, or 0; and the
    first component flooded, that of `within`'s lowest vertex (0 if empty).

    Each component is searched breadth first, one layer at a time, and has an
    odd cycle exactly when an edge joins two vertices of one layer; `within`
    is connected exactly when lowest == within.  Unchecked: `within` must be a
    set of g's vertices.
    """
    # unchecked and with a positional flag, as the ESU of facets.py calls this
    # in its search loop, where a keyword-only argument costs time
    adj = g.adj
    lowest = 0
    while within:
        piece = layer = within & -within
        odd = 0
        while layer:
            nxt = 0
            m = layer
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            odd |= nxt & layer
            layer = nxt & within & ~piece
            piece |= layer
        lowest = lowest or piece
        if bool(odd) == odd_cycle:
            return piece, lowest
        within &= ~piece
    return 0, lowest


# ---------------------------------------------------------------------------
# neighborhoods

def neighborhood(g: Graph, t: VertexSet) -> VertexSet:
    """Union of the neighbor sets of the vertices in t."""
    out = 0
    m = _checked_set(g, t)
    while m:
        low = m & -m
        out |= g.adj[low.bit_length() - 1]
        m ^= low
    return out


# ---------------------------------------------------------------------------
# chordless odd cycles

def chordless_odd_cycles(g: Graph) -> list[Cycle]:
    """All chordless odd cycles, canonical and sorted lexicographically."""
    return [c for c, _ in iter_chordless_odd_cycles(g)]


def iter_chordless_odd_cycles(
    g: Graph, within: VertexSet | None = None, *, exceptional: bool = False
) -> Iterator[tuple[Cycle, VertexSet]]:
    """Chordless odd cycles C of the subgraph induced on `within` (default:
    all of g), canonical and in lexicographic order, each with N[C], its
    closed neighborhood in g.

    Each cycle is found as a chordless path grown one vertex at a time from
    its smallest vertex s, so the cost scales with the number of chordless
    paths rather than with the 2^d vertex subsets.  The path closes at a
    neighbor of s larger than its second vertex, which yields every cycle
    exactly once and already in canonical form.  Paths are grown depth
    first, their closing and extension vertices taken in ascending label
    order, which is the lexicographic order of the cycles.

    With exceptional=True only the cycles C for which g - N[C] has an odd
    cycle are yielded, and a path P is cut once g - N[P] has none: N[P]
    only grows as P grows, and a subgraph of a bipartite graph is bipartite.
    """
    adj, full = g.adj, g.full
    within = full if within is None else _checked_set(g, within)
    for s in members(within):
        above = within & (-1 << s)  # vertices of `within` larger than s
        ns = adj[s - 1] & above
        m = ns
        while m:
            low = m & -m
            m ^= low
            v1 = low.bit_length()
            close = ns & ~((low << 1) - 1)  # neighbors of s larger than v1
            # (path, barred, N[path]); barred is None once the path has closed
            # into a cycle, and otherwise holds s, the path and every neighbor
            # of an interior vertex
            stack = [((s, v1), 1 << (s - 1) | low, adj[s - 1] | adj[v1 - 1])]
            while stack:
                path, barred, closed = stack.pop()
                if exceptional and not first_component(g, full & ~closed, True)[0]:
                    continue
                if barred is None:
                    yield path, closed
                    continue
                end = path[-1]
                cand = adj[end - 1] & above & ~barred
                ends = cand & ~ns | (cand & close if len(path) & 1 == 0 else 0)
                barred |= adj[end - 1]
                while ends:  # largest first, so that the smallest is popped first
                    w = 1 << ends.bit_length() - 1
                    ends ^= w
                    v = w.bit_length()
                    stack.append((path + (v,), None if w & ns else barred, closed | adj[v - 1]))


# ---------------------------------------------------------------------------
# spanning trees

def odd_spanning_edges(g: Graph) -> tuple[Edge, ...]:
    """Edges of a BFS spanning tree from vertex 1, in discovery order, then the
    first edge found between two vertices of equal depth.  Such an edge closes
    an odd cycle, so it is there exactly when the connected graph g is not bipartite.
    """
    require_connected(g)
    depth = [0] + [-1] * (g.d - 1)
    queue = deque([1])
    tree = []
    odd = []
    while queue:
        u = queue.popleft()
        m = g.adj[u - 1]
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length()
            if depth[w - 1] < 0:
                depth[w - 1] = depth[u - 1] + 1
                tree.append((u, w) if u < w else (w, u))
                queue.append(w)
            elif not odd and depth[w - 1] == depth[u - 1]:
                odd.append((u, w) if u < w else (w, u))
    return tuple(tree + odd)


def require_connected(g: Graph) -> bool:
    """Refuse a disconnected g; otherwise whether g has an odd cycle, from the same flood."""
    piece, lowest = first_component(g, g.full, True)
    if lowest != g.full:
        raise UnsupportedError("graph is not connected")
    return bool(piece)


def require_nonbipartite(g: Graph) -> None:
    """Facet data needs g connected with an odd cycle, so that the edge polytope has dim d - 1."""
    if not require_connected(g):
        raise UnsupportedError("graph is bipartite; facet data needs an odd cycle")


# ---------------------------------------------------------------------------
# named families

def cycle_graph(n: int) -> Graph:
    """The n-cycle, n >= 3."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, ((i, i % n + 1) for i in range(1, n + 1)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs at least 1 vertex, got {n}")
    return Graph(n, ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"complete bipartite graph needs positive part sizes, got {a},{b}")
    return Graph(a + b, ((i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)))


def bridge_graph(k: int) -> Graph:
    """Two disjoint triangles {1,2,3} and {4,5,6} joined by k internally
    disjoint paths 3 - (6+i) - 4, one middle vertex each; k >= 1.
    """
    if k < 1:
        raise ValueError(f"bridge graph needs at least 1 path, got {k}")
    paths = ((end, mid) for mid in range(7, 7 + k) for end in (3, 4))
    return Graph(6 + k, chain([(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)], paths))


FAMILIES = {
    "bridge": (bridge_graph, 1),
    "cycle": (cycle_graph, 1),
    "complete": (complete_graph, 1),
    "complete_bipartite": (complete_bipartite_graph, 2),
}


def generate_family(name: str, params: Sequence[int]) -> Graph:
    """Build a named family member; see FAMILIES for names and arities."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(sorted(FAMILIES))}")
    func, arity = FAMILIES[name]
    if len(params) != arity:
        raise ValueError(f"family {name!r} expects {arity} parameter(s), got {len(params)}")
    return func(*params)


def labelled_graphs(d: int) -> Iterator[Graph]:
    """Every labelled simple graph on vertices 1..d, by edge-subset code."""
    pairs = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    for code in range(1 << len(pairs)):
        edges = tuple(p for k, p in enumerate(pairs) if code >> k & 1)
        yield Graph(d, edges)
