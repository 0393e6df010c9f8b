"""Shared test utilities: brute-force reimplementations on networkx.

Everything here recomputes package predicates from their definitions with
independent machinery (networkx traversals, itertools subsets), so tests
can compare two implementations that share no code.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction

import networkx as nx
from hypothesis import strategies as st

import edgering.facets
from edgering import (
    FacetCheck,
    Graph,
    IntegerLattice,
    connected_within,
    first_component,
    members,
    neighborhood,
    vset,
)


def edge_vector(e: tuple[int, int], d: int) -> tuple[int, ...]:
    """The 0/1 vector e_i + e_j of an edge {i, j} in Z^d, the reference the
    oracle's builder is compared against."""
    v = [0] * d
    for end in e:
        v[end - 1] += 1
    return tuple(v)


def nx_graph(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(1, g.d + 1))
    h.add_edges_from(g.edges)
    return h


def brute_regular_vertex(g: Graph, v: int) -> bool:
    h = nx_graph(g)
    h.remove_node(v)
    return all(
        not nx.bipartite.is_bipartite(h.subgraph(c)) for c in nx.connected_components(h)
    )


def brute_fundamental(g: Graph, tset: frozenset[int]) -> bool:
    h = nx_graph(g)
    if any(h.has_edge(a, b) for a in tset for b in tset):
        return False
    nb = set()
    for v in tset:
        nb |= set(h.neighbors(v))
    bip = nx.Graph()
    bip.add_nodes_from(tset | nb)
    bip.add_edges_from(
        (a, b) for a, b in h.edges if (a in tset) != (b in tset) and {a, b} <= tset | nb
    )
    if not nx.is_connected(bip):
        return False
    rest = set(h.nodes) - tset - nb
    if not rest:
        return True
    sub = h.subgraph(rest)
    return all(
        not nx.bipartite.is_bipartite(sub.subgraph(c)) for c in nx.connected_components(sub)
    )


def brute_fundamental_sets(g: Graph) -> list[tuple[int, ...]]:
    out = []
    for r in range(1, g.d + 1):
        for combo in itertools.combinations(range(1, g.d + 1), r):
            if brute_fundamental(g, frozenset(combo)):
                out.append(combo)
    out.sort()
    return out


def brute_chordless_odd_cycles(g: Graph) -> list[tuple[int, ...]]:
    h = nx_graph(g)
    out = []
    for r in range(3, g.d + 1, 2):
        for combo in itertools.combinations(range(1, g.d + 1), r):
            sub = h.subgraph(combo)
            if all(d == 2 for _, d in sub.degree) and nx.is_connected(sub):
                verts = set(combo)
                start = min(verts)
                seq = [start]
                prev, cur = None, start
                while True:
                    nbrs = sorted(w for w in sub.neighbors(cur) if w != prev)
                    nxt = nbrs[0]
                    if nxt == start:
                        break
                    seq.append(nxt)
                    prev, cur = cur, nxt
                out.append(tuple(seq))
    out.sort()
    return out


def subset_scan_chordless_odd_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Chordless odd cycles by testing every vertex subset, on bitmasks.

    A vertex subset is a chordless cycle exactly when it induces a connected
    2-regular subgraph.  Exponential in d; the reference the path-growing
    enumerator is compared against.
    """
    out = []
    adj = g.adj
    for mask in range(1, 1 << g.d):
        k = mask.bit_count()
        if k < 3 or k & 1 == 0:
            continue
        m = mask
        regular = True
        while m:
            low = m & -m
            if (adj[low.bit_length() - 1] & mask).bit_count() != 2:
                regular = False
                break
            m ^= low
        if regular and connected_within(g, mask):
            out.append(_cycle_order(g, mask))
    out.sort()
    return out


def pair_loop_odd_cycle_condition(g: Graph, cycles: list[tuple[int, ...]]) -> tuple | None:
    """The odd cycle condition by comparing every pair of a sorted cycle list.

    Returns the first cycle that has a disjoint partner with no edge to it
    later in the list, with its first such partner, or None.  Quadratic in
    the number of cycles; the reference the first-witness search of
    satisfies_odd_cycle_condition is compared against.
    """
    masks = [vset(c) for c in cycles]
    for a in range(len(cycles)):
        # b is disjoint from a and unjoined to it iff b misses a and N(a)
        closed = masks[a] | neighborhood(g, masks[a])
        for b in range(a + 1, len(cycles)):
            if not closed & masks[b]:
                return (cycles[a], cycles[b])
    return None


def is_occ_witness(g: Graph, pair) -> bool:
    """Whether `pair` is two chordless odd cycles of g, vertex-disjoint and
    with no edge between them, checked on g.has_edge alone."""
    if len(pair) != 2:
        return False
    for c in pair:
        k = len(c)
        if k < 3 or k % 2 == 0 or len(set(c)) != k:
            return False
        for i, v in enumerate(c):
            # v's only neighbours on the cycle are its two cycle neighbours
            if [w for w in c if g.has_edge(v, w)] != [w for w in c if w in (c[i - 1], c[(i + 1) % k])]:
                return False
    a, b = pair
    return not set(a) & set(b) and not any(g.has_edge(v, w) for v in a for w in b)


def _cycle_order(g: Graph, mask: int) -> tuple[int, ...]:
    # walk a subset known to induce a single cycle, starting at its smallest
    # vertex toward the smaller neighbor; this lands on the canonical form
    start = (mask & -mask).bit_length()
    nb = g.adj[start - 1] & mask
    seq = [start]
    prev, cur = start, (nb & -nb).bit_length()
    while cur != start:
        seq.append(cur)
        nxt = g.adj[cur - 1] & mask & ~(1 << (prev - 1))
        prev, cur = cur, (nxt & -nxt).bit_length()
    return tuple(seq)


def independent_set_scan_fundamental_sets(g: Graph) -> list[int]:
    """Fundamental sets by testing every independent set, on bitmasks.

    Walks the independent sets depth-first in label order, so the output is
    in lexicographic order of the vertex tuples.  Exponential in the
    independence number; the reference the common-neighbour-graph
    enumerator is compared against.  The rest condition is checked on
    networkx, as brute_fundamental does, not through the package's flood
    first_component.
    """
    h = nx_graph(g)
    out = []
    for t in search_nodes(g):
        nb = neighborhood(g, t)
        rest = h.subgraph(members(g.full & ~(t | nb)))
        if all(
            not nx.bipartite.is_bipartite(rest.subgraph(c)) for c in nx.connected_components(rest)
        ):
            out.append(t)
    return out


def search_nodes(g: Graph) -> list[int]:
    """The nodes of the unfloored fundamental-set search, by testing every
    independent set: the nonempty independent sets T whose T-to-N(T)
    bipartite part is connected, in lexicographic order of the vertex tuples."""
    d = g.d

    def extend(mask: int, start: int):
        for v in range(start, d + 1):
            if g.adj[v - 1] & mask:
                continue
            sub = mask | (1 << (v - 1))
            yield sub
            yield from extend(sub, v + 1)

    return [t for t in extend(0, 1) if _bipartite_part_connected(g, t, neighborhood(g, t))]


def reference_fundamental_search(g: Graph, min_rest: int = 0) -> tuple[list, list[tuple[int, bool]]]:
    """The fundamental-set search as it stood before it cut dead children:
    (its items, its nodes in pop order as (T, dead)).

    A frame carries N(T), and every child above the floor is pushed.  A node
    is dead when it inherits a bipartite rest piece and either has no
    extension or has a rest of exactly min_rest vertices, whose children all
    fall below the floor: it is not fundamental and has no children.
    iter_fundamental_sets pushes no dead child, so it must yield these items
    and pop the nodes that are not dead; the node counts it is pinned to are
    read off this search.
    """
    adj, full = g.adj, g.full
    share = [neighborhood(g, a) & ~(1 << i) for i, a in enumerate(adj)]
    items: list = []
    nodes: list[tuple[int, bool]] = []
    for r in range(g.d):
        root = 1 << r
        if (rest := full & ~(root | adj[r])).bit_count() < min_rest:
            continue
        out = []
        above = -root << 1
        stack = [(root, adj[r], share[r] & above & rest, root | share[r], rest, 0)]
        while stack:
            t, nb, ext, reached, rest, bad = stack.pop()
            nodes.append((t, bool(bad) and (not ext or rest.bit_count() == min_rest)))
            if not bad:
                bad, lowest = first_component(g, rest, False)
                if not bad:
                    out.append((t, nb, lowest == rest))
            while ext:
                w = ext & -ext
                ext ^= w
                i = w.bit_length() - 1
                child_rest = rest & ~(w | adj[i])
                if child_rest.bit_count() >= min_rest:
                    fresh = share[i] & above & ~reached
                    stack.append((t | w, nb | adj[i], (ext | fresh) & child_rest,
                                  reached | share[i], child_rest, bad & child_rest))
        items += sorted(out, key=lambda e: members(e[0]))
    return items, nodes


def _bipartite_part_connected(g: Graph, t: int, nb: int) -> bool:
    # connectivity of the graph on t | nb using only edges between t and nb
    total = t | nb
    start = t & -t
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length()
            if t >> (v - 1) & 1:
                nxt |= g.adj[v - 1] & nb
            else:
                nxt |= g.adj[v - 1] & t
        frontier = nxt & ~seen
        seen |= frontier
    return seen == total


def brute_r1(g: Graph) -> tuple[bool, list]:
    """The connectivity criterion recomputed on networkx from scratch.

    Returns (verdict, violations) with violations as ('regular', v) or
    ('fundamental', vertex tuple), sorted regular-first.
    """
    h = nx_graph(g)
    if nx.bipartite.is_bipartite(h):
        return (True, [])
    violations = []
    for v in sorted(h.nodes):
        if brute_regular_vertex(g, v):
            rest = h.subgraph(set(h.nodes) - {v})
            if rest.number_of_nodes() and not nx.is_connected(rest):
                violations.append(("regular", v))
    for combo in brute_fundamental_sets(g):
        tset = set(combo)
        nb = set()
        for v in tset:
            nb |= set(h.neighbors(v))
        rest = set(h.nodes) - tset - nb
        if rest and not nx.is_connected(h.subgraph(rest)):
            violations.append(("fundamental", combo))
    return (not violations, violations)


def as_brute_violation(f) -> tuple:
    from edgering import RegularVertex

    if isinstance(f, RegularVertex):
        return ("regular", f.vertex)
    return ("fundamental", f.vertices)


def random_graph(rng: random.Random, d: int, p: float) -> Graph:
    pairs = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    return Graph(d, tuple(e for e in pairs if rng.random() < p))


def random_connected_nonbipartite(rng: random.Random, d: int, p: float) -> Graph:
    from edgering import is_bipartite, is_connected

    while True:
        g = random_graph(rng, d, p)
        if is_connected(g) and not is_bipartite(g):
            return g


def sparse_random_graphs() -> list[Graph]:
    """Two seeded connected nonbipartite G(d, 0.15) draws for each d = 16..30:
    sparse graphs, where fundamental sets fail (R1) far more often than in
    the committed corpora."""
    return [
        random_connected_nonbipartite(random.Random(f"sparse-{d}-{i}"), d, 0.15)
        for d in range(16, 31)
        for i in range(2)
    ]


def record_calls(monkeypatch, fn, record=lambda *a, **k: a, owners=None) -> list:
    """The list to which each call of fn appends record(*args, **kwargs),
    until monkeypatch is undone.

    fn is wrapped where each of owners binds it by its name, by default at
    every edgering module that does.
    """
    name = fn.__name__
    if owners is None:
        owners = [m for n, m in list(sys.modules.items())
                  if n.startswith("edgering") and getattr(m, name, None) is fn]
    assert owners, f"no module binds {name}"
    calls: list = []

    def recorded(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return fn(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, recorded)
    return calls


def count_rest_floods(monkeypatch) -> list[int]:
    """The list into which every flood that facets.py runs records
    its vertex set, until monkeypatch is undone."""
    return record_calls(monkeypatch, first_component, lambda g, within, odd_cycle: within,
                        [edgering.facets])


# hypothesis strategies

@st.composite
def graphs(draw, min_d: int = 1, max_d: int = 8) -> Graph:
    d = draw(st.integers(min_d, max_d))
    pairs = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph(d, tuple(picked))


@st.composite
def connected_nonbipartite_graphs(draw, min_d: int = 3, max_d: int = 7) -> Graph:
    from edgering import is_bipartite, is_connected

    d = draw(st.integers(min_d, max_d))
    pairs = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    base = [(i, i + 1) for i in range(1, d)] + [(1, 3), (2, 3)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    g = Graph(d, tuple(set(base) | set(extra)))
    assert is_connected(g) and not is_bipartite(g)
    return g


@st.composite
def sparse_connected_nonbipartite_graphs(draw, min_d: int = 8, max_d: int = 12) -> Graph:
    """A connected nonbipartite G(d, p) draw with p in 0.1..0.3: sparse graphs,
    whose rests fall apart into odd pieces far more often than those of
    connected_nonbipartite_graphs, which adds edges to a path with a triangle."""
    d = draw(st.integers(min_d, max_d))
    p = draw(st.floats(0.1, 0.3))
    # hypothesis seeds this Random itself; a drawn integer seed repeats far more often
    return random_connected_nonbipartite(draw(st.randoms(use_true_random=True)), d, p)


class EagerLattice:
    """The lattice as built before IntegerLattice kept echelon rows.

    Reduces its generators to the canonical Hermite basis in the constructor,
    by row-Euclid steps that share no code with IntegerLattice: column by
    column, subtract multiples of the row with the smallest nonzero |entry|
    from the others until one row is left there, make its pivot positive and
    reduce the entries above it into [0, pivot).  Reads that basis for
    determinant and membership, and builds two lattices in kernel_of_form.
    The reference IntegerLattice is compared against.
    """

    def __init__(self, dim: int, vectors=()):
        rows = [list(v) for v in vectors]
        basis: list[list[int]] = []
        pivots: list[int] = []
        for j in range(dim):
            live = [r for r in rows if r[j]]
            while len(live) > 1:
                p = min(live, key=lambda r: abs(r[j]))
                for r in live:
                    if r is not p:
                        q = r[j] // p[j]
                        r[:] = [a - q * b for a, b in zip(r, p)]
                live = [r for r in live if r[j]]
            if not live:
                continue
            rows = [r for r in rows if r is not live[0]]
            p = live[0] if live[0][j] > 0 else [-a for a in live[0]]
            for b in basis:
                q = b[j] // p[j]
                b[:] = [a - q * c for a, c in zip(b, p)]
            basis.append(p)
            pivots.append(j)
        self.dim = dim
        self.basis = tuple(tuple(r) for r in basis)
        self.pivots = tuple(pivots)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def determinant(self) -> int:
        if self.rank != self.dim:
            raise ValueError("lattice is not full rank")
        out = 1
        for row, j in zip(self.basis, self.pivots):
            out *= row[j]
        return out

    def __contains__(self, vec) -> bool:
        v = list(vec)
        pi = 0
        for j in range(self.dim):
            if v[j] == 0:
                continue
            while pi < len(self.pivots) and self.pivots[pi] < j:
                pi += 1
            if pi == len(self.pivots) or self.pivots[pi] != j:
                return False
            row = self.basis[pi]
            if v[j] % row[j]:
                return False
            q = v[j] // row[j]
            for k in range(j, self.dim):
                v[k] -= q * row[k]
        return True

    def kernel_of_form(self, coeffs) -> "EagerLattice":
        aug = []
        for row in self.basis:
            val = sum(c * x for c, x in zip(coeffs, row))
            aug.append((val,) + row)
        tmp = EagerLattice(self.dim + 1, aug)
        kept = [row[1:] for row in tmp.basis if row[0] == 0]
        return EagerLattice(self.dim, kept)


def canonical_basis(lat: IntegerLattice) -> tuple[tuple[int, ...], ...]:
    """The reference's Hermite basis of an IntegerLattice, read from its rows as data.

    IntegerLattice has no comparison of its own: tests compare lattices
    through this canonical basis, which EagerLattice computes independently.
    """
    return EagerLattice(lat.dim, lat._rows).basis


def even_sum_generators(d: int) -> list[list[int]]:
    """e_i + e_d for i < d, and 2 e_d: the Hermite basis of the vectors in
    Z^d with even coordinate sum."""
    gens = [[1 if k in (i, d - 1) else 0 for k in range(d)] for i in range(d - 1)]
    return gens + [[2 if k == d - 1 else 0 for k in range(d)]]


def all_columns_but(d: int, col: int) -> tuple[int, ...]:
    """Every column of Z^d but col, in order; all d columns when col is -1.

    Condition 2 and verify_decomposition once compared a zero lattice's pivots
    with this tuple, col being the last column of P (-1 for an empty P); they
    now read the same fact from the rank and one membership test, and this is
    the comparison they are checked against.
    """
    return (*range(col), *range(col + 1, d))


def form_value(form, vec) -> Fraction:
    """A support form evaluated exactly on a vector: sum c * x over denom."""
    return Fraction(sum(c * x for c, x in zip(form.coeffs, vec)), form.denom)


def diff_lattice_facet_rank(g: Graph, check: FacetCheck) -> bool:
    """verify_facet_rank as it was before it read the record's zero lattice.

    Rederives the zero-valued edge vectors from the record's values and
    builds the lattice of their differences from the first, which must have
    rank d - 2.  The reference the rank-of-zero shortcut is compared against.
    """
    zero = [edge_vector(e, g.d) for e, v in zip(g.edges, check.values) if v == 0]
    if not zero or any(v < 0 for v in check.values):
        return False
    base = zero[0]
    diffs = [[a - b for a, b in zip(vec, base)] for vec in zero[1:]]
    return IntegerLattice(g.d, diffs).rank == g.d - 2


def decomposition_generators(g: Graph, t: int) -> list[list[int]]:
    """Generators of the decomposition lattice D at an independent vertex set t.

    Consecutive members a < b of T and N(T) give e_a + e_b across the two
    sides and e_a - e_b within one; each component of the rest (found by
    networkx) gives the edge vectors of consecutive members and 2 e_last.
    verify_decomposition reads D's pivot data in closed form; this is the
    generator loop that it is compared against.
    """
    part = members(t | neighborhood(g, t))
    gens = []
    for a, b in zip(part, part[1:]):
        vec = [0] * g.d
        vec[a - 1] = 1
        vec[b - 1] = 1 if (t >> (a - 1) ^ t >> (b - 1)) & 1 else -1
        gens.append(vec)
    rest = nx_graph(g).subgraph(set(range(1, g.d + 1)) - set(part))
    for comp in nx.connected_components(rest):
        vs = sorted(comp)
        gens += [list(edge_vector(pair, g.d)) for pair in zip(vs, vs[1:])]
        gens.append([2 if v == vs[-1] else 0 for v in range(1, g.d + 1)])
    return gens
