"""Seeded inputs and the per-graph step of each benchmark workload.

Inputs are built from the seed alone, with edgering's own ``Graph``,
``parse_graph6``, ``is_connected`` and ``is_bipartite``, so building them is
part of the measured set-up.  The program receives only the built graphs.

Each pool interleaves its input classes in a fixed repeating pattern, so
that any prefix of a pass holds them in the same proportions: a timed
phase that ends mid-pass still measures the intended mix.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from edgering import cli, serre, sweep
from edgering import graph as eg

CORPUS = Path("tests") / "data" / "conn7.g6"
CORPUS_SIZE = 350

# sweep-small: the d = 7 corpus plus as many sampled 6-vertex graphs
SWEEP_SAMPLE_D = 6

# Pool sizes: every pool holds at least 100 distinct graphs, so that the
# 90th percentile over graphs has at least 10 beyond it, and one pass takes a
# few seconds, so that each graph is timed several times in a run.

# classify-gnp: G(d, 0.3), d = 16, 17, 18 in turn
GNP_P = 0.3
GNP_PATTERN = (16, 17, 18)
GNP_GRAPHS = 102

# classify-bridge: relabelled bridge_graph(k), k = 7, 8, 9, 10 in the ratio
# 4:3:1:2.  The ratio keeps the median inside the k = 8 block and the 90th
# percentile inside the k = 10 block, away from the jumps in cost between
# blocks.
BRIDGE_PATTERN = (7, 8, 10, 7, 8, 9, 7, 8, 10, 7)
BRIDGE_GRAPHS = 100


@dataclass
class Pool:
    """The graphs of one workload, with what the checks expect of each."""

    graphs: list
    expect: list  # per graph: None, or the two triangles of a bridge graph

    def graph6_lines(self) -> list[str]:
        return [eg.serialize_graph6(g) for g in self.graphs]

    def digest(self) -> str:
        """sha256 of the graph6 lines, one per graph, in pool order."""
        text = "\n".join(self.graph6_lines()) + "\n"
        return hashlib.sha256(text.encode("ascii")).hexdigest()


def _eligible(g) -> bool:
    return eg.is_connected(g) and not eg.is_bipartite(g)


def sweep_small_pool(seed: int, root: Path) -> Pool:
    """conn7 interleaved with a uniform sample of distinct connected
    nonbipartite labelled graphs on 6 vertices."""
    corpus = eg.parse_graph6((root / CORPUS).read_bytes())
    if len(corpus) != CORPUS_SIZE or not all(_eligible(g) for g in corpus):
        raise ValueError(f"{CORPUS}: expected {CORPUS_SIZE} connected nonbipartite graphs")
    rng = random.Random(seed)
    d = SWEEP_SAMPLE_D
    pairs = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    seen: set[int] = set()
    sample = []
    while len(sample) < CORPUS_SIZE:
        code = rng.getrandbits(len(pairs))
        if code in seen:
            continue
        seen.add(code)
        g = eg.Graph(d, tuple(p for k, p in enumerate(pairs) if code >> k & 1))
        if _eligible(g):
            sample.append(g)
    graphs = [g for pair in zip(corpus, sample) for g in pair]
    return Pool(graphs, [None] * len(graphs))


def classify_gnp_pool(seed: int) -> Pool:
    """G(d, 0.3) with d following GNP_PATTERN, each redrawn until it is
    connected and nonbipartite."""
    rng = random.Random(seed)
    graphs = []
    for idx in range(GNP_GRAPHS):
        d = GNP_PATTERN[idx % len(GNP_PATTERN)]
        pairs = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
        while True:
            g = eg.Graph(d, tuple(p for p in pairs if rng.random() < GNP_P))
            if _eligible(g):
                graphs.append(g)
                break
    return Pool(graphs, [None] * len(graphs))


def classify_bridge_pool(seed: int) -> Pool:
    """bridge_graph(k) under a random relabelling; each expects the images
    of the triangles {1,2,3} and {4,5,6} as its odd cycle witness."""
    rng = random.Random(seed)
    graphs, expect = [], []
    for idx in range(BRIDGE_GRAPHS):
        k = BRIDGE_PATTERN[idx % len(BRIDGE_PATTERN)]
        d = 6 + k  # two triangles and k middle vertices
        image = rng.sample(range(1, d + 1), d)
        edges = eg.bridge_graph(k).edges
        graphs.append(eg.Graph(d, tuple((image[i - 1], image[j - 1]) for i, j in edges)))
        expect.append(frozenset((frozenset(image[0:3]), frozenset(image[3:6]))))
    return Pool(graphs, expect)


def build_pool(workload: str, seed: int, root: Path) -> Pool:
    if workload == "sweep-small":
        return sweep_small_pool(seed, root)
    if workload == "classify-gnp":
        return classify_gnp_pool(seed)
    if workload == "classify-bridge":
        return classify_bridge_pool(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# per-graph steps: the calls a user's command makes for one graph.  They look
# edgering up through its modules at call time, so traced runs see wrappers.

def render(input_id: str, g, report) -> str:
    """What ``edgering classify --json`` prints for one graph."""
    return json.dumps(cli.report_to_dict(input_id, g, report), sort_keys=True)


def classify_step(g, gid: int) -> str:
    return render(f"#{gid}", g, serre.classify(g))


def sweep_step(g, gid: int) -> tuple:
    """One graph through run_sweep: (checked, normal, r1, failure tags)."""
    summary = sweep.run_sweep([g])
    tags = tuple(t for cc in summary.disagreements for t in cc.failures)
    return (summary.checked, summary.normal, summary.r1, tags)


STEPS = {"sweep-small": "sweep_step", "classify-gnp": "classify_step", "classify-bridge": "classify_step"}
