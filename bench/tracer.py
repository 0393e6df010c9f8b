"""In-memory span tracer for the benchmark's traced run.

The tracer replaces public callables with timing wrappers at each name a
consuming module imported (``edgering.serre.chordless_odd_cycles``,
``edgering.sweep.facet_conditions``, ``IntegerLattice.__init__``, ...), so no
file of the program changes.  A span is ``[name, start_ns, end_ns, parent,
graph]``; the parent is the index of the span that was open when the call
began, and ``graph`` is the pool index of the graph being processed (-1
during set-up).  A layer's self time is its spans' durations minus the part
covered by their child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from functools import wraps
from importlib import import_module

# by module path: the package re-exports the function facets(), which hides
# the submodule edgering.facets as a package attribute
facets, graph, lattice, oracle, serre, sweep = (
    import_module("edgering." + name)
    for name in ("facets", "graph", "lattice", "oracle", "serre", "sweep")
)

# (owner, attribute, span name): every import site that the workloads reach
TARGETS = [
    (graph, "parse_graph6", "graph.parse"),
    (graph.Graph, "__post_init__", "graph.parse"),
    (serre, "classify", "serre.classify"),
    (serre, "chordless_odd_cycles", "graph.chordless_odd_cycles"),
    (serre, "satisfies_odd_cycle_condition", "serre.occ"),
    (sweep, "satisfies_odd_cycle_condition", "serre.occ"),
    (serre, "satisfies_r1", "serre.r1"),
    (sweep, "satisfies_r1", "serre.r1"),
    (serre, "connected_within", "serre.connectivity"),
    (sweep, "facet_connectivity_holds", "serre.connectivity"),
    (serre, "regular_vertices", "facets.regular_vertices"),
    (facets, "regular_vertices", "facets.regular_vertices"),
    (serre, "iter_fundamental_sets", "facets.fundamental_sets"),
    (facets, "iter_fundamental_sets", "facets.fundamental_sets"),
    (oracle, "support_form", "facets.support_form"),
    (lattice.IntegerLattice, "__init__", "lattice.build"),
    (lattice.IntegerLattice, "kernel_of_form", "lattice.kernel_of_form"),
    (oracle, "monoid_group", "oracle.monoid_group"),
    (sweep, "monoid_group", "oracle.monoid_group"),
    (oracle, "facet_conditions", "oracle.facet_conditions"),
    (sweep, "facet_conditions", "oracle.facet_conditions"),
    (sweep, "verify_even_sum_basis", "oracle.verify_even_sum_basis"),
    (sweep, "verify_decomposition", "oracle.verify_decomposition"),
    (sweep, "verify_facet_rank", "oracle.verify_facet_rank"),
    (sweep, "run_sweep", "sweep.run_sweep"),
    (sweep, "cross_check", "sweep.cross_check"),
]

# generator functions: each resumption is one span, and calls and yielded
# items are counted, because the time inside a generator interleaves with
# its consumer's
GENERATORS = {"facets.fundamental_sets"}


class Tracer:
    """Spans and counters of one traced run, plus the wrappers it installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.graph = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.graph]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def generator_span(self, name: str, fn):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter_ns, self.counts
        calls, items = name + ".calls", name + ".items"

        def resumptions(it):
            while True:
                rec = [name, clock(), 0, stack[-1] if stack else -1, self.graph]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec[2] = clock()
                    stack.pop()
                counts[items] += 1
                yield item

        @wraps(fn)
        def traced(*args, **kwargs):
            counts[calls] += 1
            return resumptions(fn(*args, **kwargs))

        return traced

    def _count_rows(self, init):
        # IntegerLattice.__init__ may be handed a generator; materialize it
        # inside the span so that the rows fed in can be counted
        counts = self.counts

        @wraps(init)
        def counted(lattice, dim, vectors=()):
            rows = list(vectors)
            counts["lattice.rows_in"] += len(rows)
            init(lattice, dim, rows)

        return counted

    # -- installation -----------------------------------------------------

    def install(self, extra=()) -> None:
        """Wrap every target, plus ``extra`` (owner, attribute, span name)."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in list(TARGETS) + list(extra):
            original = owner.__dict__[attr]
            fn = self._count_rows(original) if name == "lattice.build" else original
            wrapper = self.generator_span(name, fn) if name in GENERATORS else self.span(name, fn)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original callable back, last installed first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def _self_ns(self) -> list[int]:
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def self_times(self) -> dict[str, tuple[int, int]]:
        """(self time in ns, span count) per span name, over graph spans only."""
        out: dict[str, list[int]] = {}
        for (name, _, _, _, graph), ns in zip(self.spans, self._self_ns()):
            if graph >= 0:
                acc = out.setdefault(name, [0, 0])
                acc[0] += ns
                acc[1] += 1
        return {name: (ns, n) for name, (ns, n) in out.items()}

    def setup_time(self, name: str) -> float:
        """Seconds of self time in spans of one name recorded during set-up."""
        return sum(
            ns for (n, _, _, _, graph), ns in zip(self.spans, self._self_ns())
            if n == name and graph < 0
        ) / 1e9

    def write(self, path, meta: dict) -> None:
        """Write the spans as JSON lines, after one line of run metadata."""
        epoch = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            fh.write(json.dumps(meta, sort_keys=True) + "\n")
            for idx, (name, start, end, parent, graph) in enumerate(self.spans):
                fh.write(f'[{idx},"{name}",{start - epoch},{end - epoch},{parent},{graph}]\n')
