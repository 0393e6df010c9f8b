"""One benchmark workload, in a fresh single-threaded process.

run.py starts this script; it prints any failing graph as
``FAIL <graph6> <tags>`` and ends with one JSON line of results.  Set-up
time runs from the first statement below, before edgering is imported, to
the start of the first timed graph.  Timings are reported at reference
speed (see REFERENCE_MS).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import edgering  # noqa: E402

if Path(edgering.__file__).resolve().parent != ROOT / "src" / "edgering":
    sys.exit(f"error: imported edgering from {edgering.__file__}, not from {ROOT / 'src'}")

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((BENCH / "metrics.json").read_text())


@dataclass(frozen=True)
class Raised:
    """Output of a step that raised instead of returning."""

    error: str


# ---------------------------------------------------------------------------
# machine speed

# The machine's speed drifts by tens of percent over seconds to minutes,
# because other work shares its cores.  Every timing is therefore divided by
# the time of a fixed reference loop run just before it and reported at
# reference speed: the speed at which the loop takes REFERENCE_MS.  The loop
# is the benchmark's own code, so no change to edgering moves it.
REFERENCE_MS = 0.2
REFERENCE_REPS = 100
_REFERENCE_ADJ = tuple(
    (1 << (v + 1) % 16) | (1 << (v + 15) % 16) | (1 << (v + 5) % 16) | (1 << (v + 11) % 16)
    for v in range(16)
)


def reference_loop() -> int:
    """Bitmask floods on a fixed 16-vertex circulant graph; returns 16 * reps."""
    total = 0
    for start in range(REFERENCE_REPS):
        seen = frontier = 1 << start % 16
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= _REFERENCE_ADJ[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~seen
            seen |= frontier
        total += seen.bit_count()
    return total


def reference_scale(samples: int = 9) -> float:
    """REFERENCE_MS over the median time of the reference loop, right now."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter_ns()
        reference_loop()
        times.append(time.perf_counter_ns() - t0)
    return REFERENCE_MS * 1e6 / statistics.median(times)


# ---------------------------------------------------------------------------
# timed phase

def run_phase(step, pool, *, seconds=None, count=None, whole_passes=False, tracer=None):
    """Run step over the pool in order, wrapping around, one graph at a time,
    each after one run of the reference loop.

    Stops after ``count`` graphs, or once ``seconds`` have passed (at the end
    of a pass with ``whole_passes``).  Returns the attempts as (graph index,
    step ns, reference loop ns, output) and the wall time in seconds.
    """
    graphs = pool.graphs
    n = len(graphs)
    clock = time.perf_counter_ns
    attempts = []
    start = clock()
    deadline = start + int(seconds * 1e9) if seconds is not None else None
    i = 0
    while True:
        gid = i % n
        if tracer is not None:
            tracer.graph = gid
        r0 = clock()
        reference_loop()
        t0 = clock()
        try:
            out = step(graphs[gid], gid)
        except Exception as exc:  # counted as a failed graph, never fatal
            out = Raised(f"{type(exc).__name__}: {exc}")
        t1 = clock()
        attempts.append((gid, t1 - t0, t0 - r0, out))
        i += 1
        if count is not None and i >= count:
            break
        if deadline is not None and t1 >= deadline and (not whole_passes or i % n == 0):
            break
    return attempts, (t1 - start) / 1e9


def reference_ms(attempts) -> list[float]:
    """Each attempt's step time in ms at reference speed."""
    return [REFERENCE_MS * ns / ref for _, ns, ref, _ in attempts]


def tally(workload, pool, attempts):
    """(failed attempts, {graph index: failure tags}) after checking outputs.

    Each distinct output of a graph is checked once.  A graph whose output
    differs between attempts fails on every attempt.
    """
    cache: dict = {}
    outputs: dict = {}
    for gid, _, _, out in attempts:
        outputs.setdefault(gid, set()).add(out)
        if (gid, out) in cache:
            continue
        if isinstance(out, Raised):
            tags = ["raised:" + out.error.split(":")[0]]
        elif workload == "sweep-small":
            tags = checks.check_sweep(out)
        else:
            tags = checks.check_classify(pool.graphs[gid], out, pool.expect[gid])
        cache[gid, out] = tags
    bad: dict = {}
    failed = 0
    for gid, _, _, out in attempts:
        tags = list(cache[gid, out])
        if len(outputs[gid]) > 1:
            tags.append("unstable-output")
        if tags:
            failed += 1
            bad.setdefault(gid, set()).update(tags)
    return failed, bad


# ---------------------------------------------------------------------------
# metrics

def with_units(values: dict, section: str) -> dict:
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    if set(values) != set(units):
        raise RuntimeError(f"{section} metrics differ from metrics.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def end_to_end(attempts, setup_s, rss_mb, failed) -> dict:
    ms = reference_ms(attempts)
    return with_units({
        "graphs_per_s": 1000 / statistics.mean(ms),
        "graph_ms_p50": statistics.median(ms),
        "graph_ms_p90": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "ok_frac": 1 - failed / len(attempts),
    }, "end_to_end")


def wall_summary(attempts, wall: float) -> str:
    ms = [ns / 1e6 for _, ns, _, _ in attempts]
    ref = statistics.median(r / 1e6 for _, _, r, _ in attempts)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return (f"wall clock: {len(ms)} graphs timed in {wall:.3f} s, p50 {statistics.median(ms):.3f} ms, "
            f"p90 {p90:.3f} ms; reference loop median {ref:.4f} ms (reference speed: {REFERENCE_MS} ms)")


def per_layer(tracer, graphs: int, overhead: float) -> dict:
    st = tracer.self_times()
    total = sum(ns for ns, _ in st.values())

    def secs(name):
        return st.get(name, (0, 0))[0] / 1e9 / graphs

    def calls(name):
        return st.get(name, (0, 0))[1] / graphs

    def share(*names):
        return sum(st.get(name, (0, 0))[0] for name in names) / total

    values = {
        "graph.parse_s": tracer.setup_time("graph.parse"),
        "facets.enumerations_per_graph": tracer.counts["facets.fundamental_sets.calls"] / graphs,
        "facets.fundamental_sets_n": tracer.counts["facets.fundamental_sets.items"] / graphs,
        "lattice.rows_in_n": tracer.counts["lattice.rows_in"] / graphs,
        "trace.overhead_frac": overhead,
        "lattice.share": share("lattice.build", "lattice.kernel_of_form"),
        "graph.chordless_odd_cycles_share": share("graph.chordless_odd_cycles"),
        "facets.fundamental_sets_share": share("facets.fundamental_sets"),
    }
    for layer in (
        "graph.chordless_odd_cycles", "facets.fundamental_sets", "facets.regular_vertices",
        "facets.support_form", "serre.occ", "serre.r1", "serre.connectivity",
        "lattice.build", "lattice.kernel_of_form", "oracle.facet_conditions",
        "oracle.monoid_group", "oracle.verify_even_sum_basis", "oracle.verify_decomposition",
        "oracle.verify_facet_rank", "sweep.cross_check", "cli.render",
    ):
        values[layer + "_s"] = secs(layer)
    for layer in (
        "graph.chordless_odd_cycles", "facets.regular_vertices", "facets.support_form",
        "serre.connectivity", "lattice.build", "lattice.kernel_of_form", "oracle.monoid_group",
    ):
        values[layer + "_n"] = calls(layer)
    return with_units(values, "per_layer")


# ---------------------------------------------------------------------------
# run metadata

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, pool) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": len(pool.graphs),
        "inputs_sha256": pool.digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "commit": git_commit(),
        "load": "closed loop: one process, one thread, one graph at a time",
    }


# ---------------------------------------------------------------------------

def report_failures(pool, bad) -> None:
    for gid in sorted(bad):
        print(f"FAIL {edgering.serialize_graph6(pool.graphs[gid])} {','.join(sorted(bad[gid]))}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STEPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    step_name = workloads.STEPS[args.workload]

    if args.setup_only:
        pool = workloads.build_pool(args.workload, args.seed, ROOT)
        setup_s = (time.perf_counter() - T0) * reference_scale()
        print(json.dumps({"setup_s": setup_s, "inputs_sha256": pool.digest()}))
        return 0

    if not args.trace:
        pool = workloads.build_pool(args.workload, args.seed, ROOT)
        step = getattr(workloads, step_name)
        setup_s = time.perf_counter() - T0
        setup_s *= reference_scale()
        attempts, wall = run_phase(step, pool, seconds=args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, bad = tally(args.workload, pool, attempts)
        metrics = end_to_end(attempts, setup_s, rss_mb, failed)
        print(wall_summary(attempts, wall))
        meta = metadata(args, pool)
    else:
        tracer = Tracer()
        tracer.install(extra=[(workloads, "render", "cli.render"), (workloads, step_name, "bench.graph")])
        try:
            pool = workloads.build_pool(args.workload, args.seed, ROOT)
            tracer.counts.clear()
            traced, _ = run_phase(
                getattr(workloads, step_name), pool,
                seconds=args.seconds / 2, whole_passes=True, tracer=tracer,
            )
        finally:
            tracer.uninstall()
        plain, _ = run_phase(getattr(workloads, step_name), pool, count=len(traced))
        attempts = traced + plain
        failed, bad = tally(args.workload, pool, attempts)
        # a difference is already counted by tally as unstable output
        for (gid, _, _, a), (_, _, _, b) in zip(traced, plain):
            if a != b:
                bad[gid].add("traced-vs-untraced")
        overhead = sum(reference_ms(traced)) / sum(reference_ms(plain)) - 1
        metrics = per_layer(tracer, len(traced), overhead)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}.jsonl"
        tracer.write(spans_path, meta := metadata(args, pool))
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    report_failures(pool, bad)
    print(json.dumps({
        "setup_s": None if args.trace else setup_s,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": metrics,
        "meta": meta,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
