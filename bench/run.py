"""Benchmark entry point.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 25 --trace 0

Runs the workload in a fresh single-threaded worker process (worker.py),
preceded with ``--trace 0`` by set-up-only workers so that set-up time is a
median over several fresh processes.  Prints any failing graph as
``FAIL <graph6> <tags>``, the run metadata, one line per metric, and last
one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep-small", "classify-gnp", "classify-bridge")
SETUP_SAMPLES = 7
# a run must end within 180 s; the worker's checks come on top of --seconds
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20


def worker(args, *extra: str, timeout: float) -> dict:
    """Run worker.py; forward its output lines and return its result line."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for needed in ("src/edgering/__init__.py", "tests/data/conn7.g6"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run from a checkout of the repository",
                  file=sys.stderr)
            return 2

    setups = []
    if not args.trace:
        setups = [worker(args, "--setup-only", timeout=SETUP_TIMEOUT_S) for _ in range(SETUP_SAMPLES - 1)]
    result = worker(args, timeout=WORKER_TIMEOUT_S)
    meta = result["meta"]
    metrics = result["metrics"]
    correct = result["failed"] == 0
    if setups:
        samples = [s["setup_s"] for s in setups] + [result["setup_s"]]
        metrics["setup_s"]["value"] = statistics.median(samples)
        if any(s["inputs_sha256"] != meta["inputs_sha256"] for s in setups):
            print("FAIL inputs differ between processes built from the same seed")
            correct = False

    print("# meta " + json.dumps(meta, sort_keys=True))
    print(f"# {result['attempted']} graphs attempted, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.6f})")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
