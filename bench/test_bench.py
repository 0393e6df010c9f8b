"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import worker
import workloads
from tracer import TARGETS, Tracer
from worker import BENCH, ROOT, run_phase, tally

from edgering import serre

SMALL = 4  # graphs per workload in the in-process tests


def small_pool(workload: str, seed: int = 1) -> workloads.Pool:
    pool = workloads.build_pool(workload, seed, ROOT)
    return workloads.Pool(pool.graphs[:SMALL], pool.expect[:SMALL])


@pytest.mark.parametrize("workload", sorted(workloads.STEPS))
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.build_pool(workload, 7, ROOT)
    again = workloads.build_pool(workload, 7, ROOT)
    other = workloads.build_pool(workload, 8, ROOT)
    assert first.graph6_lines() == again.graph6_lines()
    assert first.expect == again.expect
    assert first.graph6_lines() != other.graph6_lines()
    assert len(first.graphs) >= 40


def test_same_seed_gives_identical_inputs_across_processes():
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", "classify-bridge", "--seed", "7",
           "--seconds", "1", "--trace", "0", "--setup-only"]
    digests = {json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
                          .stdout.splitlines()[-1])["inputs_sha256"] for _ in range(2)}
    assert digests == {workloads.classify_bridge_pool(7).digest()}


def test_flipped_r1_is_counted_as_failed():
    pool = small_pool("classify-bridge")
    g = pool.graphs[0]
    report = serre.classify(g)
    good = workloads.render("#0", g, report)
    flipped = workloads.render("#0", g, dataclasses.replace(report, r1=not report.r1))
    assert tally("classify-bridge", pool, [(0, 1, 1, good)]) == (0, {})
    failed, bad = tally("classify-bridge", pool, [(0, 1, 1, flipped), (1, 1, 1, workloads.classify_step(pool.graphs[1], 1))])
    assert failed == 1
    assert {"r1-vs-oracle", "bridge-verdict"} <= bad[0]
    metrics = worker.end_to_end([(0, 1, 1, flipped), (1, 1, 1, "")], 0.1, 1.0, failed)
    assert metrics["ok_frac"]["value"] == 0.5


def test_sweep_failure_tags_are_counted():
    pool = small_pool("sweep-small")
    out = workloads.sweep_step(pool.graphs[0], 0)
    assert out[0] == 1 and out[3] == ()
    failed, bad = tally("sweep-small", pool, [(0, 1, 1, out), (0, 1, 1, out[:3] + (("verdict-mismatch",),))])
    assert failed == 2  # a bad tag, and outputs that differ between attempts
    assert bad[0] == {"verdict-mismatch", "unstable-output"}


def test_occ_witness_check_rejects_wrong_cycles():
    from checks import is_occ_witness
    from edgering import bridge_graph

    g = bridge_graph(2)
    assert is_occ_witness(g, ((1, 2, 3), (4, 5, 6)))
    assert not is_occ_witness(g, ((1, 2, 3), (3, 4, 7)))  # shares vertex 3
    assert not is_occ_witness(g, ((1, 2, 3), (4, 7, 3)))
    assert not is_occ_witness(g, ((1, 2, 3),))


@pytest.mark.parametrize("workload", sorted(workloads.STEPS))
def test_traced_outputs_equal_untraced_and_wrappers_are_removed(workload):
    pool = small_pool(workload)
    step_name = workloads.STEPS[workload]
    originals = [owner.__dict__[attr] for owner, attr, _ in TARGETS]
    plain, _ = run_phase(getattr(workloads, step_name), pool, count=SMALL)
    tracer = Tracer()
    tracer.install(extra=[(workloads, "render", "cli.render"), (workloads, step_name, "bench.graph")])
    try:
        traced, _ = run_phase(getattr(workloads, step_name), pool, count=SMALL, tracer=tracer)
    finally:
        tracer.uninstall()
    assert [out for *_, out in traced] == [out for *_, out in plain]
    assert tally(workload, pool, traced + plain)[0] == 0
    assert [owner.__dict__[attr] for owner, attr, _ in TARGETS] == originals
    assert getattr(workloads, step_name).__module__ == "workloads"
    times = tracer.self_times()
    assert times["bench.graph"][1] == SMALL
    assert all(ns >= 0 for ns, _ in times.values())
    metrics = worker.per_layer(tracer, SMALL, 0.0)
    assert {m["name"] for m in worker.SPEC["per_layer"]} == set(metrics)


def test_benchmark_json_matches_metrics_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = worker.SPEC
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["workloads"] == [{k: w[k] for k in ("name", "why")} for w in spec["workloads"]]
    assert bench["end_to_end"] == [{k: m[k] for k in ("name", "unit", "better", "bound")} for m in spec["end_to_end"]]
    assert bench["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")} for m in spec["per_layer"]]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.STEPS) == list(run.WORKLOADS)
    moved = {m["metric"] for layer in spec["per_layer"] for m in layer["moves"]}
    assert moved - {"none (flat)", "none (tracing is off in end-to-end runs)"} <= {m["name"] for m in spec["end_to_end"]}


def test_run_prints_result_last():
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "classify-bridge", "--seed", "3", "--seconds", "0.2"]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run(cmd + ["--trace", trace], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in worker.SPEC[section]]


def test_run_fails_without_the_program():
    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-small", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
