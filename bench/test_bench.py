"""Self-tests of the benchmark harness at tiny scale.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    done = run_bench(
        "--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
        "--rounds", "1",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def tiny_pass(seed: int, tracer=harness.NULL):
    return workloads.build_trajectories(tracer, np.random.default_rng(seed), 1)


def test_wrong_result_lands_in_error_rate():
    kinds = dict(workloads.KINDS)
    right = kinds["greedy"]

    def off_by_one(tr, *args):
        result = right.run(tr, *args)
        return dataclasses.replace(result, collisions=result.collisions + 1)

    kinds["greedy"] = harness.Kind(off_by_one, right.check, right.digest)
    jobs = tiny_pass(3)
    loop = harness.closed_loop(kinds, jobs, seconds=0.0)
    assert loop.failed == sum(job.kind == "greedy" for job in jobs) == 1
    assert "witness replays" in loop.failures[0]
    assert loop.attempted == len(jobs)


def test_digest_and_work_counts_repeat_for_a_seed():
    digests, counts = [], []
    for _ in range(2):
        tracer = harness.Tracer()
        loop = harness.closed_loop(workloads.KINDS, tiny_pass(5), seconds=0.0, traced=tracer)
        digests.append(harness.digest(loop.digest_items))
        counts.append(dict(tracer.counts["1"]))
    assert digests[0] == digests[1]
    assert counts[0] == counts[1] and counts[0]["dynamics.steps"] > 0
    other = harness.closed_loop(workloads.KINDS, tiny_pass(6), seconds=0.0)
    assert harness.digest(other.digest_items) != digests[0]


def test_refuses_to_run_without_the_library():
    bare = BENCH / ".runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
        done = run_bench("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_layer_figures_keep_setup_tour_and_pass_apart():
    tracer = harness.Tracer()
    with tracer.span("setup", job="setup"):
        tracer.call("dynamics.run_schedule", int)
    for job in ("1:0", "tour:0"):
        with tracer.span("job", job=job):
            tracer.call("dynamics.run_schedule", int)
            tracer.add("dynamics.steps", 5)
    assert harness.layer_metrics(tracer, {"1"})["dynamics.calls"] == 1
    assert harness.layer_metrics(tracer, {"setup", "tour"})["dynamics.calls"] == 2
    assert tracer.counts["1"]["dynamics.steps"] == tracer.counts["tour"]["dynamics.steps"] == 5


def test_jobs_per_s_and_percentiles_use_each_jobs_best_latency_of_its_kind():
    loop = harness.Loop(times=[[0.3, 0.1], [0.2, 0.4]], traced_times=[[0.5], [0.5]])
    assert harness.best_latencies(loop) == [0.1, 0.2]
    assert harness.throughput(loop) == pytest.approx(2 / 0.3)
    assert harness.throughput(loop, traced=True) == pytest.approx(2.0)
