"""Benchmark entry point: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload trajectories --seed 1 --seconds 38 --trace 0

Runs from a plain checkout without installing: the library is imported from
``src/`` and CLI children get ``PYTHONPATH=src``.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics derived from spans, and the spans are written to
``bench/.runs/``.  The line before it records the results digest, the error
rate, the sample count and the machine.  Exit code 1 means an output check
failed (or the harness crashed); 2 means there is no library to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / ".runs"
WORKLOADS = ("trajectories", "search", "rigidity")
#: Fresh-process set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: Jobs run untimed before measuring, to finish lazy initialisation.
WARMUP_JOBS = 2


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, help="rounds per pass (default: per workload)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import pinnedballs from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "pinnedballs"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run from a pinnedballs checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import pinnedballs

    if Path(pinnedballs.__file__).resolve().parent != package.resolve():
        print(f"error: imported pinnedballs from {pinnedballs.__file__}", file=sys.stderr)
        raise SystemExit(2)


def measure_setup(args, rounds: int) -> float:
    """Median wall time of fresh processes from spawn until inputs are built and warm."""
    times = []
    for _ in range(SETUP_REPEATS):
        argv = [
            sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--rounds", str(rounds), "--setup-only",
        ]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def end_to_end(loop, setup_s: float) -> dict:
    """jobs_per_s and the percentiles all come from each job's best latency
    in the run."""
    import harness

    lat_ms = [t * 1000.0 for t in harness.best_latencies(loop)]
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (harness.throughput(loop), "1/s"),
        "job_ms_p50": (deciles[4], "ms"),
        "job_ms_p90": (deciles[8], "ms"),
        "success_rate": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(tr, loop) -> dict:
    """Every per-layer metric named in BENCHMARK.json, from spans and counts.

    Layer calls, busy times, counts and rates come from the recorded pass
    (pass 1) alone; configs and geometry, which only build inputs, from the
    set-up.  The fixed-scale figures (alpha and certificate times by input,
    io, cli and verify times) come from the tour, the only place the
    benchmark writes and loads files.
    """
    import harness
    from pinnedballs import verify

    m = harness.layer_metrics(tr, {"1"})
    built = harness.layer_metrics(tr, {"setup"})
    fixed = harness.layer_metrics(tr, {"tour"})
    c = tr.counts["1"]

    def get(key, source=m):
        return source.get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def layer(prefix, source=m):
        return {
            f"{prefix}.calls": (get(f"{prefix}.calls", source), "count"),
            f"{prefix}.busy_s": (get(f"{prefix}.busy_s", source), "s"),
        }

    out = {
        "configs.busy_s": (get("configs.busy_s", built), "s"),
        "geometry.calls": (get("geometry.calls", built), "count"),
        "geometry.busy_s": (get("geometry.busy_s", built), "s"),
    }
    out |= layer("dynamics")
    out |= {
        "dynamics.steps": (c["dynamics.steps"], "count"),
        "dynamics.collisions": (c["dynamics.collisions"], "count"),
        "dynamics.useful_ratio": (ratio(c["dynamics.collisions"], c["dynamics.steps"]), "ratio"),
        "dynamics.steps_per_s": (ratio(c["dynamics.steps"], get("dynamics.busy_s")), "1/s"),
        "dynamics.trace_bytes": (c["dynamics.trace_bytes"], "bytes"),
    }
    out |= layer("foldings")
    out |= {
        "foldings.folds": (c["foldings.folds"], "count"),
        "foldings.points": (c["foldings.points"], "count"),
        "foldings.useful_ratio": (ratio(c["foldings.points"], c["foldings.folds"]), "ratio"),
        "foldings.folds_per_s": (ratio(c["foldings.folds"], get("foldings.busy_s")), "1/s"),
    }
    out |= layer("search.exhaustive")
    out |= {
        "search.nodes": (c["search.nodes"], "count"),
        "search.nodes_per_s": (ratio(c["search.nodes"], get("search.exhaustive.busy_s")), "1/s"),
        "search.truncated": (c["search.truncated"], "count"),
        "search.witness_ratio": (ratio(c["search.best_collisions"], c["search.nodes"]), "ratio"),
    }
    out |= layer("search.greedy")
    out["search.greedy.steps_per_s"] = (
        ratio(c["search.greedy.steps"], get("search.greedy.busy_s")), "1/s"
    )
    out |= layer("rigidity.alpha")
    out |= {
        "rigidity.candidates": (c["rigidity.candidates"], "count"),
        "rigidity.candidates_per_s": (ratio(c["rigidity.candidates"], get("rigidity.alpha.busy_s")), "1/s"),
        "rigidity.zero_ratio": (ratio(c["rigidity.zero"], c["rigidity.candidates"]), "ratio"),
    }
    for name in ("flower", "rhombus", "square", "triangle", "chain3"):
        out[f"rigidity.alpha_ms.{name}"] = (get(f"rigidity.alpha[{name}].ms", fixed), "ms")
    out["rigidity.stress.busy_s"] = (get("rigidity.stress.busy_s"), "s")
    out["rigidity.cone.busy_s"] = (get("rigidity.cone.busy_s"), "s")
    out |= layer("lattice.certificate")
    for name in ("p7", "p13"):
        out[f"lattice.certificate_ms.{name}"] = (get(f"lattice.certificate[{name}].ms", fixed), "ms")
    out |= layer("lattice.det")
    out["lattice.dets_per_s"] = (ratio(get("lattice.det.calls"), get("lattice.det.busy_s")), "1/s")
    out |= layer("bounds")
    out |= layer("io", fixed)
    python_s = get("cli.python.ms", fixed) / 1000.0
    out["cli.python_s"] = (python_s, "s")
    out["cli.import_s"] = (get("cli.import.ms", fixed) / 1000.0 - python_s, "s")
    for command in ("validate", "simulate", "alpha", "bound", "orbit", "lattice", "search", "verify"):
        out[f"cli.{command}_ms"] = (get(f"cli.{command}.ms", fixed), "ms")
    out["cli.output_bytes"] = (tr.counts["tour"]["cli.output_bytes"], "bytes")
    for check in verify.ALL_CHECKS:
        name = check.__name__.removeprefix("check_")
        out[f"verify.{name}_ms"] = (get(f"verify.{name}.ms", fixed), "ms")
    plain_jps = harness.throughput(loop, traced=False)
    traced_jps = harness.throughput(loop, traced=True)
    out["trace.jobs_per_s.untraced"] = (plain_jps, "1/s")
    out["trace.jobs_per_s.traced"] = (traced_jps, "1/s")
    out["trace.overhead"] = (1.0 - traced_jps / plain_jps, "ratio")
    # The same overhead from first principles: spans in the recorded pass
    # times the cost of one span, over that pass's job time.
    recorded = [s for s in tr.spans if str(s[4]).startswith("1:")]
    pass_s = sum(s[2] - s[1] for s in recorded if s[0] == "job")
    span_s = harness.span_cost()
    out["trace.span_us"] = (span_s * 1e6, "us")
    out["trace.overhead_estimate"] = (len(recorded) * span_s / pass_s, "ratio")
    out["trace.spans"] = (len(tr.spans), "count")
    return out


def main(argv=None) -> int:
    args = parse(argv)
    # One caller, one job at a time: keep BLAS to one thread (<= nproc).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_library()
    import numpy as np

    import harness
    import workloads

    rounds = args.rounds or workloads.ROUNDS[args.workload]
    workdir = RUNS / f"work-{os.getpid()}"
    tr = harness.Tracer() if args.trace else harness.NULL
    try:
        with tr.span("setup", job="setup"):
            jobs = workloads.build(args.workload, tr, np.random.default_rng(args.seed), rounds)
        for job in jobs[:WARMUP_JOBS]:
            workloads.KINDS[job.kind].run(harness.NULL, *job.args)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        setup_s = 0.0 if args.trace else measure_setup(args, rounds)
        loop = harness.closed_loop(
            workloads.KINDS, jobs, args.seconds, traced=tr if args.trace else None
        )
        attempted, failed, failures = loop.attempted, loop.failed, loop.failures
        if args.trace:
            with tr.span("tour", job="tour"):
                tour = workloads.build_tour(
                    tr, np.random.default_rng([args.seed, 1]), workdir / "tour", ROOT
                )
            tour_loop = harness.Loop()
            for index, job in enumerate(tour):
                harness.run_job(workloads.KINDS, job, tr, f"tour:{index}", tour_loop)
            attempted += tour_loop.attempted
            failed += tour_loop.failed
            failures = failures + tour_loop.failures
            metrics = per_layer(tr, loop)
            tr.write(RUNS / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            metrics = end_to_end(loop, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": harness.digest(loop.digest_items),
        "error_rate": failed / attempted,
        "samples": sum(1 for t in loop.times if t),
        "timed_jobs": loop.samples,
        "passes": loop.passes,
        "jobs_per_pass": len(jobs),
        "failures": failures[:10],
        "env": harness.environment(ROOT),
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
