"""Repeat the benchmark over seeds and summarise each metric's median and spread.

    python3 bench/record.py --out bench/BENCH_1.json

Runs ``bench/run.py`` on every workload of ``BENCHMARK.json`` for seeds
1..10 with tracing off (one run at a time, ``run_seconds`` each), then once
per workload with tracing on (seed 1).  For every end-to-end metric
it reports the median and the interquartile range as a share of the median,
computed like ``statistics.quantiles(values, n=4)``.  Per-layer metrics come
from the traced run.  Progress goes to stderr; the summary to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}: {done.stderr[-500:]}")
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    result["info"] = info
    result["wall_s"] = time.perf_counter() - start
    result["exit"] = done.returncode
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / middle if middle else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result = run_once(workload, seed, seconds, 0)
            runs.append(result)
            print(
                f"{workload} seed {seed}: exit {result['exit']} wall {result['wall_s']:.1f}s "
                f"passes {result['info']['passes']} digest {result['info']['digest']} "
                + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr,
            )
        entry = {
            "metrics": {
                name: {"unit": runs[0]["metrics"][name]["unit"]}
                | spread([r["metrics"][name]["value"] for r in runs])
                for name in runs[0]["metrics"]
            },
            "runs": [
                {
                    "seed": r["info"]["seed"],
                    "digest": r["info"]["digest"],
                    "samples": r["info"]["samples"],
                    "timed_jobs": r["info"]["timed_jobs"],
                    "passes": r["info"]["passes"],
                    "error_rate": r["info"]["error_rate"],
                    "failures": r["info"]["failures"],
                    "wall_s": r["wall_s"],
                }
                for r in runs
            ],
        }
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry["traced"] = {
            "seed": SEEDS[0],
            "digest": traced["info"]["digest"],
            "error_rate": traced["info"]["error_rate"],
            "wall_s": traced["wall_s"],
            "metrics": {k: [v["value"], v["unit"]] for k, v in traced["metrics"].items()},
        }
        print(f"{workload} traced: wall {traced['wall_s']:.1f}s", file=sys.stderr)
        summary["workloads"][workload] = entry
        summary["env"] = runs[0]["info"]["env"]
        for name, m in entry["metrics"].items():
            print(
                f"  {workload:12s} {name:14s} median {m['median']:.4g} {m['unit']:6s} "
                f"iqr/median {m['iqr_share']:.3f}",
                file=sys.stderr,
            )
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
