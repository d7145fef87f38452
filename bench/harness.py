"""Measurement core: spans, counts, the closed job loop and metric summaries.

A workload is a fixed list of jobs built from the seed (one "pass").  The
loop runs passes back to back, one job at a time, until the time budget is
spent; the first pass always completes so its results can be digested.
Checks run after each job, outside the job's timed interval.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

perf = time.perf_counter


class NullTracer:
    """Tracing switched off: layer calls go straight to the library."""

    enabled = False

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name: str, job: Any = None, label: str | None = None):
        return _NULL_SPAN

    def add(self, name: str, value: float = 1) -> None:
        pass


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()
NULL = NullTracer()


class Tracer(NullTracer):
    """In-memory spans and counts recorded around calls into each layer.

    A span is ``[name, start, end, parent, job, label]``; ``parent`` is the
    index of the enclosing span or None, ``job`` the id of the job being run.
    Layer spans are named ``<module>.<operation>``.  Counts are kept apart by
    the :func:`group` of the job they were taken in.
    """

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def span(self, name: str, job: Any = None, label: str | None = None):
        return _Span(self, name, job, label)

    def add(self, name: str, value: float = 1) -> None:
        job = self.spans[self._stack[-1]][4] if self._stack else None
        self.counts[group(job)][name] += value

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "job", "label")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def group(job: Any) -> str:
    """The part of a run a job id belongs to: ``setup``, ``tour`` or the pass number.

    Job ids are ``"<pass>:<index>"`` in the closed loop and ``"tour:<index>"``
    in the tour; the input build runs under the id ``setup``.
    """
    return str(job).split(":")[0]


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: Tracer, name: str, job: Any, label: str | None):
        stack = tracer._stack
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = tracer.spans[parent][4]
        self.tracer = tracer
        self.index = len(tracer.spans)
        tracer.spans.append([name, perf(), None, parent, job, label])

    def __enter__(self):
        self.tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer._stack.pop()
        self.tracer.spans[self.index][2] = perf()
        return False


@dataclass
class Job:
    """One unit of closed-loop work: ``kind`` selects run/check/digest."""

    kind: str
    args: tuple


@dataclass
class Kind:
    """How to run one job kind, check its output, and name its visible result.

    ``run(tracer, *args)`` returns the outcome; ``check(outcome, *args)``
    returns a list of failure messages; ``digest(outcome)`` returns the
    user-visible part of the outcome (JSON-serialisable).
    """

    run: Callable
    check: Callable
    digest: Callable


@dataclass
class Loop:
    """Results of the closed job loop.

    ``times[i]`` holds job i's latencies in the untraced passes and
    ``traced_times[i]`` those in the traced passes.
    """

    times: list[list[float]] = field(default_factory=list)
    traced_times: list[list[float]] = field(default_factory=list)
    samples: int = 0
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest_items: list = field(default_factory=list)


def run_job(kinds: dict[str, Kind], job: Job, tracer, job_id, loop: Loop):
    """Run, time and check one job; returns (outcome, seconds), or (None, None) if it raised."""
    kind = kinds[job.kind]
    loop.attempted += 1
    try:
        start = perf()
        with tracer.span("job", job=job_id, label=job.kind):
            outcome = kind.run(tracer, *job.args)
        elapsed = perf() - start
    except Exception as exc:  # a job that raises is a failed job, not a crash
        loop.failed += 1
        loop.failures.append(f"{job.kind}#{job_id}: raised {exc!r}")
        return None, None
    loop.samples += 1
    try:
        problems = kind.check(outcome, *job.args)
    except Exception as exc:
        problems = [f"check raised {exc!r}"]
    if problems:
        loop.failed += 1
        loop.failures.append(f"{job.kind}#{job_id}: " + "; ".join(problems))
    return outcome, elapsed


def closed_loop(
    kinds: dict[str, Kind],
    jobs: list[Job],
    seconds: float,
    traced: Tracer | None = None,
) -> Loop:
    """Run passes over ``jobs`` one job at a time until ``seconds`` have passed.

    Every pass runs the same jobs, so each job's best latency over the passes
    filters out the slow phases of a shared host.  The first pass always
    completes and its visible results form the digest.  With ``traced`` given,
    passes alternate untraced / traced; only the first traced pass records
    into ``traced`` (later ones into a scratch tracer so they cost the same),
    and the run lasts at least one pass of each.
    """
    loop = Loop(times=[[] for _ in jobs], traced_times=[[] for _ in jobs])
    deadline = perf() + seconds
    minimum_passes = 2 if traced is not None else 1
    while loop.passes < minimum_passes or perf() < deadline:
        tracer = NULL
        if traced is not None and loop.passes % 2 == 1:
            tracer = traced if loop.passes == 1 else Tracer()
        for index, job in enumerate(jobs):
            if loop.passes >= minimum_passes and perf() >= deadline:
                return loop
            outcome, elapsed = run_job(kinds, job, tracer, f"{loop.passes}:{index}", loop)
            if elapsed is not None:
                (loop.traced_times if tracer.enabled else loop.times)[index].append(elapsed)
            if loop.passes == 0:
                visible = None if outcome is None else kinds[job.kind].digest(outcome)
                loop.digest_items.append([job.kind, visible])
        loop.passes += 1
    return loop


def best_latencies(loop: Loop, traced: bool = False) -> list[float]:
    """Each job's shortest latency over the passes of one kind (untraced or traced).

    Every pass runs the same jobs, so the shortest time filters out the slow
    bursts of a shared host, which come and go within a second and take
    from a few to most of the passes of a run.
    """
    return [min(t) for t in (loop.traced_times if traced else loop.times) if t]


def throughput(loop: Loop, traced: bool = False) -> float:
    """Jobs per second of one pass in which every job takes its best latency.

    It weighs each job by its cost, where the percentiles only rank them, so
    a slower long job moves it even when the percentiles stay.  The output
    checks, which run between jobs, do not count.
    """
    best = best_latencies(loop, traced)
    return len(best) / sum(best)


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds over an untraced one (best of ``repeats``)."""
    best = math.inf
    for _ in range(repeats):
        tracer = Tracer()
        start = perf()
        for _ in range(calls):
            tracer.call("probe", int)
        traced = perf() - start
        start = perf()
        for _ in range(calls):
            NULL.call("probe", int)
        best = min(best, (traced - (perf() - start)) / calls)
    return best


def digest(items: list) -> str:
    """Short hash of the user-visible results of one pass."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def layer_metrics(tracer: Tracer, groups: set[str]) -> dict[str, float]:
    """Calls and self time summed per span-name prefix, plus median durations,
    over the spans whose job lies in one of ``groups`` (see :func:`group`).

    Keys: ``<prefix>.calls``, ``<prefix>.busy_s`` for every dotted prefix of a
    span name, and ``<name>[<label>].ms`` medians for labelled spans.
    """
    own = tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    labelled: dict[str, list[float]] = defaultdict(list)
    for span, self_time in zip(tracer.spans, own):
        if group(span[4]) not in groups:
            continue
        name = span[0]
        parts = name.split(".")
        for k in range(1, len(parts) + 1):
            prefix = ".".join(parts[:k])
            calls[prefix] += 1
            busy[prefix] += self_time
        key = name if span[5] is None else f"{name}[{span[5]}]"
        labelled[key].append((span[2] - span[1]) * 1000.0)
    out: dict[str, float] = {}
    for prefix in calls:
        out[f"{prefix}.calls"] = calls[prefix]
        out[f"{prefix}.busy_s"] = busy[prefix]
    for key, values in labelled.items():
        out[f"{key}.ms"] = statistics.median(values)
    return out


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    """Machine and toolchain facts recorded beside every result."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode; the record says so
        blas_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }
