"""Command-line front end: validate | simulate | alpha | bound | orbit | lattice | search | verify.

Each subcommand returns its report and the fields of its run manifest;
``main`` stamps the manifest (command, version, wall clock, then inputs,
seeds and tolerances) into every report and emits it.  Reports use 1-based
ball indices.  Exit codes: 0 success, 1 domain error, 2 usage error, 141 when
the reader of stdout closes it early.  Randomized commands without an
explicit --seed draw one from entropy and record it in the manifest; a run
that uses no seed records null.  A negative --seed is a domain error for every
command that takes the flag, whether or not its run draws from it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import secrets
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, bounds, dynamics, foldings, geometry, io, lattice
from . import rigidity, search, verify as verify_mod
from .errors import BudgetExceededError, PinnedBallsError


def _manifest(args: argparse.Namespace, started: float, **extra) -> dict:
    return {
        "command": args.command,
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "wall_clock_s": round(time.monotonic() - started, 6),
        **extra,
    }


class _StdoutClosed(Exception):
    """The reader of stdout went away, as ``| head`` does: not a domain error."""


def _print(text: str) -> None:
    """Print a line to stdout and flush it.  A closed stdout raises
    :class:`_StdoutClosed` here, not in the flush at exit, so that ``main``
    tells it apart from a broken pipe in any other file."""
    try:
        print(text, flush=True)
    except BrokenPipeError as exc:
        raise _StdoutClosed from exc


def _emit(report: dict, output: str | None) -> None:
    """Write the report as strict JSON: a NaN or infinite value raises ValueError."""
    text = json.dumps(report, indent=2, allow_nan=False)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        _print(text)


def _resolve_seed(seed: int | None) -> int:
    """The --seed given, or one drawn from entropy."""
    return secrets.randbelow(2**31) if seed is None else seed


def _bound_report(bound: bounds.BoundReport) -> dict:
    """The bound's fields in declaration order; the exponent as a fraction and a float."""
    out = {}
    for name, value in vars(bound).items():
        if name == "exponent":
            out.update(exponent=str(value), exponent_value=float(value))
        else:
            out[name] = value
    return out


def _search_report(result: search.SearchResult) -> dict:
    """The result's fields in declaration order; the bound comparison only when made."""
    out = dict(vars(result), witness=io.one_based(result.witness))
    if (bound := out.pop("bound")) is not None:
        out["bound"] = dict(vars(bound))
    return out


def _require_flags(args, *names: str) -> None:
    """Raise a domain error naming each of these flags that was not given."""
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise PinnedBallsError(f"{args.mode} mode needs {' and '.join(missing)}")


def _cmd_validate(args) -> tuple[dict, dict]:
    config, state = io.load_configuration(args.config)
    graph = geometry.full_contact_graph(config)
    report = {
        "valid": True,
        "n": config.n,
        "dimension": config.dimension,
        "contact_tolerance": config.contact_tolerance,
        "touching_pairs": io.one_based(graph.edges),
        "connected": graph.is_connected,
        "has_velocities": state is not None,
    }
    return report, {"inputs": [args.config]}


def _cmd_simulate(args) -> tuple[dict, dict]:
    config, state = io.load_configuration(args.config)
    if state is None:
        raise PinnedBallsError("configuration file has no velocities")
    if args.normalize:
        config, state = geometry.normalize_system(config, state)
    schedule = io.load_schedule(args.schedule)
    trace = dynamics.run_schedule(config, state, schedule, max_steps=args.max_steps)
    report = {
        "collisions": trace.collisions,
        "steps": trace.steps,
        "stabilized": trace.stabilized,
        "initial": {"F": float(trace.functional[0]), "energy": float(trace.energies[0])},
        "final": {"F": float(trace.functional[-1]), "energy": float(trace.energies[-1])},
        "trace_file": args.trace,
    }
    if args.trace:
        json.dumps(report, allow_nan=False)  # a report that is not JSON leaves no trace file
        io.write_trace_jsonl(args.trace, trace)
    return report, {"inputs": [args.config, args.schedule]}


def _cmd_alpha(args) -> tuple[dict, dict]:
    config, _ = io.load_configuration(args.config)
    result = rigidity.alpha(config, zero_tolerance=args.zero_tolerance, budget=args.budget,
                            collect_table=args.verbose)
    # the result's fields in declaration order; the candidates only when collected
    report = dict(vars(result), argmin_edge=io.one_based([result.argmin_edge])[0],
                  argmin_edges=io.one_based(result.argmin_edges))
    if (candidates := report.pop("candidates")) is not None:
        report["candidates"] = [
            dict(vars(c), edge=io.one_based([c.edge])[0], others=io.one_based(c.others))
            for c in candidates
        ]
    return report, {"inputs": [args.config], "tolerances": {"zero_tolerance": args.zero_tolerance}}


def _cmd_bound(args) -> tuple[dict, dict]:
    # --tau reads alike for every d; checked before any alpha is computed
    try:
        bounds.resolve_tau(1, args.tau)
    except ValueError as exc:
        raise PinnedBallsError(f"--tau: {exc}") from None
    inputs = []
    if args.mode == "tree":
        _require_flags(args, "n", "d")
        report = _bound_report(bounds.tree_bound(args.n, args.d, args.tree_constant, args.tau))
    elif args.mode == "lattice":
        _require_flags(args, "n")
        result = bounds.lattice_bound(args.n)
        report = _bound_report(result.exact)
        # the floor is subnormal from n = 127 and 0.0 from n = 133: its log2 stands for it
        if report["alpha"] < sys.float_info.min:
            report["alpha"] = None
        report.update(alpha_log2=lattice.lattice_alpha_lower_bound_log2(args.n),
                      rounded_log2=result.rounded_log2,
                      exact_below_rounded=result.exact_below_rounded)
    else:
        if args.alpha_from:
            config, _ = io.load_configuration(args.alpha_from)
            inputs.append(args.alpha_from)
            alpha_value, alpha_source = rigidity.alpha(config).alpha, "hyperplanes"
            n, d = config.n, config.dimension
        else:
            if args.alpha is None:
                raise PinnedBallsError("general mode needs --alpha or --alpha-from")
            _require_flags(args, "n", "d")
            alpha_value, alpha_source = args.alpha, "user-value"
            n, d = args.n, args.d
        tau, tau_source = bounds.resolve_tau(d, args.tau)
        report = _bound_report(bounds.max_collisions_bound(
            n, d, alpha_value, tau, alpha_source=alpha_source, tau_source=tau_source
        ))
    report["mode"] = args.mode
    return report, {"inputs": inputs}


def _cmd_orbit(args) -> tuple[dict, dict]:
    halfspaces = io.load_halfspaces(args.halfspaces)
    start = io.parse_point("--start", args.start)
    witness = io.parse_point("--witness", args.witness)
    seed = None
    if args.policy == "seeded-random":
        seed = _resolve_seed(args.seed)
        schedule = foldings.FoldingSchedule.seeded_random(seed)
    elif args.policy == "round-robin":
        schedule = foldings.FoldingSchedule.round_robin()
    else:
        try:
            word = tuple(int(x) for x in args.word.split(","))
        except ValueError:
            raise PinnedBallsError(
                f"--policy periodic needs --word, comma-separated integers; got {args.word!r}"
            ) from None
        schedule = foldings.FoldingSchedule.periodic(word)
    result = foldings.orbit(start, halfspaces, schedule, budget=args.budget, witness=witness)
    report = {
        "size": result.size,
        "stabilization_index": result.stabilization_index,
        "steps": result.steps,
        "final": result.final.tolist(),
        "points": result.points.tolist(),
    }
    return report, {"inputs": [args.halfspaces], "seed": seed}


def _cmd_lattice(args) -> tuple[dict, dict]:
    points = lattice.lattice_points_in_radius(args.radius)
    edges = lattice.contact_edges(points)
    if args.save_config:
        io.save_configuration(args.save_config, lattice.lattice_configuration(points))
    report = {
        "radius": args.radius,
        "count": len(points),
        "points_exact": [[p.a, p.b] for p in points],
        "centers": [p.xy().tolist() for p in points],
        "touching_pairs": io.one_based(edges),
        "alpha_floor_log2": lattice.lattice_alpha_lower_bound_log2(len(points)) if points else None,
    }
    return report, {"inputs": []}


def _cmd_search(args) -> tuple[dict, dict]:
    if args.depth_cap < 0:
        raise ValueError(f"--depth-cap must be non-negative, got {args.depth_cap}")
    config, state = io.load_configuration(args.config)
    # only a sweep, or a start state drawn for a file without velocities, is random
    seed = _resolve_seed(args.seed) if args.method == "sweep" or state is None else None
    fields = {"inputs": [args.config], "seed": seed}
    if args.method == "sweep":
        sweep = search.velocity_sweep(config, args.samples, seed, depth_cap=args.depth_cap)
        rows = [_search_report(r) for r in sweep.rows]
        return {"samples": len(rows), "best": sweep.best, "rows": rows}, fields
    if state is None:
        state = search.sample_unit_state(config.n, config.dimension, np.random.default_rng(seed))
    config, state = geometry.normalize_system(config, state)
    if args.method == "greedy":
        result = search.greedy_schedule(config, state)
    else:
        try:
            result = search.exhaustive_max_collisions(config, state, depth_cap=args.depth_cap)
        except BudgetExceededError as exc:
            result = exc.best
    if args.with_bound:
        tau, tau_source = bounds.resolve_tau(config.dimension)
        bound = bounds.max_collisions_bound(
            config.n, config.dimension, rigidity.alpha(config).alpha, tau,
            alpha_source="hyperplanes", tau_source=tau_source,
        )
        result = search.compare_with_bound(result, bound)
    return _search_report(result), fields


def _cmd_verify(args) -> tuple[dict, dict]:
    """Prints one PASS or FAIL line per check; ``main`` writes the JSON
    summary only to ``--output`` and exits 1 on any failure."""
    seed = _resolve_seed(args.seed)
    results = verify_mod.run_all(seed=seed, quick=args.quick)
    for r in results:
        _print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    report = {
        "checks": len(results),
        "failures": sum(not r.passed for r in results),
        "results": [dict(vars(r), passed=bool(r.passed)) for r in results],
    }
    return report, {"inputs": [], "seed": seed}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinnedballs",
        description="Pinned-ball pseudo-collision dynamics, rigidity index, and collision bounds.",
    )
    parser.add_argument("--output", help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a configuration file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("simulate", help="run an explicit schedule and emit the trace")
    p.add_argument("config")
    p.add_argument("schedule")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--trace", help="write a JSON-lines trace to this path")
    p.add_argument("--normalize", action="store_true", help="normalize the system first")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("alpha", help="approximate-rigidity index alpha")
    p.add_argument("config")
    p.add_argument("--zero-tolerance", type=float, default=rigidity.DEFAULT_ZERO_TOLERANCE)
    p.add_argument(
        "--budget", type=int, default=rigidity.DEFAULT_BUDGET,
        help="most search nodes and cocircuits",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="list every (cocircuit, edge) candidate: the edge, the hyperplane and the value",
    )
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("bound", help="collision-count bounds")
    p.add_argument("--mode", choices=["general", "tree", "lattice"], default="general")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--alpha-from", help="compute alpha from this configuration")
    p.add_argument("--tau", default="exact", help="exact | upper | lower | value:<int>")
    p.add_argument("--tree-constant", choices=["nominal", "corrected"], default="corrected")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("orbit", help="folding orbit of a half-space family")
    p.add_argument("halfspaces")
    p.add_argument("--start", required=True, help="JSON list, e.g. '[1,0]'")
    p.add_argument("--witness", required=True, help="JSON list with positive margin")
    p.add_argument(
        "--policy", choices=["round-robin", "periodic", "seeded-random"],
        default="round-robin",
    )
    p.add_argument("--word", default="", help="comma-separated indices for periodic policy")
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("lattice", help="triangular-lattice configurations")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--save-config", help="also write the floating configuration here")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("search", help="empirical maximum collision counts")
    p.add_argument("config")
    p.add_argument("--method", choices=["exhaustive", "greedy", "sweep"], default="exhaustive")
    p.add_argument("--depth-cap", type=int, default=20)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--seed", type=int)
    p.add_argument("--with-bound", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run the aggregated invariant suite")
    p.add_argument("--seed", type=int)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def _single_blas_thread() -> None:
    """Run the OpenBLAS that numpy loaded on one thread; a no-op where numpy
    ships no such library.  A command makes one small factorization at a
    time, which a second BLAS thread only stalls (an SVD of the 31-disc
    patch took about 95 ms on two threads and 1 ms on one, on a 2-core
    x86-64 machine)."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        set_threads = getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


def main(argv: list[str] | None = None) -> int:
    _single_blas_thread()
    parser = build_parser()
    args = parser.parse_args(argv)
    verify = args.command == "verify"  # its report on stdout is its PASS and FAIL lines
    started = time.monotonic()
    try:
        # checked for every command that takes it, whether or not the run draws from it
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise PinnedBallsError(f"--seed must be non-negative, got {args.seed}")
        report, fields = args.func(args)
        report["manifest"] = _manifest(args, started, **fields)
        if args.output or not verify:
            _emit(report, args.output)
    except _StdoutClosed:
        return _closed_stdout()
    except (PinnedBallsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if verify and report["failures"] else 0


def _closed_stdout() -> int:
    """Points the closed stdout at the null device, so the flush at exit
    raises nothing, and returns 141 (128 + SIGPIPE), the status a shell
    reports for coreutils."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a stdout with no descriptor
        return 141
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)
    return 141


if __name__ == "__main__":
    sys.exit(main())
