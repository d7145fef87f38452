"""The three workloads, the fixed layer tour, and their job kinds.

Each ``build_*`` function takes a seeded generator and returns one pass of
jobs.  Job kinds are mixed in fixed proportions per round, and costly inputs
(edge counts, certificate sizes) are drawn to fixed quotas, so the work in a
pass depends on the seed only through details that barely move its cost.
Every call into the library goes through the tracer under the name
``<module>.<operation>``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
from harness import Job, Kind
from pinnedballs import (
    bounds,
    configs,
    dynamics,
    foldings,
    geometry,
    io,
    lattice,
    rigidity,
    search,
    verify,
)
from pinnedballs.errors import BudgetExceededError

# Search budgets, fixed so heavy-tailed states are cut the same way every run.
DEPTH_CAP = 20
MAX_BRANCH_EDGES = 10
MAX_NODES = 150
#: Step cap for policy schedules that have not stabilized.
POLICY_CAP = 5000
#: Steps of each explicit run, and of the one long run per trajectories pass.
EXPLICIT_RUN = 1000
LONG_RUN = 20_000
#: Lattice patches: radius 2 holds 7 discs, radius 3.5 holds 13.
PATCH_RADII = {"p7": 2.0, "p13": 3.5}
#: Edges kept from each patch for a certificate (cost grows with this).
PATCH_EDGES = {"p7": 8, "p13": 12}
#: Draws made for each input that needs a set edge count.
EDGE_DRAWS = 8
#: A cli call that takes longer than this has hung.
CLI_TIMEOUT_S = 120

NAMED = {
    "pair": configs.touching_pair,
    "chain3": lambda: configs.collinear_chain(3),
    "triangle": configs.triangle,
    "square": configs.square,
    "rhombus": configs.rhombus,
    "flower": configs.hexagonal_flower,
}
DESK = {
    "chain4": lambda: configs.collinear_chain(4, 2),
    "triangle": configs.triangle,
    "square": configs.square,
    "rhombus": configs.rhombus,
}


# --- inputs -------------------------------------------------------------------


def random_system(tr, rng, n: int, d: int):
    config = tr.call(
        "configs.random_contact_configuration",
        configs.random_contact_configuration, n, d, rng, style="mixed",
    )
    state = tr.call("search.sample_unit_state", search.sample_unit_state, n, d, rng)
    config, state = tr.call("geometry.normalize_system", geometry.normalize_system, config, state)
    graph = tr.call("geometry.full_contact_graph", geometry.full_contact_graph, config)
    return config, state, graph


def system_with_edges(tr, rng, edges: int):
    """Random configuration (d = 2 or 3) whose contact graph has exactly ``edges`` edges.

    Makes EDGE_DRAWS ``mixed`` draws of the size most likely to fit and keeps
    the first that fits.  It makes every draw even after a fit, so the cost
    does not depend on the seed.  If no draw fits, it takes a random tree on
    ``edges + 1`` balls, which always does.  Returns (config, graph).
    """
    n = int(0.8 * edges) + 1
    found = None
    for _ in range(EDGE_DRAWS):
        d = int(rng.integers(2, 4))
        config = tr.call(
            "configs.random_contact_configuration",
            configs.random_contact_configuration, n, d, rng, style="mixed",
        )
        graph = tr.call("geometry.full_contact_graph", geometry.full_contact_graph, config)
        if found is None and len(graph.edges) == edges:
            found = config, graph
    if found is None:
        config = tr.call(
            "configs.random_contact_configuration",
            configs.random_contact_configuration, edges + 1, int(rng.integers(2, 4)), rng,
        )
        found = config, tr.call("geometry.full_contact_graph", geometry.full_contact_graph, config)
    return found


def named_system(tr, rng, name: str):
    config = tr.call(f"configs.{name}", DESK[name])
    state = tr.call(
        "search.sample_unit_state", search.sample_unit_state, config.n, config.dimension, rng
    )
    config, state = tr.call("geometry.normalize_system", geometry.normalize_system, config, state)
    graph = tr.call("geometry.full_contact_graph", geometry.full_contact_graph, config)
    return config, state, graph


def halfspace_family(rng):
    """Random half-spaces of R^d sharing an interior witness, and a start point."""
    d = int(rng.integers(2, 6))
    m = int(rng.integers(2, 9))
    witness = rng.standard_normal(d)
    witness /= np.linalg.norm(witness)
    normals = []
    while len(normals) < m:
        h = rng.standard_normal(d)
        h /= np.linalg.norm(h)
        if h @ witness < 0:
            h = -h
        if h @ witness > 1e-3:
            normals.append(foldings.HalfSpace(h))
    return normals, witness, rng.standard_normal(d) * 2.0


def patch(tr, name: str):
    points = tr.call("lattice.points_in_radius", lattice.lattice_points_in_radius, PATCH_RADII[name])
    edges = tr.call("lattice.contact_edges", lattice.contact_edges, points)
    config = tr.call("lattice.configuration", lattice.lattice_configuration, points)
    return points, edges, config


def conforming_matrix(rng, m: int):
    """Square Z[sqrt(3)] matrix whose columns fit the admissible patterns."""
    qi = lattice.QuadraticInteger
    cols = []
    for _ in range(m):
        col = [lattice.QI_ZERO] * m
        kind = int(rng.integers(3)) if m >= 4 else int(rng.integers(2))
        if kind == 0:
            col[int(rng.integers(m))] = lattice.QI_ONE
        elif kind == 1:
            i, j = rng.choice(m, size=2, replace=False)
            col[int(i)], col[int(j)] = qi(2, 0), qi(-2, 0)
        else:
            idx = rng.choice(m, size=4, replace=False)
            signs = rng.choice([-1, 1], size=4)
            col[int(idx[0])] = qi(int(signs[0]), 0)
            col[int(idx[1])] = qi(int(signs[1]), 0)
            col[int(idx[2])] = qi(0, int(signs[2]))
            col[int(idx[3])] = qi(0, int(signs[3]))
        cols.append(col)
    return [[cols[j][i] for j in range(m)] for i in range(m)]


def independent_subset(config, graph):
    """Greedy maximal subset of edges with independent collision directions."""
    subset, cols = [], []
    for e in graph.edges:
        trial = cols + [geometry.collision_direction(config, e).vector]
        if np.linalg.matrix_rank(np.column_stack(trial), tol=rigidity.RANK_TOLERANCE) == len(trial):
            subset.append(e)
            cols = trial
    return subset


# --- trajectories -----------------------------------------------------------


def run_schedule(tr, config, state, graph, schedule, max_steps):
    trace = tr.call(
        "dynamics.run_schedule",
        dynamics.run_schedule, config, state, schedule, max_steps=max_steps, graph=graph,
    )
    tr.add("dynamics.steps", trace.steps)
    tr.add("dynamics.collisions", trace.collisions)
    tr.add(
        "dynamics.trace_bytes",
        trace.states.nbytes + trace.changed.nbytes + trace.functional.nbytes + trace.energies.nbytes,
    )
    return trace


def check_schedule(trace, config, state, graph, schedule, max_steps):
    problems = checks.trace_problems(config, trace)
    if schedule.kind != "explicit":
        if trace.stabilized:
            problems += checks.stable_problems(config, graph, trace.states[-1])
        elif trace.steps != max_steps:
            problems.append("policy run stopped before stabilizing or reaching its cap")
    return problems


def greedy(tr, config, state, graph):
    result = tr.call("search.greedy", search.greedy_schedule, config, state, graph=graph)
    tr.add("search.greedy.steps", result.nodes_explored)
    return result


def check_greedy(result, config, state, graph):
    problems = checks.replay_problems(config, state, graph, result)
    if result.collisions != len(result.witness):
        problems.append("greedy witness has steps that do not collide")
    return problems


def orbit(tr, start, halfspaces, schedule, witness):
    result = tr.call("foldings.orbit", foldings.orbit, start, halfspaces, schedule, witness=witness)
    tr.add("foldings.folds", result.steps)
    tr.add("foldings.points", result.size)
    return result


def adversarial(tr, m):
    halfspaces, start, schedule = tr.call(
        "foldings.adversarial_two_halfplanes", foldings.adversarial_two_halfplanes, m
    )
    witness = sum(h.normal for h in halfspaces)
    witness = witness / np.linalg.norm(witness)
    return m, orbit(tr, start, halfspaces, schedule, witness), halfspaces, schedule


def check_adversarial(outcome, m):
    m, result, halfspaces, schedule = outcome
    problems = checks.orbit_problems(result, halfspaces, schedule)
    if result.size <= m:
        problems.append(f"adversarial orbit has {result.size} <= {m} points")
    return problems


def explicit_job(tr, rng, n, d, length):
    config, state, graph = random_system(tr, rng, n, d)
    picks = rng.integers(len(graph.edges), size=length)
    schedule = dynamics.Schedule.explicit([graph.edges[k] for k in picks])
    return Job("explicit", (config, state, graph, schedule, None))


def build_trajectories(tr, rng, rounds: int) -> list[Job]:
    """Per round: 5 explicit runs of EXPLICIT_RUN steps and 2 of twice that, 1
    seeded-random and 1 round-robin policy run, 1 greedy run, 1 random-family
    orbit and 1 adversarial orbit.  Each pass ends with one explicit run of
    LONG_RUN steps on a fixed-size system, whose recorded trace sets the peak
    memory.

    An explicit run's cost is set by its step count.  The median falls among
    the single-length runs and the 90th percentile in the middle of the
    double-length ones, not at the slow end of a group of equal jobs, where
    the figure would follow the host's noise."""
    jobs = []

    def system():
        return random_system(tr, rng, int(rng.integers(5, 11)), int(rng.integers(2, 4)))

    for _ in range(rounds):
        for length in [EXPLICIT_RUN] * 5 + [2 * EXPLICIT_RUN] * 2:
            n, d = int(rng.integers(5, 11)), int(rng.integers(2, 4))
            jobs.append(explicit_job(tr, rng, n, d, length))
        config, state, graph = system()
        schedule = dynamics.Schedule.seeded_random(int(rng.integers(2**31)))
        jobs.append(Job("seeded-random", (config, state, graph, schedule, POLICY_CAP)))
        config, state, graph = system()
        jobs.append(Job("round-robin", (config, state, graph, dynamics.Schedule.round_robin(), POLICY_CAP)))
        jobs.append(Job("greedy", system()))
        halfspaces, witness, start = halfspace_family(rng)
        policy = (
            foldings.FoldingSchedule.round_robin()
            if rng.random() < 0.5
            else foldings.FoldingSchedule.seeded_random(int(rng.integers(2**31)))
        )
        jobs.append(Job("orbit", (start, halfspaces, policy, witness)))
        jobs.append(Job("adversarial", (int(rng.integers(10, 101)),)))
    jobs.append(explicit_job(tr, rng, 10, 3, LONG_RUN))
    return jobs


# --- search -------------------------------------------------------------------


def exhaustive(tr, config, state, graph):
    try:
        result = tr.call(
            "search.exhaustive",
            search.exhaustive_max_collisions, config, state, DEPTH_CAP, graph=graph,
            max_branch_edges=MAX_BRANCH_EDGES, max_nodes=MAX_NODES,
        )
    except BudgetExceededError as exc:  # a truncated search is an outcome
        result = exc.best
    tr.add("search.nodes", result.nodes_explored)
    tr.add("search.best_collisions", result.collisions)
    tr.add("search.truncated", int(result.truncated))
    return result


def check_exhaustive(result, config, state, graph):
    return checks.replay_problems(config, state, graph, result)


def build_search(tr, rng, rounds: int) -> list[Job]:
    """Per round: exhaustive search on the four desk families and on four random
    mixed graphs with 5..10 edges, plus two greedy runs on two of those inputs."""
    jobs = []
    for r in range(rounds):
        inputs = [named_system(tr, rng, name) for name in DESK]
        while len(inputs) < 8:
            system = random_system(tr, rng, int(rng.integers(4, 9)), int(rng.integers(2, 4)))
            if 5 <= len(system[2].edges) <= MAX_BRANCH_EDGES:
                inputs.append(system)
        jobs.extend(Job("exhaustive", args) for args in inputs)
        jobs.append(Job("greedy", inputs[r % 4]))
        jobs.append(Job("greedy", inputs[4 + r % 4]))
    return jobs


# --- rigidity ---------------------------------------------------------------


def alpha(tr, config, name):
    with tr.span("rigidity.alpha", label=name):
        report = rigidity.alpha(config, collect_table=False)
    tr.add("rigidity.candidates", report.n_candidates)
    tr.add("rigidity.zero", report.n_zero)
    n, d = config.n, config.dimension
    tau, _ = tr.call("bounds.resolve_tau", bounds.resolve_tau, d)
    general = tr.call("bounds.max_collisions_bound", bounds.max_collisions_bound, n, d, report.alpha, tau)
    tree = tr.call("bounds.tree_bound", bounds.tree_bound, n, d)
    return report, general, tree


def check_alpha(outcome, config, name):
    report, general, tree = outcome
    return checks.alpha_problems(config, report, name) + checks.bound_problems(general, tree)


def stress(tr, candidates):
    return [
        tr.call("rigidity.stress", rigidity.stress_certificate, config, edges, chosen)
        for config, edges, chosen in candidates
    ]


def check_stress(certs, candidates):
    return [p for cert, cand in zip(certs, candidates) for p in checks.stress_problems(*cand, cert)]


def cone(tr, config, graph, subset, alpha_value, seed):
    return tr.call(
        "rigidity.cone",
        rigidity.spherical_vertex_check, config, graph, subset, alpha_value=alpha_value, seed=seed,
    )


def check_cone(report, *args):
    if not (report.vertices_ok and report.samples_ok):
        return [f"cone inequalities fail: vertices {report.vertices_ok}, samples {report.samples_ok}"]
    return []


def certificate(tr, points, edges, chosen, config, name):
    with tr.span("lattice.certificate", label=name):
        value, data = lattice.exact_alpha_certificate(points, edges, chosen)
    report = tr.call("bounds.lattice_bound", bounds.lattice_bound, len(points))
    return value, data, report


def check_certificate(outcome, points, edges, chosen, config, name):
    value, data, report = outcome
    return checks.certificate_problems(config, edges, chosen, value, data) + checks.bound_problems(
        report.exact
    )


def det(tr, matrices):
    return [tr.call("lattice.det", lattice.exact_determinant, m) for m in matrices]


def check_det(values, matrices):
    return [p for v, m in zip(values, matrices) for p in checks.determinant_problems(m, v)]


def certificate_job(rng, patches, name):
    points, edges, config = patches[name]
    keep = sorted(rng.choice(len(edges), size=PATCH_EDGES[name], replace=False))
    subset = [edges[k] for k in keep]
    chosen = subset[int(rng.integers(len(subset)))]
    return Job("certificate", (points, subset, chosen, config, name))


def build_rigidity(tr, rng, rounds: int) -> list[Job]:
    """Per round (100 jobs): alpha on the six named configurations (the flower
    has 12 edges), on random graphs with 4 (8 of them), 5 (20), 6 (8), 7 (1),
    8 (7), 9 and 10 edges (one each); 1 certificate on the 13-disc
    patch and 3 on the 7-disc patch; 10 jobs of 3 stress certificates on zero
    candidates; 15 cone checks (three each on graphs with 3..7 edges); and 19
    jobs of 6 exact determinants (sizes 3..8).

    The counts place the median job inside the 5-edge alpha group and the
    90th percentile in the middle of the 8-edge one.  An alpha's cost is set
    by its edge count, so neither the percentiles nor the set-up cost (which
    computes alpha for each cone input) move with the seed."""
    patches = {name: patch(tr, name) for name in PATCH_RADII}
    zero = []
    for name, (points, edges, config) in patches.items():
        for e in edges:
            if rigidity.alpha_star(config, edges, e) <= checks.ZERO_TOL:
                zero.append((config, edges, e))
    jobs = []
    for _ in range(rounds):
        for name in NAMED:
            jobs.append(Job("alpha", (tr.call(f"configs.{name}", NAMED[name]), name)))
        for edges in [4] * 8 + [5] * 20 + [6] * 8 + [7] + [8] * 7 + [9, 10]:
            jobs.append(Job("alpha", (system_with_edges(tr, rng, edges)[0], None)))
        jobs.append(certificate_job(rng, patches, "p13"))
        jobs.extend(certificate_job(rng, patches, "p7") for _ in range(3))
        for _ in range(10):
            jobs.append(Job("stress", ([zero[int(k)] for k in rng.integers(len(zero), size=3)],)))
        for edges in [3, 4, 5, 6, 7] * 3:
            config, graph = system_with_edges(tr, rng, edges)
            value = tr.call("rigidity.alpha", rigidity.alpha, config, collect_table=False).alpha
            subset = independent_subset(config, graph)
            jobs.append(Job("cone", (config, graph, subset, value, int(rng.integers(2**31)))))
        for _ in range(19):
            jobs.append(Job("det", ([conforming_matrix(rng, m) for m in range(3, 9)],)))
    return jobs


# --- cli ----------------------------------------------------------------------

CLI_COMMANDS = ("validate", "simulate", "alpha", "bound", "orbit", "lattice", "search", "verify")


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, root: Path) -> subprocess.CompletedProcess:
    """Run ``python argv`` from the checkout and wait for it; a hung child is killed."""
    return subprocess.run(
        [sys.executable, *argv], cwd=root, env=cli_env(root),
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )


def run_cli(tr, command, argv, loads, root, workdir, spec):
    """One fresh-process CLI call; the traced run also times its loads in-process."""
    if tr.enabled:
        for loader, path in loads:
            tr.call(f"io.{loader}", getattr(io, loader), path)
    with tr.span(f"cli.{command}"):
        done = spawn(argv, root)
    tr.add("cli.output_bytes", len(done.stdout))
    return done


def _report(done):
    if done.returncode != 0:
        raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()[-200:]}")
    return json.loads(done.stdout)


def _load_system(path, normalize):
    config, state = io.load_configuration(path)
    if normalize:
        config, state = geometry.normalize_system(config, state)
    return config, state


def check_cli(done, command, argv, loads, root, workdir, spec):
    """Compare the CLI's report with the same computation done in-process."""
    try:
        if command == "verify":
            if done.returncode != 0 or any(
                not line.startswith("PASS") for line in done.stdout.splitlines()
            ):
                return [f"verify failed: {done.stdout.strip()[-200:]}"]
            return []
        out = _report(done)
    except (RuntimeError, ValueError) as exc:
        return [str(exc)]
    if command == "validate":
        config, _ = io.load_configuration(spec["config"])
        edges = [[i + 1, j + 1] for i, j in geometry.full_contact_graph(config).edges]
        return [] if out["valid"] and out["touching_pairs"] == edges else ["touching pairs differ"]
    if command == "simulate":
        config, state = _load_system(spec["config"], True)
        trace = dynamics.run_schedule(config, state, io.load_schedule(spec["schedule"]))
        problems = checks.trace_problems(config, trace)
        if (out["collisions"], out["steps"]) != (trace.collisions, trace.steps):
            problems.append("collision count differs from the in-process run")
        return problems
    if command == "alpha":
        config, _ = io.load_configuration(spec["config"])
        report = rigidity.alpha(config, collect_table=False)
        if abs(out["alpha"] - report.alpha) > checks.ALPHA_TOL:
            return [f"alpha {out['alpha']} vs in-process {report.alpha}"]
        return checks.alpha_problems(config, report, None)
    if command == "bound":
        expect = spec["bound"]()
        if abs(out["log2_bound"] - expect) > 1e-9 * max(1.0, abs(expect)):
            return [f"log2 bound {out['log2_bound']} vs in-process {expect}"]
        return []
    if command == "orbit":
        halfspaces = io.load_halfspaces(spec["halfspaces"])
        schedule = foldings.FoldingSchedule.round_robin()
        result = foldings.orbit(spec["start"], halfspaces, schedule, witness=spec["witness"])
        problems = checks.orbit_problems(result, halfspaces, schedule)
        if out["size"] != result.size:
            problems.append(f"orbit size {out['size']} vs in-process {result.size}")
        return problems
    if command == "lattice":
        points = lattice.lattice_points_in_radius(spec["radius"])
        edges = lattice.contact_edges(points)
        if (out["count"], len(out["touching_pairs"])) != (len(points), len(edges)):
            return ["lattice counts differ from in-process"]
        return []
    if command == "search":
        config, state = _load_system(spec["config"], True)
        result = search.exhaustive_max_collisions(config, state, DEPTH_CAP)
        problems = checks.replay_problems(config, state, geometry.full_contact_graph(config), result)
        if out["collisions"] != result.collisions:
            problems.append(f"{out['collisions']} collisions vs in-process {result.collisions}")
        if "bound" in out and not out["bound"]["within"]:
            problems.append("search count exceeds its bound")
        return problems
    return [f"unknown command {command}"]


def digest_cli(done):
    try:
        out = json.loads(done.stdout)
    except ValueError:
        return [done.returncode, done.stdout.count("PASS")]
    keys = ("valid", "touching_pairs", "collisions", "alpha", "log2_bound", "size", "count")
    return [done.returncode] + [
        round(out[k], 9) if isinstance(out.get(k), float) else out.get(k) for k in keys
    ]


def build_cli(tr, rng, workdir: Path, root: Path) -> list[Job]:
    """One call of each subcommand on files written here (``bound`` once in
    each of its three modes), and two of ``verify --quick``, the heaviest call
    users make."""
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    cli = ("-m", "pinnedballs.cli")

    def fresh(stem):
        return str(workdir / f"{stem}{len(jobs)}.json")

    def save(config, state=None):
        path = fresh("config")
        tr.call("io.save_configuration", io.save_configuration, path, config, state)
        return path

    def add(command, args, spec, loads=()):
        argv = (*cli, *args)
        jobs.append(Job(f"cli.{command}", (command, argv, tuple(loads), root, workdir, spec)))

    config, _, _ = random_system(tr, rng, int(rng.integers(4, 9)), int(rng.integers(2, 4)))
    path = save(config)
    add("validate", ("validate", path), {"config": path}, [("load_configuration", path)])

    config, state, graph = random_system(tr, rng, int(rng.integers(4, 8)), int(rng.integers(2, 4)))
    path = save(config, state)
    sched = fresh("schedule")
    picks = rng.integers(len(graph.edges), size=300)
    tr.call("io.save_schedule", io.save_schedule, sched, [graph.edges[k] for k in picks])
    add(
        "simulate", ("simulate", path, sched, "--normalize"),
        {"config": path, "schedule": sched},
        [("load_configuration", path), ("load_schedule", sched)],
    )

    config = system_with_edges(tr, rng, int(rng.integers(3, 8)))[0]
    path = save(config)
    add("alpha", ("alpha", path), {"config": path}, [("load_configuration", path)])

    for mode in ("tree", "lattice", "general"):
        n, d = int(rng.integers(2, 20)), int(rng.integers(2, 4))
        if mode == "tree":
            args = ("bound", "--mode", "tree", "--n", str(n), "--d", str(d))
            expect = lambda n=n, d=d: bounds.tree_bound(n, d).log2_bound
        elif mode == "lattice":
            args = ("bound", "--mode", "lattice", "--n", str(n))
            expect = lambda n=n: bounds.lattice_bound(n).exact.log2_bound
        else:
            a = float(rng.uniform(0.05, 1.0))
            args = ("bound", "--mode", "general", "--n", str(n), "--d", str(d), "--alpha", repr(a))
            expect = lambda n=n, d=d, a=a: bounds.max_collisions_bound(
                n, d, a, bounds.resolve_tau(d)[0]
            ).log2_bound
        add("bound", args, {"bound": expect})

    halfspaces, witness, start = halfspace_family(rng)
    hpath = fresh("halfspaces")
    tr.call("io.save_halfspaces", io.save_halfspaces, hpath, halfspaces)
    add(
        "orbit",
        ("orbit", hpath, "--start", json.dumps(start.tolist()), "--witness", json.dumps(witness.tolist())),
        {"halfspaces": hpath, "start": start, "witness": witness},
        [("load_halfspaces", hpath)],
    )

    radius = float(rng.uniform(2.0, 6.0))
    add("lattice", ("lattice", "--radius", repr(radius)), {"radius": radius})

    config, state, _ = named_system(tr, rng, "triangle")
    path = save(config, state)
    args = ("search", path, "--method", "exhaustive", "--depth-cap", str(DEPTH_CAP), "--with-bound")
    add("search", args, {"config": path}, [("load_configuration", path)])

    for _ in range(2):
        add("verify", ("verify", "--quick", "--seed", str(int(rng.integers(2**31)))), {})
    return jobs


# --- the fixed layer tour -------------------------------------------------------


def probe(tr, name, argv, root, workdir):
    """Bare interpreter start, or interpreter start plus the CLI import."""
    with tr.span(name):
        return spawn(argv, root)


def check_probe(done, *args):
    return [] if done.returncode == 0 else [f"probe exit {done.returncode}"]


def run_verify(tr, check, seed):
    with tr.span(f"verify.{check.__name__.removeprefix('check_')}"):
        return check(np.random.default_rng(seed))


def build_tour(tr, rng, workdir: Path, root: Path) -> list[Job]:
    """Fixed-scale calls into every layer, run after the traced passes.

    It supplies the per-layer figures that need a set scale (alpha on named
    configurations, certificate sizes, each CLI command, each verify check,
    interpreter and import floors) and gives every layer a nonzero share.
    """
    jobs = build_cli(tr, rng, workdir, root)
    for _ in range(3):
        jobs.append(Job("probe", ("cli.python", ("-c", "pass"), root, workdir)))
        jobs.append(Job("probe", ("cli.import", ("-c", "import pinnedballs.cli"), root, workdir)))
    for check in verify.ALL_CHECKS:
        jobs.append(Job("verify", (check, int(rng.integers(2**31)))))
    for name in ("flower", "rhombus", "square", "triangle", "chain3"):
        jobs.append(Job("alpha", (tr.call(f"configs.{name}", NAMED[name]), name)))
    patches = {name: patch(tr, name) for name in PATCH_RADII}
    jobs += [certificate_job(rng, patches, name) for name in PATCH_RADII]
    points, edges, config = patches["p7"]
    jobs.append(Job("stress", ([(config, edges, edges[0])],)))
    jobs.append(Job("det", ([conforming_matrix(rng, 6)],)))
    config, state, graph = named_system(tr, rng, "rhombus")
    value = tr.call("rigidity.alpha", rigidity.alpha, config, collect_table=False).alpha
    jobs.append(Job("cone", (config, graph, independent_subset(config, graph), value, 0)))
    jobs.append(Job("exhaustive", (config, state, graph)))
    jobs.append(Job("greedy", (config, state, graph)))
    jobs.append(explicit_job(tr, rng, 6, 2, 500))
    halfspaces, witness, start = halfspace_family(rng)
    jobs.append(Job("orbit", (start, halfspaces, foldings.FoldingSchedule.round_robin(), witness)))
    return jobs


# --- registry -------------------------------------------------------------------


def _trace_digest(trace):
    return [trace.collisions, trace.steps, trace.stabilized]


def _search_digest(result):
    return [result.collisions, result.truncated]


_schedule_kind = Kind(run_schedule, check_schedule, _trace_digest)

KINDS: dict[str, Kind] = {
    "explicit": _schedule_kind,
    "seeded-random": _schedule_kind,
    "round-robin": _schedule_kind,
    "greedy": Kind(greedy, check_greedy, _search_digest),
    "orbit": Kind(
        orbit,
        lambda result, start, hs, schedule, witness: checks.orbit_problems(result, hs, schedule),
        lambda result: [result.size, result.steps],
    ),
    "adversarial": Kind(adversarial, check_adversarial, lambda o: [o[1].size, o[1].steps]),
    "exhaustive": Kind(exhaustive, check_exhaustive, _search_digest),
    "alpha": Kind(alpha, check_alpha, lambda o: [round(o[0].alpha, 9), round(o[1].log2_bound, 6)]),
    "stress": Kind(stress, check_stress, lambda certs: None),
    "cone": Kind(cone, check_cone, lambda r: [r.vertices_ok, r.samples_ok]),
    "certificate": Kind(certificate, check_certificate, lambda o: [o[1].r1, o[1].r2]),
    "det": Kind(det, check_det, lambda values: [[v.r1, v.r2] for v in values]),
    "probe": Kind(probe, check_probe, lambda done: done.returncode),
    "verify": Kind(
        run_verify,
        lambda result, *a: [] if result.passed else [f"{result.name}: {result.detail}"],
        lambda result: result.passed,
    ),
}
for _command in CLI_COMMANDS:
    KINDS[f"cli.{_command}"] = Kind(run_cli, check_cli, digest_cli)

WORKLOADS = ("trajectories", "search", "rigidity")

#: Rounds in one pass.  A pass takes 1.5-4 s on a 2-core Xeon host, so a run
#: makes 8 or more and each job's best latency over them filters out the
#: host's slow bursts.  Trajectories, search and rigidity keep at least 100
#: jobs in a pass, so that 10 lie beyond the 90th percentile.
ROUNDS = {"trajectories": 10, "search": 50, "rigidity": 1}


def build(workload: str, tr, rng, rounds: int) -> list[Job]:
    if workload == "trajectories":
        return build_trajectories(tr, rng, rounds)
    if workload == "search":
        return build_search(tr, rng, rounds)
    return build_rigidity(tr, rng, rounds)
