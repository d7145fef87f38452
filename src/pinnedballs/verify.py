"""The invariant checks behind the `verify` CLI subcommand and the acceptance suite.

Each check is the one definition of an invariant family of the paper, and its
keyword arguments set its scale.  There is one set of checks at three scales:
quick (``verify --quick``, the keyword arguments in ``QUICK_SCALE``), default
(``verify`` and a bare ``check(rng)``) and acceptance (the full-scale keyword
arguments in ``tests/test_acceptance.py``).  A check draws only from the
generator it is given.
"""

from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable

import numpy as np

from . import bounds, configs, dynamics, foldings, geometry, lattice, rigidity, search
from .errors import BudgetExceededError

#: Largest allowed deviation of each entry of :func:`trace_deviations`.
TRACE_TOLERANCES = (1e-12, 1e-12, 1e-9, 1e-9, 1e-9)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_system(rng, n_max=6, d_max=3):
    """A random touching configuration of 2..n_max balls in 1..d_max dimensions
    (a tree in one dimension) and a random unit state, centred and normalized."""
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    style = "mixed" if d >= 2 else "tree"
    config = configs.random_contact_configuration(n, d, rng, style=style)
    state = search.sample_unit_state(n, d, rng)
    return geometry.normalize_system(config, state)


def check_folding_collision_equivalence(
    rng, rounds=400, states_per_config=1, n_max=5
) -> CheckResult:
    """`collide` and `collide_as_folding` agree on ``states_per_config`` fresh
    unit states, each with a random edge, on each of ``rounds`` configurations."""
    worst = 0.0
    for _ in range(rounds):
        config, _ = random_system(rng, n_max)
        edges = geometry.full_contact_graph(config).edges
        for _ in range(states_per_config):
            state = search.sample_unit_state(config.n, config.dimension, rng)
            edge = edges[int(rng.integers(len(edges)))]
            a = dynamics.collide(config, state, edge)
            b = dynamics.collide_as_folding(config, state, edge)
            worst = max(worst, float(np.max(np.abs(a.values - b.values))))
    return CheckResult(
        "folding-collision-equivalence",
        worst <= 1e-12,
        f"{rounds * states_per_config} triples, max deviation {worst:.3g}",
    )


def trace_deviations(config, trace) -> tuple[float, float, float, float, float]:
    """Worst deviations along one trace, in the order of ``TRACE_TOLERANCES``.

    They are the energy and momentum drifts, the largest drop of F, and the
    misfit of each step's jump in F against 4n |v_i' - v_i| and, on steps that
    change the state, against 2n (v_j - v_i) . (x_i - x_j).
    """
    n = config.n
    blocks = trace.states.reshape(-1, n, config.dimension)
    momenta = blocks.sum(axis=1)
    delta_f = np.diff(trace.functional)
    steps = np.arange(len(trace.edges))
    i_idx, j_idx = np.array(trace.edges, dtype=int).reshape(-1, 2).T
    jump1 = 4.0 * n * np.linalg.norm(blocks[steps + 1, i_idx] - blocks[steps, i_idx], axis=1)
    changed = trace.changed
    vi = blocks[steps, i_idx][changed]
    vj = blocks[steps, j_idx][changed]
    dx = config.centers[i_idx[changed]] - config.centers[j_idx[changed]]
    jump2 = 2.0 * n * np.sum((vj - vi) * dx, axis=1)
    return (
        float(np.max(np.abs(trace.energies - trace.energies[0]))),
        float(np.max(np.abs(momenta - momenta[0]))),
        float(np.max(-delta_f, initial=0.0)),
        float(np.max(np.abs(delta_f - jump1), initial=0.0)),
        float(np.max(np.abs(delta_f[changed] - jump2), initial=0.0)),
    )


def check_conservation_and_monotonicity(
    rng, traces=30, lengths=(50, 300), long_length=1000, n_max=5
) -> CheckResult:
    """:func:`trace_deviations` stay within ``TRACE_TOLERANCES`` on explicit
    schedules of random edges: every tenth trace, from the first, has
    ``long_length`` steps and the others a length drawn from ``lengths``."""
    worst = [0.0] * len(TRACE_TOLERANCES)
    for k in range(traces):
        config, state = random_system(rng, n_max)
        length = long_length if k % 10 == 0 else int(rng.integers(lengths[0], lengths[1] + 1))
        graph = geometry.full_contact_graph(config)
        edge_idx = rng.integers(len(graph.edges), size=length)
        schedule = dynamics.Schedule.explicit([graph.edges[int(e)] for e in edge_idx])
        trace = dynamics.run_schedule(config, state, schedule, graph=graph)
        worst = [max(w, v) for w, v in zip(worst, trace_deviations(config, trace))]
    energy, momentum, drop, jump1, jump2 = worst
    return CheckResult(
        "conservation-and-monotonicity",
        all(w <= tol for w, tol in zip(worst, TRACE_TOLERANCES)),
        f"{traces} traces: energy {energy:.2g}, momentum {momentum:.2g}, "
        f"F drop {drop:.2g}, jumps {jump1:.2g}/{jump2:.2g}",
    )


def check_orbit_stabilization(rng, families=100) -> CheckResult:
    """Round-robin orbits of random half-space families with a common interior
    witness stabilize; ``orbit`` raises BudgetExceededError on one that does not."""
    longest = largest = 0
    for _ in range(families):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 6))
        witness = rng.standard_normal(d)
        witness /= np.linalg.norm(witness)
        normals = []
        while len(normals) < m:
            h = rng.standard_normal(d)
            h /= np.linalg.norm(h)
            if h @ witness < 0:
                h = -h
            if h @ witness > 1e-3:
                normals.append(h)
        result = foldings.orbit(
            rng.standard_normal(d) * 2.0,
            [foldings.HalfSpace(h) for h in normals],
            foldings.FoldingSchedule.round_robin(),
            budget=1_000_000,
            witness=witness,
        )
        longest = max(longest, result.steps)
        largest = max(largest, result.size)
    return CheckResult(
        "orbit-stabilization",
        True,
        f"{families} orbits stabilized, longest run {longest} folds, largest size {largest}",
    )


def check_adversarial_orbits(rng, sizes=(10, 100)) -> CheckResult:
    found = {}
    for m in sizes:
        halfspaces, start, schedule = foldings.adversarial_two_halfplanes(m)
        witness = halfspaces[0].normal + halfspaces[1].normal
        witness /= np.linalg.norm(witness)
        found[m] = foldings.orbit(start, halfspaces, schedule, witness=witness).size
    return CheckResult(
        "adversarial-orbits", all(found[m] > m for m in sizes), f"orbit sizes {found}"
    )


def check_alpha_desk_values(rng) -> CheckResult:
    pair = rigidity.alpha(configs.touching_pair()).alpha
    chain = rigidity.alpha(configs.collinear_chain(3)).alpha
    tri = rigidity.alpha(configs.triangle()).alpha
    ok = (
        pair == 1.0
        and abs(chain - math.sqrt(3.0) / 2.0) <= 1e-12
        and abs(tri - 3.0 / math.sqrt(10.0)) <= 1e-12
    )
    return CheckResult(
        "alpha-desk-values",
        ok,
        f"pair {pair}, chain {chain:.15f}, triangle {tri:.15f}",
    )


def check_tree_alpha_floor(rng, rounds=25, n_max=6) -> CheckResult:
    """alpha >= sqrt(2)/n holds on trees, while the nominal 4/n floor fails on
    some, the 3-chain among them.  The trees are the 3-chain and ``rounds - 1``
    random trees of 2..n_max balls in 1..3 dimensions."""
    trees = [configs.collinear_chain(3)]
    for _ in range(rounds - 1):
        n = int(rng.integers(2, n_max + 1))
        d = int(rng.integers(1, 4))
        trees.append(configs.random_contact_configuration(n, d, rng, style="tree"))
    values = [rigidity.alpha(config).alpha for config in trees]
    slack = min(value - math.sqrt(2.0) / c.n for value, c in zip(values, trees))
    flagged = [value < 4.0 / c.n - 1e-9 for value, c in zip(values, trees)]
    chain = "incl. the 3-chain" if flagged[0] else "not the 3-chain"
    return CheckResult(
        "tree-alpha-floor",
        slack >= -1e-9 and flagged[0],
        f"{rounds} trees, min slack {slack:.3g} over sqrt(2)/n; "
        f"4/n failed on {sum(flagged)} instances, {chain}",
    )


def _random_conforming_matrix(rng, m):
    cols = []
    for _ in range(m):
        kind = rng.choice(["a", "b", "c"])
        col = [lattice.QI_ZERO] * m
        if kind == "b" and m >= 2:
            i, j = rng.choice(m, size=2, replace=False)
            col[int(i)] = lattice.QuadraticInteger(2, 0)
            col[int(j)] = lattice.QuadraticInteger(-2, 0)
        elif kind == "c" and m >= 4:
            idx = rng.choice(m, size=4, replace=False)
            for k, unit in zip(idx, ((1, 0), (1, 0), (0, 1), (0, 1))):
                sign = int(rng.choice([-1, 1]))
                col[int(k)] = lattice.QuadraticInteger(sign * unit[0], sign * unit[1])
        else:
            col[int(rng.integers(m))] = lattice.QI_ONE
        cols.append(col)
    return [[cols[j][i] for j in range(m)] for i in range(m)]


def check_lattice_determinants(rng, rounds=150, m_max=6) -> CheckResult:
    """The determinant bounds on random conforming m x m matrices, m <= m_max,
    and the agreement of the cofactor and fraction-free determinants."""
    for _ in range(rounds):
        m = int(rng.integers(1, m_max + 1))
        matrix = _random_conforming_matrix(rng, m)
        report = lattice.verify_det_bound(matrix)
        dual = lattice.exact_determinant(matrix, method="bareiss")
        if not report.all_ok or dual != report.determinant:
            return CheckResult("lattice-determinant-bounds", False, f"failed at m={m}")
    return CheckResult(
        "lattice-determinant-bounds",
        True,
        f"{rounds} random conforming matrices, m <= {m_max}",
    )


def check_convergents(rng) -> CheckResult:
    """For k <= 50 the convergents h/g of sqrt(3) obey the Pell identity
    |h^2 - 3 g^2| in {1, 2}, the gap |sqrt(3) - h/g| > 1/(g (g' + g)) with g'
    the next denominator, and g <= 3 times the previous one, all in integers.

    The gap is |h^2 - 3 g^2| / (g (g sqrt(3) + h)), so the inequality reads
    x > g sqrt(3) with x = |h^2 - 3 g^2| (g' + g) - h, that is x > 0 and
    x^2 > 3 g^2."""
    pairs = lattice.sqrt3_convergents(51)
    for k in range(51):
        h, g = pairs[k].h, pairs[k].g
        pell = abs(h * h - 3 * g * g)
        if pell not in (1, 2):
            return CheckResult("sqrt3-convergents", False, f"Pell identity fails at k={k}")
        x = pell * (pairs[k + 1].g + g) - h
        if not (x > 0 and x * x > 3 * g * g):
            return CheckResult("sqrt3-convergents", False, f"inequality fails at k={k}")
        if k >= 1 and g > 3 * pairs[k - 1].g:
            return CheckResult("sqrt3-convergents", False, f"growth fails at k={k}")
    return CheckResult("sqrt3-convergents", True, "k <= 50 in exact integers")


def check_quadratic_lower_bound(rng, limit=500) -> CheckResult:
    """The certified floor on |r sqrt(3) - p| over 1 <= r <= B and integers p
    holds at B = 1, 10, 100, ... below ``limit`` and at ``limit``, in exact
    integers, for both integers p next to r sqrt(3).

    With the floor u/v as an exact fraction, u/v <= |3 r^2 - p^2| /
    (r sqrt(3) + p) reads y >= u r sqrt(3) with y = |3 r^2 - p^2| v - u p,
    that is y >= 0 and y^2 >= 3 u^2 r^2."""
    for bound_at in sorted({10**k for k in range(len(str(limit)))} | {limit}):
        u, v = lattice.quadratic_lower_bound(bound_at).as_integer_ratio()
        for r in range(1, bound_at + 1):
            below = math.isqrt(3 * r * r)
            for p in (below, below + 1):
                y = abs(3 * r * r - p * p) * v - u * p
                if y < 0 or y * y < 3 * u * u * r * r:
                    return CheckResult(
                        "quadratic-lower-bound",
                        False,
                        f"certified bound at B={bound_at} exceeds |r sqrt(3) - p| at r={r}, p={p}",
                    )
    return CheckResult("quadratic-lower-bound", True, f"exact scan up to B={limit}")


def check_certificates_vs_alpha(rng, points=3, max_size=3) -> CheckResult:
    """Exact Gram-determinant certificates exceed the float alpha* by at most
    1e-9 and, when positive, never fall below the lattice floor, on every
    contact-bearing subset of at most ``max_size`` of the first ``points``
    discs of the 7-disc hexagonal patch."""
    patch = lattice.lattice_points_in_radius(2.1)[:points]
    checked = below = 0
    worst = -math.inf
    for size in range(2, max_size + 1):
        for subset in itertools.combinations(patch, size):
            edges = lattice.contact_edges(list(subset))
            if not edges:
                continue
            config = lattice.lattice_configuration(list(subset))
            floor = lattice.lattice_alpha_lower_bound(size)
            for chosen in edges:
                cert, _ = lattice.exact_alpha_certificate(list(subset), edges, chosen)
                worst = max(worst, cert - rigidity.alpha_star(config, edges, chosen))
                below += 0 < cert < floor
                checked += 1
    return CheckResult(
        "exact-certificates",
        worst <= 1e-9 and below == 0,
        f"{checked} certificates, {below} below the lattice floor, max excess {worst:.3g}",
    )


def check_bound_consistency(rng, n_max=8) -> CheckResult:
    """The tree bases of both constant modes and the lattice base against the
    general base at their alpha floors, exact below rounded lattice bounds for
    n <= n_max, and log-space bounds against a 60-digit decimal evaluation of
    the same formula."""
    failures = []
    floors = {"nominal": lambda n: 4.0 / n, "corrected": lambda n: math.sqrt(2.0) / n}
    for (mode, floor), n, d in itertools.product(floors.items(), (2, 3, 5, 8, 13), (1, 2, 3)):
        tree = bounds.tree_bound(n, d, mode)
        if abs(tree.log2_base - bounds.general_base_log2(n, d, floor(n))) > 1e-9:
            failures.append(f"{mode} tree base at n={n}, d={d}")
    for n in range(1, n_max + 1):
        report = bounds.lattice_bound(n)
        substituted = bounds.general_base_log2(n, 2, lattice.lattice_alpha_lower_bound(n))
        if abs(report.exact.log2_base - substituted) > 1e-9:
            failures.append(f"lattice base at n={n}")
        if not report.exact_below_rounded:
            failures.append(f"exact >= rounded at n={n}")
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for n, d, a, tau in ((2, 1, 1.0, 2), (4, 2, 0.01, 6), (6, 3, 1e-9, 12)):
            report = bounds.max_collisions_bound(n, d, a, tau)
            # ln(2^{21/2} d n^5 / a), a's binary value taken exactly
            ln_base = Decimal(2).ln() * Decimal("10.5") + (Decimal(d) * n**5 / Decimal(a)).ln()
            exponent = Decimal(report.exponent.numerator) / report.exponent.denominator
            exact = float(ln_base / Decimal(2).ln() * exponent)
            if abs(report.log2_bound - exact) > 1e-9 * max(1.0, abs(exact)):
                failures.append(f"60-digit mismatch at n={n}")
    return CheckResult(
        "bound-consistency",
        not failures,
        f"failed: {', '.join(failures)}" if failures
        else f"tree (both modes) and lattice bases at their floors, exact < rounded to n={n_max}, "
        "60-digit agreement",
    )


def check_decomposition(rng, rounds=150, n_max=5) -> CheckResult:
    worst_fixed = worst_norm = 0.0
    for _ in range(rounds):
        config, state = random_system(rng, n_max)
        graph = geometry.full_contact_graph(config)
        edge = graph.edges[int(rng.integers(len(graph.edges)))]
        fixed, span = dynamics.decompose_state(config, graph, state)
        after = dynamics.collide(config, state, edge)
        fixed2, span2 = dynamics.decompose_state(config, graph, after)
        worst_fixed = max(worst_fixed, float(np.max(np.abs(fixed.values - fixed2.values))))
        drift = abs(np.linalg.norm(span.values) - np.linalg.norm(span2.values))
        worst_norm = max(worst_norm, drift)
    return CheckResult(
        "state-decomposition",
        worst_fixed <= 1e-12 and worst_norm <= 1e-12,
        f"{rounds} cases: fixed drift {worst_fixed:.2g}, span norm drift {worst_norm:.2g}",
    )


def check_witness_margins(rng, rounds=60) -> CheckResult:
    worst = math.inf
    for _ in range(rounds):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        style = "mixed" if d >= 2 else "tree"
        config = configs.random_contact_configuration(n, d, rng, style=style)
        _, margin = geometry.interior_witness(config)
        floor = 2.0 ** (-1.5) / (n * (n - 1) ** 2)
        worst = min(worst, margin - floor)
    return CheckResult(
        "interior-witness-margin", worst >= -1e-12, f"min slack {worst:.3g}"
    )


def check_search_bound_sanity(
    rng, battery=None, random_configs=0, states=1, depth_cap=14
) -> CheckResult:
    """Exhaustive-search counts stay within the collision bound on each (name,
    configuration) of ``battery``, then on ``random_configs`` random planar
    4-ball ones, from ``states`` random unit states (plus the head-on state in
    one dimension); for n >= 3 in d >= 2 the detail says whether n^3/27 was met."""
    if battery is None:
        battery = [("chain-3", configs.collinear_chain(3)), ("triangle", configs.triangle())]
    battery = list(battery)
    for k in range(random_configs):
        config = configs.random_contact_configuration(4, 2, rng, style="mixed")
        battery.append((f"random-4-{k}", config))
    searched = exceeded = 0
    attained = []
    for name, config in battery:
        n, d = config.n, config.dimension
        alpha_value = rigidity.alpha(config).alpha
        report = bounds.max_collisions_bound(n, d, alpha_value, bounds.resolve_tau(d)[0])
        starts = [search.sample_unit_state(n, d, rng) for _ in range(states)]
        if d == 1:
            head_on = np.array([1.0] + [0.0] * (n - 2) + [-1.0])
            starts.append(geometry.StateVector(n, 1, head_on))
        best = 0
        for state in starts:
            system = geometry.normalize_system(config, state)
            try:
                result = search.exhaustive_max_collisions(*system, depth_cap=depth_cap)
            except BudgetExceededError as exc:
                result = exc.best
            exceeded += not search.compare_with_bound(result, report).bound.within
            best = max(best, result.collisions)
            searched += 1
        if n >= 3 and d >= 2:
            hit = best >= bounds.lower_bound_reference(n)
            attained.append(f"{name}:{'yes' if hit else 'no'}")
    return CheckResult(
        "search-bound-sanity",
        exceeded == 0,
        f"{searched} searched instances, {exceeded} above the bound; "
        f"n^3/27 attained within budget: {', '.join(attained)}",
    )


def check_superadditivity(rng) -> CheckResult:
    ok = bounds.superadditivity_check([3, 3], 2, 0.5, 6) and all(
        bounds.superadditivity_check([split, n - split], 2, 0.25, 6)
        for n in range(2, 8)
        for split in range(1, n)
    )
    return CheckResult("bound-superadditivity", ok, "two-part splits up to n=7")


ALL_CHECKS: list[Callable] = [
    check_folding_collision_equivalence,
    check_conservation_and_monotonicity,
    check_orbit_stabilization,
    check_adversarial_orbits,
    check_alpha_desk_values,
    check_tree_alpha_floor,
    check_lattice_determinants,
    check_convergents,
    check_quadratic_lower_bound,
    check_certificates_vs_alpha,
    check_bound_consistency,
    check_decomposition,
    check_witness_margins,
    check_search_bound_sanity,
    check_superadditivity,
]

#: Keyword arguments of ``verify --quick``; the other checks run at their defaults.
QUICK_SCALE: dict[Callable, dict] = {
    check_folding_collision_equivalence: {"rounds": 100},
    check_conservation_and_monotonicity: {"traces": 10, "lengths": (50, 100), "long_length": 100},
    check_orbit_stabilization: {"families": 20},
    check_lattice_determinants: {"rounds": 40},
    check_decomposition: {"rounds": 40},
    check_witness_margins: {"rounds": 15},
}


def run_all(seed: int = 0, quick: bool = False) -> list[CheckResult]:
    return [
        check(np.random.default_rng(seed), **(QUICK_SCALE.get(check, {}) if quick else {}))
        for check in ALL_CHECKS
    ]
