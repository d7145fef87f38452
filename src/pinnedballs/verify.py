"""Aggregated invariant suite behind the `verify` CLI subcommand.

Each check re-validates one family of identities or inequalities at reduced
scale; the full-scale versions live in the acceptance test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np

from . import bounds, configs, dynamics, foldings, geometry, lattice, rigidity, search
from .errors import BudgetExceededError

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_system(rng, n_max=5, d_max=3, style="mixed"):
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    use_style = style if d >= 2 else "tree"
    config = configs.random_contact_configuration(n, d, rng, style=use_style)
    state = search.sample_unit_state(n, d, rng)
    config, state = geometry.normalize_system(config, state)
    return config, state


def check_folding_collision_equivalence(rng, rounds=400) -> CheckResult:
    worst = 0.0
    for _ in range(rounds):
        config, state = _random_system(rng)
        graph = geometry.full_contact_graph(config)
        edge = graph.edges[int(rng.integers(len(graph.edges)))]
        a = dynamics.collide(config, state, edge)
        b = dynamics.collide_as_folding(config, state, edge)
        worst = max(worst, float(np.max(np.abs(a.values - b.values))))
    return CheckResult(
        "folding-collision-equivalence", worst <= 1e-12, f"max deviation {worst:.3g}"
    )


def check_conservation_and_monotonicity(rng, traces=40, length=200) -> CheckResult:
    worst_energy = worst_momentum = worst_drop = worst_jump = 0.0
    for _ in range(traces):
        config, state = _random_system(rng)
        trace = dynamics.run_schedule(
            config,
            state,
            dynamics.Schedule.seeded_random(int(rng.integers(2**32))),
            max_steps=length,
        )
        worst_energy = max(worst_energy, float(np.max(np.abs(trace.energies - trace.energies[0]))))
        momenta = trace.states.reshape(len(trace.states), config.n, config.dimension).sum(axis=1)
        worst_momentum = max(worst_momentum, float(np.max(np.abs(momenta - momenta[0]))))
        diffs = np.diff(trace.functional)
        if diffs.size:
            worst_drop = max(worst_drop, float(-diffs.min()))
        for t, (i, j) in enumerate(trace.edges, start=1):
            jump = trace.functional[t] - trace.functional[t - 1]
            vi_new = trace.states[t][i * config.dimension : (i + 1) * config.dimension]
            vi_old = trace.states[t - 1][i * config.dimension : (i + 1) * config.dimension]
            expect = 4.0 * config.n * float(np.linalg.norm(vi_new - vi_old))
            worst_jump = max(worst_jump, abs(jump - expect))
    ok = worst_energy <= 1e-12 and worst_momentum <= 1e-12 and worst_drop <= 1e-9 and worst_jump <= 1e-9
    return CheckResult(
        "conservation-and-monotonicity",
        ok,
        f"energy {worst_energy:.2g}, momentum {worst_momentum:.2g}, "
        f"F drop {worst_drop:.2g}, jump {worst_jump:.2g}",
    )


def _random_halfspace_family(rng, m_max=5, d_max=4):
    d = int(rng.integers(2, d_max + 1))
    m = int(rng.integers(1, m_max + 1))
    witness = None
    while witness is None:
        w = rng.standard_normal(d)
        norm = np.linalg.norm(w)
        if norm > 1e-9:
            witness = w / norm
    normals = []
    while len(normals) < m:
        h = rng.standard_normal(d)
        norm = np.linalg.norm(h)
        if norm < 1e-9:
            continue
        h = h / norm
        if h @ witness < 0:
            h = -h
        if h @ witness > 1e-3:
            normals.append(h)
    return [foldings.HalfSpace(h) for h in normals], witness, d


def check_orbit_stabilization(rng, families=100) -> CheckResult:
    biggest = 0
    for _ in range(families):
        halfspaces, witness, d = _random_halfspace_family(rng)
        start = rng.standard_normal(d) * 2.0
        result = foldings.orbit(
            start,
            halfspaces,
            foldings.FoldingSchedule.round_robin(),
            budget=1_000_000,
            witness=witness,
        )
        biggest = max(biggest, result.size)
    return CheckResult(
        "orbit-stabilization", True, f"{families} orbits, largest size {biggest}"
    )


def check_adversarial_orbits(rng) -> CheckResult:
    sizes = []
    for m in (10, 100):
        halfspaces, start, schedule = foldings.adversarial_two_halfplanes(m)
        witness_dir = sum(h.normal for h in halfspaces)
        witness = witness_dir / np.linalg.norm(witness_dir)
        result = foldings.orbit(start, halfspaces, schedule, witness=witness)
        sizes.append(result.size)
        if result.size <= m:
            return CheckResult(
                "adversarial-orbits", False, f"orbit size {result.size} <= {m}"
            )
    return CheckResult("adversarial-orbits", True, f"sizes {sizes} exceed (10, 100)")


def check_alpha_desk_values(rng) -> CheckResult:
    pair = rigidity.alpha(configs.touching_pair()).alpha
    chain = rigidity.alpha(configs.collinear_chain(3)).alpha
    tri = rigidity.alpha(configs.triangle()).alpha
    ok = (
        pair == 1.0
        and abs(chain - SQRT3 / 2.0) <= 1e-12
        and abs(tri - 3.0 / math.sqrt(10.0)) <= 1e-12
    )
    return CheckResult(
        "alpha-desk-values",
        ok,
        f"pair {pair}, chain {chain:.15f}, triangle {tri:.15f}",
    )


def check_tree_alpha_floor(rng, rounds=25) -> CheckResult:
    failures_nominal = 0
    worst_margin = math.inf
    for _ in range(rounds):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        config = configs.random_contact_configuration(n, d, rng, style="tree")
        value = rigidity.alpha(config).alpha
        worst_margin = min(worst_margin, value - math.sqrt(2.0) / n)
        if value < 4.0 / n - 1e-9:
            failures_nominal += 1
    ok = worst_margin >= -1e-9
    return CheckResult(
        "tree-alpha-floor",
        ok,
        f"min margin over sqrt(2)/n: {worst_margin:.3g}; 4/n failed {failures_nominal} times",
    )


def _random_conforming_matrix(rng, m):
    cols = []
    for _ in range(m):
        kind = rng.choice(["a", "b", "c"])
        col = [lattice.QI_ZERO] * m
        if kind == "a":
            col[int(rng.integers(m))] = lattice.QI_ONE
        elif kind == "b" and m >= 2:
            i, j = rng.choice(m, size=2, replace=False)
            col[int(i)] = lattice.QuadraticInteger(2, 0)
            col[int(j)] = lattice.QuadraticInteger(-2, 0)
        elif kind == "c" and m >= 4:
            idx = rng.choice(m, size=4, replace=False)
            col[int(idx[0])] = lattice.QuadraticInteger(int(rng.choice([-1, 1])), 0)
            col[int(idx[1])] = lattice.QuadraticInteger(int(rng.choice([-1, 1])), 0)
            col[int(idx[2])] = lattice.QuadraticInteger(0, int(rng.choice([-1, 1])))
            col[int(idx[3])] = lattice.QuadraticInteger(0, int(rng.choice([-1, 1])))
        else:
            col[int(rng.integers(m))] = lattice.QI_ONE
        cols.append(col)
    return [[cols[j][i] for j in range(m)] for i in range(m)]


def check_lattice_determinants(rng, rounds=150) -> CheckResult:
    for _ in range(rounds):
        m = int(rng.integers(1, 7))
        matrix = _random_conforming_matrix(rng, m)
        report = lattice.verify_det_bound(matrix)
        if not report.all_ok:
            return CheckResult(
                "lattice-determinant-bounds", False, f"bounds failed at m={m}"
            )
        dual = lattice.exact_determinant(matrix, method="bareiss")
        if dual != report.determinant:
            return CheckResult(
                "lattice-determinant-bounds",
                False,
                "cofactor and fraction-free paths disagree",
            )
    return CheckResult(
        "lattice-determinant-bounds", True, f"{rounds} random conforming matrices"
    )


def check_convergents(rng) -> CheckResult:
    pairs = lattice.sqrt3_convergents(51)
    with mpmath.workprec(200):
        root = mpmath.sqrt(3)
        for k in range(51):
            h, g = pairs[k].h, pairs[k].g
            gap = abs(root - mpmath.mpf(h) / g)
            floor = mpmath.mpf(1) / (g * (pairs[k + 1].g + g))
            if not gap > floor:
                return CheckResult("sqrt3-convergents", False, f"inequality fails at k={k}")
            if k >= 1 and pairs[k].g > 3 * pairs[k - 1].g:
                return CheckResult("sqrt3-convergents", False, f"growth fails at k={k}")
    return CheckResult("sqrt3-convergents", True, "k <= 50 at 200-bit precision")


def check_quadratic_lower_bound(rng, limit=500) -> CheckResult:
    with mpmath.workprec(200):
        root = mpmath.sqrt(3)
        for bound_limit in (1, 10, 100, limit):
            certified = lattice.quadratic_lower_bound(bound_limit)
            observed = min(
                abs(r2 * root - mpmath.nint(r2 * root)) for r2 in range(1, bound_limit + 1)
            )
            if not certified <= observed:
                return CheckResult(
                    "quadratic-lower-bound",
                    False,
                    f"certified {certified} exceeds observed {float(observed)} at B={bound_limit}",
                )
    return CheckResult("quadratic-lower-bound", True, f"scans up to B={limit}")


def check_certificates_vs_alpha(rng) -> CheckResult:
    patches = [
        [lattice.LatticePoint(0, 0), lattice.LatticePoint(2, 0)],
        [lattice.LatticePoint(0, 0), lattice.LatticePoint(2, 0), lattice.LatticePoint(4, 0)],
        [lattice.LatticePoint(0, 0), lattice.LatticePoint(2, 0), lattice.LatticePoint(1, 1)],
        [
            lattice.LatticePoint(0, 0),
            lattice.LatticePoint(2, 0),
            lattice.LatticePoint(1, 1),
            lattice.LatticePoint(3, 1),
        ],
    ]
    worst = -math.inf
    for points in patches:
        config = lattice.lattice_configuration(points)
        edges = lattice.contact_edges(points)
        floor = lattice.lattice_alpha_lower_bound(len(points))
        for chosen in edges:
            cert, _ = lattice.exact_alpha_certificate(points, edges, chosen)
            direct = rigidity.alpha_star(config, edges, chosen)
            worst = max(worst, cert - direct)
            if cert > 0 and cert < floor:
                return CheckResult(
                    "exact-certificates", False, f"certificate {cert} below lattice floor"
                )
    return CheckResult(
        "exact-certificates", worst <= 1e-9, f"max certificate excess {worst:.3g}"
    )


def check_bound_consistency(rng) -> CheckResult:
    if Fraction(21, 2) - 2 != Fraction(17, 2) or Fraction(21, 2) - Fraction(1, 2) != 10:
        return CheckResult("bound-consistency", False, "exponent identities broken")
    for n in (2, 3, 5, 8):
        d = 2
        nominal = bounds.tree_bound(n, d, "nominal")
        general = bounds.general_base_log2(n, d, 4.0 / n)
        if abs(nominal.log2_base - general) > 1e-9:
            return CheckResult("bound-consistency", False, f"tree base mismatch at n={n}")
        report = bounds.lattice_bound(n)
        alpha_floor = lattice.lattice_alpha_lower_bound(n)
        substituted = bounds.general_base_log2(n, 2, alpha_floor)
        if abs(report.exact.log2_base - substituted) > 1e-9:
            return CheckResult("bound-consistency", False, f"lattice base mismatch at n={n}")
        if not report.exact_below_rounded:
            return CheckResult("bound-consistency", False, f"exact >= rounded at n={n}")
        value = bounds.high_precision_log2(report.exact.log2_bound)
        rel = abs(
            float(mpmath.log(value, 2)) - report.exact.log2_bound
        ) / max(1.0, abs(report.exact.log2_bound))
        if rel > 1e-9:
            return CheckResult("bound-consistency", False, "log-space vs 200-bit mismatch")
    return CheckResult("bound-consistency", True, "symbolic and numeric identities hold")


def check_decomposition(rng, rounds=150) -> CheckResult:
    worst_fixed = worst_norm = 0.0
    for _ in range(rounds):
        config, state = _random_system(rng)
        graph = geometry.full_contact_graph(config)
        edge = graph.edges[int(rng.integers(len(graph.edges)))]
        fixed, span = dynamics.decompose_state(config, graph, state)
        after = dynamics.collide(config, state, edge)
        fixed2, span2 = dynamics.decompose_state(config, graph, after)
        worst_fixed = max(worst_fixed, float(np.max(np.abs(fixed.values - fixed2.values))))
        worst_norm = max(
            worst_norm,
            abs(np.linalg.norm(span.values) - np.linalg.norm(span2.values)),
        )
    ok = worst_fixed <= 1e-12 and worst_norm <= 1e-12
    return CheckResult(
        "state-decomposition", ok, f"fixed drift {worst_fixed:.2g}, span norm drift {worst_norm:.2g}"
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


def check_search_bound_sanity(rng) -> CheckResult:
    for config in (configs.collinear_chain(3), configs.triangle()):
        state = search.sample_unit_state(config.n, config.dimension, rng)
        config_c, state = geometry.normalize_system(config, state)
        try:
            result = search.exhaustive_max_collisions(config_c, state, depth_cap=14)
        except BudgetExceededError as exc:
            result = exc.best
        report = bounds.max_collisions_bound(
            config_c.n,
            config_c.dimension,
            rigidity.alpha(config_c).alpha,
            bounds.resolve_tau(config_c.dimension)[0],
        )
        compared = search.compare_with_bound(result, report)
        if not compared.bound.within:
            return CheckResult(
                "search-bound-sanity", False, f"{result.collisions} collisions exceed bound"
            )
    return CheckResult("search-bound-sanity", True, "empirical counts below bounds")


def check_superadditivity(rng) -> CheckResult:
    ok = bounds.superadditivity_check([3, 3], 2, 0.5, 6)
    for n in range(2, 8):
        for split in range(1, n):
            if not bounds.superadditivity_check([split, n - split], 2, 0.25, 6):
                ok = False
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


def run_all(seed: int = 0, quick: bool = False) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        rng = np.random.default_rng(seed)
        if quick:
            name = check.__name__
            if name == "check_folding_collision_equivalence":
                results.append(check(rng, rounds=100))
                continue
            if name == "check_conservation_and_monotonicity":
                results.append(check(rng, traces=10, length=100))
                continue
            if name == "check_orbit_stabilization":
                results.append(check(rng, families=20))
                continue
            if name == "check_lattice_determinants":
                results.append(check(rng, rounds=40))
                continue
            if name == "check_decomposition":
                results.append(check(rng, rounds=40))
                continue
            if name == "check_witness_margins":
                results.append(check(rng, rounds=15))
                continue
        results.append(check(rng))
    return results
