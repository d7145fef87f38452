"""Acceptance criteria, one test per criterion at its stated scale.

Each test prints a single PASS line with the measured statistics and elapsed
time (visible with `pytest -s`); a failing assertion marks the criterion red.
"""

import itertools
import math
import time

import mpmath
import numpy as np

from pinnedballs import configs
from pinnedballs.bounds import (
    general_base_log2,
    lattice_bound,
    lower_bound_reference,
    max_collisions_bound,
    resolve_tau,
    tree_bound,
)
from pinnedballs.dynamics import (
    Schedule,
    collide,
    collide_as_folding,
    decompose_state,
    run_schedule,
)
from pinnedballs.errors import BudgetExceededError
from pinnedballs.foldings import FoldingSchedule, HalfSpace, adversarial_two_halfplanes, orbit
from pinnedballs.geometry import (
    StateVector,
    full_contact_graph,
    normalize_system,
    validate_configuration,
)
from pinnedballs.lattice import (
    contact_edges,
    exact_alpha_certificate,
    lattice_alpha_lower_bound,
    lattice_configuration,
    lattice_points_in_radius,
    quadratic_lower_bound,
    sqrt3_convergents,
    verify_det_bound,
)
from pinnedballs.rigidity import alpha, alpha_star
from pinnedballs.search import exhaustive_max_collisions, sample_unit_state
from pinnedballs.verify import _random_conforming_matrix

from fractions import Fraction

SQRT3 = math.sqrt(3.0)


def _report(criterion, detail, elapsed, budget):
    print(f"C{criterion} PASS {detail} [{elapsed:.2f}s < {budget:.0f}s]")
    assert elapsed < budget


def _random_system(rng, n_max, d_max):
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    style = "mixed" if d >= 2 else "tree"
    config = configs.random_contact_configuration(n, d, rng, style=style)
    state = sample_unit_state(n, d, rng)
    return normalize_system(config, state)


def test_c01_folding_collision_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    triples = 0
    worst = 0.0
    while triples < 10_000:
        config, _ = _random_system(rng, n_max=6, d_max=3)
        edges = full_contact_graph(config).edges
        for _ in range(25):
            state = sample_unit_state(config.n, config.dimension, rng)
            edge = edges[int(rng.integers(len(edges)))]
            a = collide(config, state, edge)
            b = collide_as_folding(config, state, edge)
            worst = max(worst, float(np.max(np.abs(a.values - b.values))))
            triples += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    _report(1, f"equivalence on {triples} triples, max deviation {worst:.2e}", elapsed, 10)


def test_c02_conservation_and_monotonicity():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_energy = worst_momentum = worst_drop = worst_j1 = worst_j2 = 0.0
    for trace_idx in range(1000):
        config, state = _random_system(rng, n_max=6, d_max=3)
        length = 1000 if trace_idx % 10 == 0 else int(rng.integers(50, 301))
        graph = full_contact_graph(config)
        edge_idx = rng.integers(len(graph.edges), size=length)
        schedule = Schedule.explicit([graph.edges[int(k)] for k in edge_idx])
        trace = run_schedule(config, state, schedule, graph=graph)

        n, d = config.n, config.dimension
        worst_energy = max(worst_energy, float(np.max(np.abs(trace.energies - trace.energies[0]))))
        blocks = trace.states.reshape(-1, n, d)
        momenta = blocks.sum(axis=1)
        worst_momentum = max(worst_momentum, float(np.max(np.abs(momenta - momenta[0]))))

        delta_f = np.diff(trace.functional)
        worst_drop = max(worst_drop, float(np.max(-delta_f, initial=0.0)))

        steps = np.arange(length)
        i_idx = np.array([e[0] for e in trace.edges])
        j_idx = np.array([e[1] for e in trace.edges])
        dv_i = blocks[steps + 1, i_idx] - blocks[steps, i_idx]
        jump1 = 4.0 * n * np.linalg.norm(dv_i, axis=1)
        worst_j1 = max(worst_j1, float(np.max(np.abs(delta_f - jump1), initial=0.0)))

        changed = trace.changed
        if changed.any():
            vi = blocks[steps, i_idx][changed]
            vj = blocks[steps, j_idx][changed]
            dx = config.centers[i_idx[changed]] - config.centers[j_idx[changed]]
            jump2 = 2.0 * n * np.sum((vj - vi) * dx, axis=1)
            worst_j2 = max(worst_j2, float(np.max(np.abs(delta_f[changed] - jump2), initial=0.0)))
    elapsed = time.perf_counter() - start
    assert worst_energy <= 1e-12
    assert worst_momentum <= 1e-12
    assert worst_drop <= 1e-9
    assert worst_j1 <= 1e-9
    assert worst_j2 <= 1e-9
    _report(
        2,
        f"1000 traces: energy {worst_energy:.1e}, momentum {worst_momentum:.1e}, "
        f"F drop {worst_drop:.1e}, jumps {worst_j1:.1e}/{worst_j2:.1e}",
        elapsed,
        30,
    )


def test_c03_orbit_finiteness():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    longest = 0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 6))
        witness = rng.standard_normal(d)
        witness /= np.linalg.norm(witness)
        normals = []
        while len(normals) < m:
            h = rng.standard_normal(d)
            norm = np.linalg.norm(h)
            if norm < 1e-9:
                continue
            h /= norm
            if h @ witness < 0:
                h = -h
            if h @ witness > 1e-3:
                normals.append(h)
        halfspaces = [HalfSpace(h) for h in normals]
        result = orbit(
            rng.standard_normal(d) * 2.0,
            halfspaces,
            FoldingSchedule.round_robin(),
            budget=1_000_000,
            witness=witness,
        )
        assert result.stabilization_index is not None
        longest = max(longest, result.steps)
    elapsed = time.perf_counter() - start
    _report(3, f"1000 orbits stabilized, longest run {longest} folds", elapsed, 60)


def test_c04_unbounded_orbits():
    start = time.perf_counter()
    sizes = {}
    for m in (10, 100, 1000):
        halfspaces, begin, schedule = adversarial_two_halfplanes(m)
        witness = halfspaces[0].normal + halfspaces[1].normal
        witness /= np.linalg.norm(witness)
        result = orbit(begin, halfspaces, schedule, witness=witness)
        assert result.size > m
        sizes[m] = result.size
    elapsed = time.perf_counter() - start
    _report(4, f"adversarial orbit sizes {sizes}", elapsed, 5)


def test_c05_alpha_exhaustive_correctness():
    start = time.perf_counter()
    pair_report = alpha(configs.touching_pair())
    assert pair_report.alpha == 1.0
    chain_report = alpha(configs.collinear_chain(3))
    assert abs(chain_report.alpha - SQRT3 / 2.0) <= 1e-12

    # every contact-bearing sub-configuration of the hexagonal patch, n <= 5
    patch = lattice_points_in_radius(2.1)
    checked = 0
    for size in range(2, 6):
        for subset in itertools.combinations(range(len(patch)), size):
            points = [patch[i] for i in subset]
            edges = contact_edges(points)
            if not edges:
                continue
            config = lattice_configuration(points)
            for chosen in edges:
                certificate, _ = exact_alpha_certificate(points, edges, chosen)
                direct = alpha_star(config, edges, chosen)
                assert certificate <= direct + 1e-9
                checked += 1
    elapsed = time.perf_counter() - start
    _report(
        5,
        f"pair alpha exactly 1, chain alpha sqrt(3)/2, {checked} lattice certificates bounded",
        elapsed,
        60,
    )


def test_c06_tree_bound_audit():
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    flagged = []
    worst_margin = math.inf
    trees = [configs.collinear_chain(3)] + [
        configs.random_contact_configuration(
            int(rng.integers(2, 9)), int(rng.integers(1, 4)), rng, style="tree"
        )
        for _ in range(199)
    ]
    for idx, config in enumerate(trees):
        n = config.n
        value = alpha(config, collect_table=False).alpha
        worst_margin = min(worst_margin, value - math.sqrt(2.0) / n)
        assert value >= math.sqrt(2.0) / n - 1e-9
        if value < 4.0 / n - 1e-9:
            flagged.append((idx, n, value))
    assert any(idx == 0 for idx, _, _ in flagged), "3-chain must fail the 4/n floor"
    elapsed = time.perf_counter() - start
    _report(
        6,
        f"200 trees: corrected floor holds (min slack {worst_margin:.3f}); "
        f"4/n failed on {len(flagged)} instances incl. the 3-chain",
        elapsed,
        120,
    )


def test_c07_lattice_machinery():
    rng = np.random.default_rng(707)
    start = time.perf_counter()
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        report = verify_det_bound(_random_conforming_matrix(rng, m))
        assert report.r1_ok and report.r2_ok and report.det_ok

    pairs = sqrt3_convergents(51)
    with mpmath.workprec(200):
        root = mpmath.sqrt(3)
        for k in range(51):
            gap = abs(root - mpmath.mpf(pairs[k].h) / pairs[k].g)
            assert gap > mpmath.mpf(1) / (pairs[k].g * (pairs[k + 1].g + pairs[k].g))

        running = mpmath.inf
        checkpoints = {1, 10, 100, 1000, 10_000}
        for r2 in range(1, 10_001):
            running = min(running, abs(r2 * root - mpmath.nint(r2 * root)))
            if r2 in checkpoints:
                assert quadratic_lower_bound(r2) <= float(running)
    elapsed = time.perf_counter() - start
    _report(
        7,
        "1000 conforming determinants bounded, convergents k<=50, scans to B=10^4",
        elapsed,
        60,
    )


def test_c08_bound_consistency():
    start = time.perf_counter()
    assert Fraction(21, 2) - 2 == Fraction(17, 2)
    assert Fraction(21, 2) - Fraction(1, 2) == 10
    assert Fraction(21, 2) + 1 == Fraction(23, 2)
    assert 5 + Fraction(1, 2) == Fraction(11, 2)

    for n in (2, 3, 5, 8, 13):
        for d in (1, 2, 3):
            nominal = tree_bound(n, d, "nominal")
            assert abs(nominal.log2_base - general_base_log2(n, d, 4.0 / n)) <= 1e-9
    for n in range(1, 101):
        report = lattice_bound(n)
        assert report.exact_below_rounded
        if n <= 20:
            substituted = general_base_log2(n, 2, lattice_alpha_lower_bound(n))
            assert abs(report.exact.log2_base - substituted) <= 1e-9

    with mpmath.workprec(200):
        for n, d, a, tau in ((2, 1, 1.0, 2), (4, 2, 0.01, 6), (6, 3, 1e-9, 12)):
            rep = max_collisions_bound(n, d, a, tau)
            base = mpmath.power(2, mpmath.mpf(21) / 2) * d * mpmath.mpf(n) ** 5 / mpmath.mpf(a)
            exact = mpmath.log(base, 2) * mpmath.mpf(rep.exponent.numerator) / rep.exponent.denominator
            rel = abs(rep.log2_bound - float(exact)) / max(1.0, abs(float(exact)))
            assert rel <= 1e-9
    elapsed = time.perf_counter() - start
    _report(8, "substitution identities, exact<rounded to n=100, 200-bit agreement", elapsed, 5)


def test_c09_end_to_end_inequality():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    battery = [
        ("chain-2", configs.collinear_chain(2)),
        ("chain-3", configs.collinear_chain(3)),
        ("chain-4", configs.collinear_chain(4)),
        ("pair-2d", configs.touching_pair(d=2)),
        ("triangle", configs.triangle()),
        (
            "bent-3",
            validate_configuration(
                [[0.0, 0.0], [2.0, 0.0], [2.0 + 2.0 * math.cos(1.0), 2.0 * math.sin(1.0)]]
            ),
        ),
        ("rhombus", configs.rhombus()),
        ("square", configs.square()),
    ]
    for k in range(3):
        battery.append(
            (f"random-4-{k}", configs.random_contact_configuration(4, 2, rng, style="mixed"))
        )

    checked = 0
    attained_cubic = []
    for name, config in battery:
        report = alpha(config, collect_table=False)
        tau, _ = resolve_tau(config.dimension)
        states = [sample_unit_state(config.n, config.dimension, rng) for _ in range(3)]
        if config.dimension == 1:
            head_on = np.zeros((config.n, 1))
            head_on[0], head_on[-1] = 1.0, -1.0
            states.append(StateVector(config.n, 1, head_on.reshape(-1)))
        best = 0
        for state in states:
            centered, normalized = normalize_system(config, state)
            bound_report = max_collisions_bound(
                centered.n, centered.dimension, report.alpha, tau,
                alpha_source="hyperplanes", tau_source="external-table",
            )
            try:
                result = exhaustive_max_collisions(centered, normalized, depth_cap=20)
            except BudgetExceededError as exc:
                result = exc.best
            assert result.collisions <= bound_report.value
            best = max(best, result.collisions)
            checked += 1
        if config.n >= 3 and config.dimension >= 2:
            attained_cubic.append((name, best >= lower_bound_reference(config.n)))
    elapsed = time.perf_counter() - start
    note = ", ".join(f"{name}:{'yes' if hit else 'no'}" for name, hit in attained_cubic)
    _report(
        9,
        f"{checked} searched instances below the bound; n^3/27 attained within budget: {note}",
        elapsed,
        600,
    )


def test_c10_decomposition_invariants():
    rng = np.random.default_rng(1010)
    start = time.perf_counter()
    worst_fixed = worst_norm = 0.0
    for _ in range(1000):
        config, state = _random_system(rng, n_max=6, d_max=3)
        graph = full_contact_graph(config)
        edge = graph.edges[int(rng.integers(len(graph.edges)))]
        fixed, span = decompose_state(config, graph, state)
        after = collide(config, state, edge)
        fixed2, span2 = decompose_state(config, graph, after)
        worst_fixed = max(worst_fixed, float(np.max(np.abs(fixed.values - fixed2.values))))
        worst_norm = max(
            worst_norm,
            abs(np.linalg.norm(span.values) - np.linalg.norm(span2.values)),
        )
    elapsed = time.perf_counter() - start
    assert worst_fixed <= 1e-12
    assert worst_norm <= 1e-12
    _report(
        10,
        f"1000 cases: fixed-part drift {worst_fixed:.1e}, span-norm drift {worst_norm:.1e}",
        elapsed,
        10,
    )
