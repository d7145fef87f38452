"""Output checks that reach each result through a second, independent path.

Every function returns a list of failure messages (empty when the output is
right).  They run outside the job spans, so their cost is not job latency.
"""

from __future__ import annotations

import math

import numpy as np

from pinnedballs import dynamics, lattice, rigidity
from pinnedballs.geometry import collision_direction

#: Energy, momentum and kernel-vs-fold agreement on unit-energy states.
STATE_TOL = 1e-10
#: Allowed drop of the pair functional F and its recomputation error.
F_TOL = 1e-9
#: Agreement of alpha with its closed forms and with alpha_star.
ALPHA_TOL = 1e-9
#: Margin below which a point counts as outside a half-space.
MARGIN_TOL = 1e-12
#: alpha_star at or below this is a zero candidate (the library default).
ZERO_TOL = rigidity.DEFAULT_ZERO_TOLERANCE

#: Closed forms of alpha for named configurations.
CLOSED_FORMS = {
    "pair": 1.0,
    "chain3": math.sqrt(3.0) / 2.0,
    "triangle": 3.0 / math.sqrt(10.0),
}


def pair_functional(config, states: np.ndarray) -> np.ndarray:
    """F = sum over ordered pairs of (v_j - v_i) . (x_j - x_i), per state row."""
    n, d = config.n, config.dimension
    v = states.reshape(len(states), n, d)
    x = config.centers
    return 2.0 * n * np.einsum("tid,id->t", v, x) - 2.0 * v.sum(axis=1) @ x.sum(axis=0)


def trace_problems(config, trace, samples: int = 3) -> list[str]:
    """Conservation, F monotonicity, and collide vs collide_as_folding on sampled steps."""
    problems = []
    states = trace.states
    n, d = config.n, config.dimension
    energy = np.einsum("ti,ti->t", states, states)
    if np.max(np.abs(energy - energy[0])) > STATE_TOL:
        problems.append("energy not conserved")
    momenta = states.reshape(len(states), n, d).sum(axis=1)
    if np.max(np.abs(momenta - momenta[0])) > STATE_TOL:
        problems.append("momentum not conserved")
    f = pair_functional(config, states)
    scale = max(1.0, float(np.max(np.abs(f))))
    if np.max(np.abs(f - trace.functional)) > F_TOL * scale:
        problems.append("reported F differs from the pair sum")
    if len(f) > 1 and float(np.min(np.diff(f))) < -F_TOL * scale:
        problems.append("F decreased")
    moved = np.max(np.abs(np.diff(states, axis=0)), axis=1, initial=0.0)
    if trace.collisions != int(np.count_nonzero(moved > dynamics.CHANGE_TOLERANCE)):
        problems.append("collision count differs from changed states")
    steps = trace.steps
    sampled = {1 + (k * (steps - 1)) // (samples - 1) for k in range(samples)} if steps else ()
    for t in sorted(sampled):
        before = trace.state(t - 1)
        edge = trace.edges[t - 1]
        kernel = dynamics.collide(config, before, edge).values
        folded = dynamics.collide_as_folding(config, before, edge).values
        if np.max(np.abs(kernel - folded)) > STATE_TOL:
            problems.append(f"collide and fold disagree at step {t}")
        if np.max(np.abs(folded - states[t])) > STATE_TOL:
            problems.append(f"recorded state differs from fold at step {t}")
    return problems


def stable_problems(config, graph, values: np.ndarray) -> list[str]:
    """A stabilized state lies in every edge half-space."""
    for e in graph.edges:
        if float(collision_direction(config, e).vector @ values) < -MARGIN_TOL:
            return [f"stabilized state outside the half-space of edge {e}"]
    return []


def replay_problems(config, state, graph, result) -> list[str]:
    """Replay a search witness with run_schedule and compare the count."""
    trace = dynamics.run_schedule(
        config, state, dynamics.Schedule.explicit(result.witness), graph=graph
    )
    problems = trace_problems(config, trace)
    if trace.collisions != result.collisions:
        problems.append(
            f"witness replays to {trace.collisions} collisions, reported {result.collisions}"
        )
    return problems


def orbit_problems(result, halfspaces, schedule) -> list[str]:
    """The final point lies in every half-space the schedule keeps applying."""
    for i in schedule.recurring_indices(len(halfspaces)):
        if float(result.final @ halfspaces[i].normal) < -MARGIN_TOL:
            return [f"final point outside recurring half-space {i}"]
    if result.size > result.steps + 1:
        return ["more distinct points than folds"]
    return []


def alpha_problems(config, report, name: str | None) -> list[str]:
    """alpha against its closed form and against alpha_star on the argmin set."""
    problems = []
    if not 0.0 < report.alpha <= 1.0 + ALPHA_TOL:
        problems.append(f"alpha {report.alpha} outside (0, 1]")
    direct = rigidity.alpha_star(config, report.argmin_edges, report.argmin_edge)
    if abs(direct - report.alpha) > ALPHA_TOL:
        problems.append(f"alpha {report.alpha} but alpha_star on argmin {direct}")
    if name in CLOSED_FORMS and abs(report.alpha - CLOSED_FORMS[name]) > ALPHA_TOL:
        problems.append(f"alpha {report.alpha} differs from closed form {CLOSED_FORMS[name]}")
    return problems


def certificate_problems(config, edges, chosen, value, data) -> list[str]:
    """An exact certificate never exceeds the float alpha_star of the same set."""
    direct = rigidity.alpha_star(config, edges, chosen)
    if value < 0.0 or value > direct + ALPHA_TOL:
        return [f"certificate {value} exceeds alpha_star {direct}"]
    if data.exact_zero and direct > ZERO_TOL:
        return [f"exact zero certificate but alpha_star {direct}"]
    return []


def stress_problems(config, edges, chosen, cert) -> list[str]:
    """A zero candidate has a balancing stress: residual = 2^{3/2} alpha_star ~ 0."""
    direct = rigidity.alpha_star(config, edges, chosen)
    if abs(cert.total_residual - 2.0**1.5 * direct) > ALPHA_TOL:
        return [f"stress residual {cert.total_residual} vs alpha_star {direct}"]
    if cert.total_residual > 2.0**1.5 * ZERO_TOL:
        return [f"zero candidate has residual {cert.total_residual}"]
    return []


def determinant_problems(matrix, det) -> list[str]:
    """The default determinant path agrees with fraction-free elimination."""
    if lattice.exact_determinant(matrix, method="bareiss") != det:
        return ["determinant paths disagree"]
    return []


def bound_problems(*reports) -> list[str]:
    for report in reports:
        if not math.isfinite(report.log2_bound) or report.log2_bound < 0.0:
            return [f"bound log2 {report.log2_bound} is not a finite count"]
    return []
