"""Brute-force and greedy exploration of collision schedules.

Both collide pairs by the pair kernel that every trace shares, generated
once per dimension from one template (``dynamics._kernel``), with the bits of
a plain loop that sums in component order, and looked up once per search, so
a pair collides exactly when :func:`~pinnedballs.dynamics.collide` would
change the state.  The greedy search collides the first colliding pair, in
graph order, until none is left.  The exhaustive search enumerates, depth
first, which pair collides next, and always memoizes; it runs whole in the
kernel's ``search`` (its moves and memo are described in ``dynamics``), and its
witness replays through the kernel's ``run``.  Every collision strictly
increases the monotone pair functional, so no chain of collisions revisits a
state and the search tree is finite even without the depth cap.  Results
are lower envelopes of the true supremum: sampling initial states can never
certify it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport
from .dynamics import _kernel, _pair_table
from .errors import BudgetExceededError, NotNormalizedError, TooManyEdgesError
from .geometry import (
    BallConfiguration,
    ContactGraph,
    Edge,
    StateVector,
    full_contact_graph,
)

#: Slack of the centered, zero-momentum and unit-energy checks on a search's
#: input: room for the rounding that normalize_system leaves in those sums.
NORMALIZED_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BoundComparison:
    log2_collisions: float | None
    log2_bound: float
    within: bool
    alpha_source: str


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best collision count found, with a replayable witness schedule."""

    method: str
    collisions: int
    witness: tuple[Edge, ...]
    nodes_explored: int
    truncated: bool = False
    bound: BoundComparison | None = None


def compare_with_bound(result: SearchResult, report: BoundReport) -> SearchResult:
    """Attach the log2 comparison against a theoretical bound."""
    log2_lambda = math.log2(result.collisions) if result.collisions > 0 else None
    within = result.collisions <= (
        report.value if report.value is not None else math.inf
    )
    return dataclasses.replace(
        result,
        bound=BoundComparison(
            log2_lambda, report.log2_bound, bool(within), report.alpha_source
        ),
    )


def _require_normalized(config: BallConfiguration, state: StateVector) -> None:
    if float(np.linalg.norm(config.centers.sum(axis=0))) > NORMALIZED_TOLERANCE:
        raise NotNormalizedError("configuration is not centered")
    if float(np.linalg.norm(state.momentum)) > NORMALIZED_TOLERANCE:
        raise NotNormalizedError("state has non-zero total momentum")
    if abs(state.energy - 1.0) > NORMALIZED_TOLERANCE:
        raise NotNormalizedError("state does not have unit energy")


def greedy_schedule(
    config: BallConfiguration,
    state0: StateVector,
    max_steps: int = 100_000,
    *,
    graph: ContactGraph | None = None,
) -> SearchResult:
    """Collide the first colliding pair of the graph, in graph order, one per
    step, until none collides or after ``max_steps`` steps.

    A pair collides exactly when :func:`~pinnedballs.dynamics.collide` would
    change the state.  A negative ``max_steps`` raises ValueError.
    """
    _require_normalized(config, state0)
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if graph is None:
        graph = full_contact_graph(config)

    table, exchanges = _pair_table(config, graph), _kernel(config.dimension).exchanges
    edges, pairs = list(table), list(table.values())
    blocks, witness = state0.blocks().tolist(), []
    while len(witness) < max_steps and (found := next(exchanges(blocks, pairs), None)):
        k, new_i, new_j = found
        (i, j), blocks = edges[k], blocks.copy()
        blocks[i], blocks[j] = new_i, new_j
        witness.append(edges[k])
    return SearchResult(
        method="greedy",
        collisions=len(witness),
        witness=tuple(witness),
        nodes_explored=len(witness),
    )


def exhaustive_max_collisions(
    config: BallConfiguration,
    state0: StateVector,
    depth_cap: int = 20,
    *,
    graph: ContactGraph | None = None,
    max_branch_edges: int = 6,
    max_nodes: int = 2_000_000,
) -> SearchResult:
    """Depth-first maximum of the collision count over all schedules.

    Branches on every pair that collides in the node's state, in graph order.
    Subtree results are memoized on the (state's float bits, depth) pair, which
    is sound (see ``dynamics``, where the search runs).  Raises
    :class:`BudgetExceededError` carrying the best result found when the
    depth cap truncates a branch or the node budget runs out; the carried
    result is then a lower envelope.  ``nodes_explored`` counts the calls of
    the search, memo hits included; once the budget is spent, each call left
    is counted as one node that finds nothing, without being made.  A later
    branch replaces the best one only with a strictly higher count.  A
    negative ``depth_cap`` or a ``max_nodes`` below 1 raises ValueError.
    """
    if depth_cap < 0:
        raise ValueError(f"depth_cap must be non-negative, got {depth_cap}")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    if graph is None:
        graph = full_contact_graph(config)
    if len(graph.edges) > max_branch_edges:
        raise TooManyEdgesError(len(graph.edges), max_branch_edges)

    table, kernel = _pair_table(config, graph), _kernel(config.dimension)
    start, pairs = state0.blocks().tolist(), list(table.values())
    found, tail, nodes, truncated = kernel.search(start, pairs, list(table), depth_cap, max_nodes)

    # replay makes the reported count authoritative for the witness
    starts: list[int] = []
    kernel.run(start, tail, table, [], starts)
    if len(starts) != found:
        raise RuntimeError(f"witness replays to {len(starts)} collisions, {found} found")
    result = SearchResult(
        method="exhaustive",
        collisions=found,
        witness=tail,
        nodes_explored=nodes,
        truncated=truncated,
    )
    if truncated:
        raise BudgetExceededError(
            f"search budget exceeded; best so far: {found} collisions", result
        )
    return result


def sample_unit_state(n: int, d: int, rng: np.random.Generator) -> StateVector:
    """Random state with zero total momentum and unit energy."""
    while True:
        blocks = rng.standard_normal((n, d))
        blocks -= blocks.mean(axis=0)
        norm = float(np.linalg.norm(blocks))
        if norm > 1e-12:
            return StateVector(n, d, blocks.reshape(-1) / norm)


@dataclass(frozen=True, eq=False)
class VelocitySweep:
    """Search results across sampled initial velocities."""

    rows: tuple[SearchResult, ...]
    best: int


def velocity_sweep(
    config: BallConfiguration,
    samples: int,
    seed: int,
    *,
    depth_cap: int = 20,
) -> VelocitySweep:
    """Run an exhaustive search on the full contact graph from uniformly
    sampled unit-energy initial velocities.

    Reports the per-sample results and their maximum.  With a fixed seed the
    sample sequence is a prefix, so the maximum is monotone in the sample
    count.  Truncated runs contribute their best-so-far.  A negative
    ``depth_cap`` raises ValueError.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    graph = full_contact_graph(config)
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(samples):
        state = sample_unit_state(config.n, config.dimension, rng)
        try:
            rows.append(exhaustive_max_collisions(config, state, depth_cap, graph=graph))
        except BudgetExceededError as exc:
            rows.append(exc.best)
    return VelocitySweep(tuple(rows), max(r.collisions for r in rows))
