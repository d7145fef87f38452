"""Brute-force and greedy exploration of collision schedules.

The exhaustive search enumerates, depth first, which approaching pair
collides next; only steps that actually change the state branch.  Because
every collision strictly increases the monotone pair functional, no chain of
collisions can revisit a state, so the search tree is finite even without
the depth cap.  Results are lower envelopes of the true supremum: sampling
initial states can never certify it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport
from .dynamics import _exchanged, _moved, _PairKernel
from .errors import BudgetExceededError, NotNormalizedError, TooManyEdgesError
from .geometry import (
    BallConfiguration,
    ContactGraph,
    Edge,
    StateVector,
    full_contact_graph,
)

STATE_QUANTUM_DECIMALS = 12


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

    def as_dict(self) -> dict:
        out = {
            "method": self.method,
            "collisions": self.collisions,
            "witness": [[i + 1, j + 1] for i, j in self.witness],
            "nodes_explored": self.nodes_explored,
            "truncated": self.truncated,
        }
        if self.bound is not None:
            out["bound"] = {
                "log2_collisions": self.bound.log2_collisions,
                "log2_bound": self.bound.log2_bound,
                "within": self.bound.within,
                "alpha_source": self.bound.alpha_source,
            }
        return out


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
    if float(np.linalg.norm(config.centers.sum(axis=0))) > 1e-9:
        raise NotNormalizedError("configuration is not centered")
    if float(np.linalg.norm(state.momentum)) > 1e-9:
        raise NotNormalizedError("state has non-zero total momentum")
    if abs(state.energy - 1.0) > 1e-9:
        raise NotNormalizedError("state does not have unit energy")


def greedy_schedule(
    config: BallConfiguration,
    state0: StateVector,
    policy: str = "lexicographic",
    max_steps: int = 100_000,
    *,
    seed: int | None = None,
    graph: ContactGraph | None = None,
) -> SearchResult:
    """Collide one approaching pair per step until none remains.

    policy "lexicographic" always takes the first approaching pair;
    "random" draws uniformly among them (requires a seed).  Pairs whose
    collision would not change the state beyond the change tolerance are
    treated as not approaching.
    """
    _require_normalized(config, state0)
    if graph is None:
        graph = full_contact_graph(config)
    if policy not in ("lexicographic", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    rng = np.random.default_rng(seed) if policy == "random" else None
    if policy == "random" and seed is None:
        raise ValueError("random policy needs a seed")

    witness, _, _ = _PairKernel(config, graph, 0.0).walk(state0.values.tolist(), max_steps, rng)
    return SearchResult(
        method="greedy",
        collisions=len(witness),
        witness=tuple(witness),
        nodes_explored=len(witness),
    )


def _state_key(vals: list) -> bytes:
    return np.array(vals).round(STATE_QUANTUM_DECIMALS).tobytes()


def exhaustive_max_collisions(
    config: BallConfiguration,
    state0: StateVector,
    depth_cap: int = 20,
    *,
    graph: ContactGraph | None = None,
    max_branch_edges: int = 6,
    max_nodes: int = 2_000_000,
    memoize: bool = True,
) -> SearchResult:
    """Depth-first maximum of the collision count over all schedules.

    Branches on every approaching pair whose collision changes the state.
    Subtree results are memoized on the (quantized state, depth) pair, which
    is sound because the dynamics are deterministic.  Raises
    :class:`BudgetExceededError` carrying the best result found when the
    depth cap truncates a branch or the node budget runs out; the carried
    result is then a lower envelope.
    """
    if graph is None:
        graph = full_contact_graph(config)
    if len(graph.edges) > max_branch_edges:
        raise TooManyEdgesError(len(graph.edges), max_branch_edges)

    kernel = _PairKernel(config, graph, 0.0)
    nodes = 0
    truncated = False
    memo: dict[tuple[bytes, int], tuple[int, tuple[Edge, ...]]] = {}

    def dfs(values: list, depth: int) -> tuple[int, tuple[Edge, ...]]:
        nonlocal nodes, truncated
        nodes += 1
        if nodes > max_nodes:
            truncated = True
            return 0, ()
        key = (_state_key(values), depth) if memoize else None
        if key is not None and key in memo:
            return memo[key]
        best: tuple[int, tuple[Edge, ...]] = (0, ())
        if depth < depth_cap:
            for e, out in kernel.children(values):
                extra, tail = dfs(out, depth + 1)
                if 1 + extra > best[0]:
                    best = (1 + extra, (e,) + tail)
        elif kernel.children(values):
            truncated = True
        if key is not None:
            memo[key] = best
        return best

    found, tail = dfs(state0.values.tolist(), 0)

    # replay makes the reported count authoritative for the witness
    states = [state0.values.tolist()]
    for e in tail:
        states.append(_exchanged(states[-1], kernel.pairs[e], 0.0) or states[-1])
    replayed = np.array(states)
    collisions = int(np.count_nonzero(_moved(replayed[:-1], replayed[1:])))
    if collisions != found:
        raise RuntimeError(f"witness replays to {collisions} collisions, {found} found")
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

    def as_dict(self) -> dict:
        return {
            "samples": len(self.rows),
            "best": self.best,
            "rows": [r.as_dict() for r in self.rows],
        }


def velocity_sweep(
    config: BallConfiguration,
    samples: int,
    seed: int,
    *,
    method: str = "exhaustive",
    depth_cap: int = 20,
    graph: ContactGraph | None = None,
) -> VelocitySweep:
    """Run a search from uniformly sampled unit-energy initial velocities.

    Reports the per-sample results and their maximum.  With a fixed seed the
    sample sequence is a prefix, so the maximum is monotone in the sample
    count.  Truncated exhaustive runs contribute their best-so-far.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if method not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown method {method!r}")
    if graph is None:
        graph = full_contact_graph(config)
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(samples):
        state = sample_unit_state(config.n, config.dimension, rng)
        if method == "exhaustive":
            try:
                rows.append(
                    exhaustive_max_collisions(
                        config, state, depth_cap, graph=graph
                    )
                )
            except BudgetExceededError as exc:
                rows.append(exc.best)
        else:
            rows.append(greedy_schedule(config, state, graph=graph))
    return VelocitySweep(tuple(rows), max(r.collisions for r in rows))
