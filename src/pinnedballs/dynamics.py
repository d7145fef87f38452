"""Pseudo-collision dynamics: the pair transform, schedules, and traces.

A pseudo-collision between touching balls i and j exchanges the components
of their pseudo-velocities parallel to the line of centers, exactly as in a
totally elastic collision of equal masses; pairs that do not touch or are
not approaching are left unchanged.  The same map is realized by folding the
stacked state across the half-space of the pair's collision direction, and
both implementations are exposed so they can be checked against each other.
Whether a pair collides and the exchange it makes are defined once, in
``_exchanges``, on Python floats with dot products summed in component order,
so no BLAS build can change the bits; :func:`collide`, every run, the greedy
walk ``_walk`` and the schedule search all use it, so a step changes the state
exactly when it counts as a collision.  A state is one list of floats per
ball and ``_pair_table`` gives each touching edge its ball indices and
geometry, so an exchange replaces two blocks and shares the rest.  A run
records change points, the distinct states and the steps they appear at, so
an explicit run stops once every edge of its schedule is idle.

Along any schedule the energy and total momentum are conserved and the
functional F = sum_{i,j} (v_j - v_i) . (x_j - x_i) never decreases; it is
evaluated here in the shift-invariant closed form 2n (x . v) - 2 (sum v) . (sum x),
which coincides with the double sum for every input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ScheduleError
from .foldings import STABILITY_MARGIN, HalfSpace, fold
from .geometry import (
    CONTACT_DISTANCE,
    BallConfiguration,
    ContactGraph,
    Edge,
    StateVector,
    canonical_edge,
    collision_direction,
    collision_matrix,
    full_contact_graph,
    pair_offsets,
    require_touching,
    span_basis,
)

#: An exchange that moves no velocity component by more than this is no collision.
CHANGE_TOLERANCE = 1e-14
#: Seeded-random schedule indices drawn per call to the generator.
_DRAW_BLOCK = 256


def _pairs(config: BallConfiguration, edges: Sequence[Edge]) -> list[tuple | None]:
    """(i, j, x_i - x_j, unit direction) as floats per edge (i, j), from one
    :func:`pair_offsets`; None when the balls do not touch by ``config.touches``."""
    dxs, norms = pair_offsets(config, edges)
    tolerance = config.contact_tolerance
    return [
        (*e, dx, [c / norm for c in dx]) if abs(norm - CONTACT_DISTANCE) <= tolerance else None
        for e, dx, norm in zip(edges, dxs.tolist(), norms.tolist())
    ]


def _exchanges(blocks: list, pairs: Iterable[tuple], tolerance: float) -> Iterator[tuple]:
    """The collision predicate and exchange: (index, new v_i, new v_j) for each of ``pairs``
    (see :func:`_pairs`), in order, that approaches in ``blocks``, (v_i - v_j) . (x_i - x_j)
    < -tolerance summed in component order, and whose exchange moves some component of
    v_i or v_j by more than CHANGE_TOLERANCE."""
    for k, (i, j, dx, u) in enumerate(pairs):
        vi, vj = blocks[i], blocks[j]
        approach = t = 0.0
        for a, b, c in zip(vi, vj, dx):
            approach += (a - b) * c
        if approach >= -tolerance:
            continue
        for a, b, c in zip(vi, vj, u):
            t += (b - a) * c
        new_i, new_j = [a + t * c for a, c in zip(vi, u)], [b - t * c for b, c in zip(vj, u)]
        if (max(map(abs, map(float.__sub__, new_i, vi))) > CHANGE_TOLERANCE
                or max(map(abs, map(float.__sub__, new_j, vj))) > CHANGE_TOLERANCE):
            yield k, new_i, new_j


def _exchanged(blocks: list, pair: tuple | None, tolerance: float) -> list | None:
    """A new state after the exchange on ``pair``; None when it is None or makes no collision."""
    found = pair and next(_exchanges(blocks, (pair,), tolerance), None)
    if not found:
        return None
    out = blocks.copy()
    out[pair[0]], out[pair[1]] = found[1:]
    return out


def _pair_table(config: BallConfiguration, graph: ContactGraph) -> dict[Edge, tuple]:
    """Each touching edge of ``graph``, in graph order, mapped to its :func:`_pairs` tuple."""
    return {e: p for e, p in zip(graph.edges, _pairs(config, graph.edges)) if p}


def _walk(table: dict[Edge, tuple], blocks: list, max_steps: int, tolerance: float,
          rng: np.random.Generator | None = None) -> tuple[list[Edge], list[list], bool]:
    """Collide the first colliding edge of ``table``, or with ``rng`` a uniform draw
    among them, until none is left (third result True) or after max_steps; returns
    the edges and the states, the start included."""
    edges, pairs = list(table), list(table.values())
    path, states = [], [blocks]
    while len(path) < max_steps:
        if rng is None:
            found = next(_exchanges(blocks, pairs, tolerance), None)
        else:
            options = list(_exchanges(blocks, pairs, tolerance))
            found = options[int(rng.integers(len(options)))] if options else None
        if found is None:
            return path, states, True
        k, new_i, new_j = found
        (i, j), blocks = edges[k], blocks.copy()
        blocks[i], blocks[j] = new_i, new_j
        path.append(edges[k])
        states.append(blocks)
    return path, states, False


def collide(
    config: BallConfiguration,
    state: StateVector,
    edge: Edge,
    approach_tolerance: float = 0.0,
) -> StateVector:
    """Pseudo-collision transform for one pair.

    Returns the state unchanged when the pair does not touch, when
    (v_i - v_j) . (x_i - x_j) >= -approach_tolerance (the pair is separating
    or at rest relative to the contact line), or when the exchange would move
    no component of v_i or v_j by more than :data:`CHANGE_TOLERANCE`.  Every
    other call is a collision, as traces, walks and searches count it.  The
    default tolerance 0 means an exact IEEE comparison; a positive value
    widens the no-collision band for robustness studies.  A NaN, infinite or
    negative tolerance raises ValueError.
    """
    if edge[0] == edge[1]:
        raise ValueError("a ball cannot collide with itself")
    if not 0.0 <= approach_tolerance < float("inf"):
        raise ValueError(f"approach_tolerance must be finite and >= 0, got {approach_tolerance!r}")
    out = _exchanged(state.blocks().tolist(), _pairs(config, [edge])[0], approach_tolerance)
    return state if out is None else state.with_values(out)


def collide_as_folding(
    config: BallConfiguration, state: StateVector, edge: Edge
) -> StateVector:
    """The map of :func:`collide` to rounding, realized by folding across the
    pair's half-space; it folds whenever the pair approaches, with no change tolerance."""
    i, j = edge
    if i == j:
        raise ValueError("a ball cannot collide with itself")
    if not config.touches(i, j):
        return state
    halfspace = HalfSpace(collision_direction(config, edge).vector)
    if halfspace.margin(state.values) >= 0.0:
        return state
    return state.with_values(fold(state.values, halfspace))


def functional_value(config: BallConfiguration, values: np.ndarray) -> float | np.ndarray:
    """F, the sum over ordered pairs of (v_j - v_i) . (x_j - x_i), in its
    shift-invariant closed form, which is 2n (x . v) on a centred
    configuration; one value per row when ``values`` is a stack of states of
    shape (T, nd)."""
    sv = values.reshape(*values.shape[:-1], config.n, config.dimension).sum(axis=-2)
    x, sx = config.stacked(), config.centers.sum(axis=0)
    return 2.0 * config.n * (values @ x) - 2.0 * (sv @ sx)


@dataclass(frozen=True)
class Schedule:
    """Explicit edge list or a policy generating one on the fly.  An explicit
    schedule finds its distinct edges once, when it is built."""

    kind: str
    edges: tuple[Edge, ...] = ()
    seed: int | None = None
    #: The set of ``edges``, canonical; empty for a policy.
    distinct_edges: frozenset = field(default=frozenset(), init=False, repr=False, compare=False)

    KINDS = ("explicit", "round-robin", "lexicographic-greedy", "seeded-random")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "explicit":
            edges = tuple(self.edges)
            # each distinct pair is made canonical once; its repeats are looked up
            canon = {e: canonical_edge(*e) for e in dict.fromkeys(edges)}
            object.__setattr__(self, "edges", tuple(map(canon.__getitem__, edges)))
            object.__setattr__(self, "distinct_edges", frozenset(canon.values()))
        elif self.edges:
            raise ValueError("only explicit schedules carry an edge list")
        if self.kind == "seeded-random" and self.seed is None:
            raise ValueError("seeded-random schedule needs a seed")

    @classmethod
    def explicit(cls, edges: Iterable[Edge]) -> "Schedule":
        return cls("explicit", tuple(edges))

    @classmethod
    def round_robin(cls) -> "Schedule":
        return cls("round-robin")

    @classmethod
    def greedy(cls) -> "Schedule":
        return cls("lexicographic-greedy")

    @classmethod
    def seeded_random(cls, seed: int) -> "Schedule":
        return cls("seeded-random", seed=seed)


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    """States, per-step change flags, and functional values along a schedule.

    ``states`` has shape (T+1, nd); step t applied ``edges[t-1]`` to
    ``states[t-1]``.  ``states``, ``changed``, ``functional`` and
    ``energies`` are derived once from the run's distinct states, then
    repeated over the steps that leave the state as it is.  ``collisions``
    counts steps whose state changed.  ``stabilized`` is True when a policy
    run stopped before max_steps: a round-robin or seeded-random run because
    every margin of the governing graph is at least ``STABILITY_MARGIN``, a
    greedy run because no pair collides (see :func:`run_schedule`).
    """

    n: int
    d: int
    states: np.ndarray
    edges: tuple[Edge, ...]
    changed: np.ndarray
    functional: np.ndarray
    energies: np.ndarray
    stabilized: bool

    @property
    def collisions(self) -> int:
        return int(np.count_nonzero(self.changed))

    @property
    def steps(self) -> int:
        return len(self.edges)

    def state(self, t: int) -> StateVector:
        return StateVector(self.n, self.d, self.states[t])


def run_schedule(
    config: BallConfiguration,
    state0: StateVector,
    schedule: Schedule,
    max_steps: int | None = None,
    graph: ContactGraph | None = None,
    approach_tolerance: float = 0.0,
) -> SimulationTrace:
    """Execute a schedule and record the full trace.

    Explicit schedules run for min(len(schedule), max_steps) steps and must
    reference only edges of the governing graph (:class:`ScheduleError`
    otherwise).  Round-robin and seeded-random schedules stop early once
    every touching pair of the graph has margin z_e . v = ((v_i - v_j) . u) /
    sqrt(2) >= :data:`~pinnedballs.foldings.STABILITY_MARGIN`, summed in
    component order, the pair that failed last tested first.  The
    lexicographic-greedy schedule stops once no pair collides, as
    ``search.greedy_schedule`` does, so it collides an approaching pair whose
    margin lies between STABILITY_MARGIN and 0, where the other two stop.
    Policies otherwise run until max_steps (default 10^6).  A negative
    max_steps or a NaN, infinite or negative approach_tolerance raises
    ValueError.  Graph edges whose balls do not touch never change the state.
    An explicit run stops stepping once every edge of its schedule leaves the
    state as it is; both that count and the graph check read the schedule's
    ``distinct_edges``.
    """
    if graph is None:
        graph = full_contact_graph(config)
    if state0.n != config.n or state0.d != config.dimension:
        raise ValueError("state shape does not match configuration")
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    if not 0.0 <= approach_tolerance < float("inf"):
        raise ValueError(f"approach_tolerance must be finite and >= 0, got {approach_tolerance!r}")
    table = _pair_table(config, graph)

    stable = None
    if schedule.kind == "explicit":
        used = schedule.distinct_edges
        if not used.issubset(graph.edges):
            i, j = next(e for e in schedule.edges if not graph.has_edge(*e))
            raise ScheduleError(f"edge ({i + 1}, {j + 1}) is not in the governing graph")
        planned = applied = schedule.edges[:max_steps]
        # once this many edges are idle, every later step is an identity
        quiet = len(used if len(planned) == len(schedule.edges) else set(planned))
    else:
        if max_steps is None:
            max_steps = 1_000_000
        if schedule.kind == "round-robin":
            planned = itertools.islice(itertools.cycle(graph.edges), max_steps)
        elif schedule.kind == "seeded-random":
            rng, count = np.random.default_rng(schedule.seed), len(graph.edges)
            # drawn in blocks capped at the steps left, which gives the indices of
            # one draw per step (tests/test_dynamics.py pins this)
            planned = (
                graph.edges[k]
                for done in range(0, max_steps, _DRAW_BLOCK)
                for k in rng.integers(count, size=min(_DRAW_BLOCK, max_steps - done)).tolist()
            )
        applied, quiet = [], None
        pairs, bound = list(table.values()), STABILITY_MARGIN * 2**0.5

        def stable(blocks: list) -> bool:
            for k, (i, j, _, u) in enumerate(pairs):
                margin = 0.0  # sqrt(2) z_e . v
                for a, b, c in zip(blocks[i], blocks[j], u):
                    margin += (a - b) * c
                if margin < bound:
                    pairs.insert(0, pairs.pop(k))  # tested first next time
                    return False
            return True

    vals = state0.blocks().tolist()
    if schedule.kind == "lexicographic-greedy":
        applied, rows, stabilized = _walk(table, vals, max_steps, approach_tolerance)
        starts = list(range(len(rows)))
    else:
        # the distinct states, flat, and the step at which each one appears
        rows, starts = [state0.values.tolist()], [0]
        # edges whose exchange is known to leave the current state as it is
        idle: set[Edge] = set()
        stabilized = stable is not None and stable(vals)
        for t, e in enumerate(() if stabilized else planned, 1):
            if stable is not None:
                applied.append(e)
            out = None if e in idle else _exchanged(vals, table.get(e), approach_tolerance)
            if out is None:
                idle.add(e)
                if len(idle) == quiet:
                    break
                continue
            vals = out
            rows.append([x for block in vals for x in block])
            starts.append(t)
            idle.clear()
            # an unchanged state that was not stable stays not stable
            if stable is not None and (stabilized := stable(vals)):
                break

    distinct = np.array(rows).reshape(len(rows), -1)
    counts = np.diff(starts + [len(applied) + 1])
    changed = np.zeros(len(applied), dtype=bool)
    changed[np.array(starts[1:], dtype=int) - 1] = True
    return SimulationTrace(
        n=config.n,
        d=config.dimension,
        states=np.repeat(distinct, counts, axis=0),
        edges=tuple(applied),
        changed=changed,
        functional=np.repeat(functional_value(config, distinct), counts),
        energies=np.repeat(np.einsum("ti,ti->t", distinct, distinct), counts),
        stabilized=stabilized,
    )


def decompose_state(
    config: BallConfiguration,
    graph: ContactGraph,
    state: StateVector,
) -> tuple[StateVector, StateVector]:
    """Split v into the part fixed by all collisions and the part they act on.

    Returns (v_fixed, v_span): v_span is the orthogonal projection of v onto
    span{z_e : e in graph}, v_fixed = v - v_span is orthogonal to every z_e,
    and every pseudo-collision on a graph edge leaves v_fixed untouched while
    preserving |v_span|.
    """
    if not graph.edges:
        return state, state.with_values(np.zeros_like(state.values))
    require_touching(config, graph.edges)
    basis = span_basis(collision_matrix(config, graph.edges))
    v_span = basis @ (basis.T @ state.values)
    return state.with_values(state.values - v_span), state.with_values(v_span)
