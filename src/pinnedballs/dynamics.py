"""Pseudo-collision dynamics: the pair transform, schedules, and traces.

A pseudo-collision between touching balls i and j exchanges the components
of their pseudo-velocities parallel to the line of centers, exactly as in a
totally elastic collision of equal masses; pairs that do not touch or are
not approaching are left unchanged.  The same map is realized by folding the
stacked state across the half-space of the pair's collision direction, and
both implementations are exposed so they can be checked against each other.
Whether a pair collides and the exchange it makes are defined once, in the
pair kernel ``_kernel(d)``: its source is generated once per dimension d from
one template by ``foldings._generate``, which also generates the orbit kernel,
with every component unpacked into a local and each dot product
unrolled and summed in component order, on Python floats, so no BLAS build can
change the bits and they equal those of a plain summing loop.  A pair collides
when it approaches, (v_i - v_j) . (x_i - x_j) < 0 with no tolerance band, and
its exchange moves the state by more than :data:`CHANGE_TOLERANCE`.
:func:`collide`, every run and the greedy and exhaustive searches all look the
kernel up once per call or run and use it, so a step changes the state exactly
when it counts as a collision; the stability test of policy runs is generated
from the same template.  The kernel's ``run`` is the whole step loop of every
run, explicit, round-robin or seeded-random, in one frame, and :func:`collide`
and the search's witness replay step through it too.  A state is one list
of floats per ball and ``_pair_table`` gives each touching edge its ball
indices and geometry, so an exchange replaces two blocks and shares the rest.
A run records change points, the distinct states and the steps they appear at,
so an explicit run stops once every edge of its schedule is idle.

The kernel's ``search`` is the whole exhaustive search, depth first on an explicit
stack in one frame.  A node carries its moves: per pair, the blocks its exchange
gives and their keys, or None.  A collision on pair k changes only v_i and v_j, so
a child copies its parent's moves and redoes only the pairs sharing a ball with k
(listed once per search and pair), never re-keying an inherited move.  A block's
key is its raw doubles, from the kernel's ``pack``, and a node's joins them, which
equals ``np.asarray(state).tobytes()``.  The memo, one dict per depth, is sound:
the dynamics are deterministic, so a subtree depends only on its root's state
bits (which two nodes share only when bit-identical, signed zeros apart) and on
the depth left under the cap; and no node is entered once the budget is spent,
so no result stored after that is ever read.

Along any schedule the energy and total momentum are conserved and the
functional F = sum_{i,j} (v_j - v_i) . (x_j - x_i) never decreases; it is
evaluated here in the shift-invariant closed form 2n (x . v) - 2 (sum v) . (sum x),
which coincides with the double sum for every input.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ScheduleError
from .foldings import STABILITY_MARGIN, HalfSpace, _generate, fold
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


# The source of the pair kernel for one dimension d: {a} names the d components of
# v_i (a0, a1, ...), and so on; each expression field is one sum or list over them.
_TEMPLATE = """
def exchanges(blocks, pairs):
    change = CHANGE_TOLERANCE
    for k, (i, j, dx, u) in enumerate(pairs):
        {a} = blocks[i]
        {b} = blocks[j]
        {x} = dx
        if {approach} >= 0.0:
            continue
        {u} = u
        t = {t}
        {p} = {new_i}
        {q} = {new_j}
        if {moved_i} or {moved_j}:
            yield k, [{p}], [{q}]


def run(blocks, planned, table, rows, starts, quiet=None, applied=None, stable=None):
    change, get, idle = CHANGE_TOLERANCE, table.get, set()
    for step, e in enumerate(planned, 1):
        if applied is not None:
            applied.append(e)
        if e in idle:
            continue
        if pair := get(e):
            i, j, dx, u = pair
            {a} = blocks[i]
            {b} = blocks[j]
            {x} = dx
            if not {approach} >= 0.0:
                {u} = u
                t = {t}
                {p} = {new_i}
                {q} = {new_j}
                if {moved_i} or {moved_j}:
                    blocks = blocks.copy()
                    blocks[i], blocks[j] = [{p}], [{q}]
                    rows.append(blocks)
                    starts.append(step)
                    idle.clear()
                    if stable is not None and stable(blocks):
                        return blocks, True
                    continue
        idle.add(e)
        if len(idle) == quiet:
            break
    return blocks, False


def first_unstable(blocks, pairs, bound):
    for k, (i, j, dx, u) in enumerate(pairs):
        {a} = blocks[i]
        {b} = blocks[j]
        {u} = u
        if {margin} < bound:
            {x} = dx
            if not {approach} >= 0.0:
                return k
    return None


def search(start, pairs, edges, depth_cap, max_nodes):
    change, memos, stack, near = CHANGE_TOLERANCE, [{{}}], [], {{None: list(enumerate(pairs))}}
    nodes, truncated, depth, k = 0, False, 0, None
    blocks, keys, moves = start, [pack(*block) for block in start], [None] * len(pairs)
    while True:
        # enter the node (blocks, keys) that pair k led to; at the cap, moves only truncate
        nodes += 1
        memo, key = memos[depth], b"".join(keys)
        if (found := memo.get(key)) is None:
            if depth < depth_cap or not truncated:
                if (sub := near.get(k)) is None:
                    e = pairs[k][:2]
                    sub = near[k] = [(m, p) for m, p in enumerate(pairs) if p[0] in e or p[1] in e]
                moves = moves.copy()
                for m, (i, j, dx, u) in sub:
                    {a} = blocks[i]
                    {b} = blocks[j]
                    {x} = dx
                    if not {approach} >= 0.0:
                        {u} = u
                        t = {t}
                        {p} = {new_i}
                        {q} = {new_j}
                        if {moved_i} or {moved_j}:
                            moves[m] = [{p}], [{q}], pack({p}), pack({q})
                            continue
                    moves[m] = None
            if depth == depth_cap:
                truncated = truncated or any(moves)
                found = memo[key] = (0, ())
            else:
                best, options = (0, ()), enumerate(moves)
        while True:
            if found is not None:
                if not stack:
                    return (*found, nodes, truncated)
                extra, tail = found
                blocks, keys, moves, options, m, best, key = stack.pop()
                depth -= 1
                if 1 + extra > best[0]:
                    best = (1 + extra, (edges[m],) + tail)
            for m, move in options:
                if move is not None:
                    break
            else:
                found = memos[depth][key] = best
                continue
            if nodes >= max_nodes:
                # each call left would count one node and find nothing
                nodes += 1 + sum(map(bool, moves[m + 1:]))
                truncated = True
                found = best if best[0] else (1, (edges[m],))
                continue
            stack.append((blocks, keys, moves, options, m, best, key))
            depth += 1
            if depth == len(memos):
                memos.append({{}})
            (i, j), blocks, keys, k = edges[m], blocks.copy(), keys.copy(), m
            blocks[i], blocks[j], keys[i], keys[j] = move
            break
"""


class _Kernel(NamedTuple):
    """The pair kernel for blocks of one dimension, generated by :func:`_kernel`."""

    #: (blocks, pairs) -> (index, new v_i, new v_j) for each of ``pairs`` (see
    #: :func:`_pairs`), in order, that approaches in ``blocks``, (v_i - v_j) . (x_i - x_j)
    #: < 0, and whose exchange moves some component of v_i or v_j by more than
    #: CHANGE_TOLERANCE: the collision predicate and exchange.
    exchanges: Callable[[list, Iterable[tuple]], Iterator[tuple]]
    #: (blocks, pairs, bound) -> the index of the first pair whose margin
    #: (v_i - v_j) . u is below ``bound`` and that approaches by the test of ``exchanges``;
    #: None when there is none.
    first_unstable: Callable[[list, Sequence[tuple], float], int | None]
    #: (blocks, planned, table, rows, starts, quiet, applied, stable) -> (last
    #: blocks, stabilized): steps through the edges ``planned``, each colliding by the test
    #: of ``exchanges`` on its ``table`` pair (none for a missing or None pair), appending
    #: each new state's blocks to ``rows`` and its step to ``starts``.  Stops once ``quiet``
    #: distinct edges left the state as it is since it last changed, or once
    #: ``stable(blocks)`` is True after a collision (an unchanged state that was not stable
    #: stays so); ``applied`` collects every edge it takes from ``planned``.
    run: Callable[..., tuple[list, bool]]
    #: (start, pairs, edges, depth_cap, max_nodes) -> (collisions, witness, nodes,
    #: truncated): the search of ``search.exhaustive_max_collisions`` from ``start``.
    search: Callable[..., tuple[int, tuple, int, bool]]


@functools.cache
def _kernel(d: int) -> _Kernel:
    """The pair kernel for blocks of d >= 1 floats, generated once per d from ``_TEMPLATE``
    by :func:`~pinnedballs.foldings._generate`.

    Every block, offset and direction is unpacked into locals, and each dot product
    is one unrolled sum in component order, so the results carry the bits of the
    summing loop 0.0 + p_0 + ... + p_(d-1) (a zero sum may differ in sign only,
    which no comparison here can see)."""
    namespace = _generate(
        _TEMPLATE, f"<pair kernel, d={d}>", d,
        {"CHANGE_TOLERANCE": CHANGE_TOLERANCE, "pack": struct.Struct(f"{d}d").pack},
        a="a{c}, ", b="b{c}, ", x="x{c}, ", u="u{c}, ", p="p{c}, ", q="q{c}, ",
        approach="(a{c} - b{c}) * x{c}", margin="(a{c} - b{c}) * u{c}",
        t="(b{c} - a{c}) * u{c}", new_i="a{c} + t * u{c}, ", new_j="b{c} - t * u{c}, ",
        moved_i=("abs(p{c} - a{c}) > change", " or "),
        moved_j=("abs(q{c} - b{c}) > change", " or "),
    )
    return _Kernel(*(namespace[name] for name in _Kernel._fields))


def _pair_table(config: BallConfiguration, graph: ContactGraph) -> dict[Edge, tuple]:
    """Each touching edge of ``graph``, in graph order, mapped to its :func:`_pairs` tuple."""
    return {e: p for e, p in zip(graph.edges, _pairs(config, graph.edges)) if p}


def collide(config: BallConfiguration, state: StateVector, edge: Edge) -> StateVector:
    """Pseudo-collision transform for one pair.

    Returns the state unchanged when the pair does not touch, when
    (v_i - v_j) . (x_i - x_j) >= 0, an exact IEEE comparison (the pair is
    separating or at rest relative to the contact line, an approach of
    either signed zero included), or when the exchange would move no
    component of v_i or v_j by more than :data:`CHANGE_TOLERANCE`.  Every
    other call is a collision, as traces and searches count it.
    """
    if edge[0] == edge[1]:
        raise ValueError("a ball cannot collide with itself")
    blocks = state.blocks().tolist()
    out, _ = _kernel(config.dimension).run(
        blocks, (edge,), {edge: _pairs(config, [edge])[0]}, [], []
    )
    return state if out is blocks else state.with_values(out)


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

    KINDS = ("explicit", "round-robin", "seeded-random")

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
    run stopped before max_steps because every touching pair of the governing
    graph has margin at least ``STABILITY_MARGIN`` or does not approach (see
    :func:`run_schedule`).
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
) -> SimulationTrace:
    """Execute a schedule and record the full trace.

    Explicit schedules run for min(len(schedule), max_steps) steps and must
    reference only edges of the governing graph (:class:`ScheduleError`
    otherwise).  Round-robin and seeded-random schedules stop early once
    every touching pair of the graph has margin z_e . v = ((v_i - v_j) . u) /
    sqrt(2) >= :data:`~pinnedballs.foldings.STABILITY_MARGIN`, summed in
    component order, or does not approach, so that it never collides; the
    pair that failed last is tested first.  Policies otherwise run until
    max_steps (default 10^6).  A negative max_steps raises ValueError.
    Every kind steps through the kernel's ``run``, with the collision test
    of :func:`collide`.  Graph edges whose balls do not touch never change
    the state.
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
    table = _pair_table(config, graph)
    _, first_unstable, run, _ = _kernel(config.dimension)

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
            # margins are sqrt(2) z_e . v; a pair that does not approach never collides
            k = first_unstable(blocks, pairs, bound)
            if k is None:
                return True
            pairs.insert(0, pairs.pop(k))  # tested first next time
            return False

    vals = state0.blocks().tolist()
    # the distinct states and the step at which each one appears
    rows, starts = [vals], [0]
    stabilized = stable is not None and stable(vals)
    if not stabilized:
        _, stabilized = run(
            vals, planned, table, rows, starts, quiet, None if stable is None else applied, stable
        )

    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(rows))
    distinct = np.fromiter(flat, float, len(rows) * state0.values.size).reshape(len(rows), -1)
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
