"""Folding maps of R^m and orbit computation.

A folding relative to a closed half-space H = {v : v . h >= 0} is the
identity on H and the reflection in the boundary hyperplane on the
complement.  Foldings are non-expansive, and for any finite half-space
family whose intersection has non-empty interior, every point's orbit under
any infinite folding sequence is finite.  No bound on the orbit size in
terms of the number of half-spaces exists, which
:func:`adversarial_two_halfplanes` demonstrates constructively.
One margin, ``_margin``, serves :meth:`HalfSpace.margin`, :func:`fold` and
:func:`orbit`, whose float loop skips its checks after an identity fold.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, NoInteriorWitnessError

UNIT_TOLERANCE = 1e-12
#: A point with margin at least this lies in a half-space.  Both stop rules
#: use it: folding orbits and the policy runs of ``dynamics.run_schedule``.
STABILITY_MARGIN = -1e-12
POINT_QUANTUM_DECIMALS = 12
_QUANTUM = 10.0**POINT_QUANTUM_DECIMALS


def _margin(point: list, normal: list) -> float:
    """v . h on floats summed in component order; callers check the lengths."""
    m = 0.0
    for a, b in zip(point, normal):
        m += a * b
    return m


@dataclass(frozen=True, eq=False)
class HalfSpace:
    """Closed half-space {v : v . normal >= 0} through the origin."""

    normal: np.ndarray

    def __post_init__(self):
        normal = np.array(self.normal, dtype=float).reshape(-1)
        # a NaN norm passes any "> tolerance" test, so finiteness comes first
        if not np.all(np.isfinite(normal)):
            raise ValueError("half-space normal must be finite")
        if abs(np.linalg.norm(normal) - 1.0) > UNIT_TOLERANCE:
            raise ValueError("half-space normal must have unit length")
        normal.setflags(write=False)
        object.__setattr__(self, "normal", normal)

    @classmethod
    def from_vector(cls, v: Sequence[float]) -> "HalfSpace":
        arr = np.array(v, dtype=float).reshape(-1)
        norm = np.linalg.norm(arr)
        if norm == 0.0:
            raise ValueError("cannot build a half-space from the zero vector")
        return cls(arr / norm)

    @property
    def dimension(self) -> int:
        return self.normal.size

    def margin(self, point: np.ndarray) -> float:
        vals = np.asarray(point, dtype=float).reshape(-1).tolist()
        if len(vals) != self.dimension:
            raise ValueError(f"point of dimension {len(vals)}, half-space of {self.dimension}")
        return _margin(vals, self.normal.tolist())


def fold(point: Sequence[float], halfspace: HalfSpace) -> np.ndarray:
    """Identity on the half-space, reflection in its boundary outside it."""
    v = np.array(point, dtype=float).reshape(-1)
    m = halfspace.margin(v)
    if m >= 0.0:
        return v
    return v - 2.0 * m * halfspace.normal


def fold_into_cone(
    points: np.ndarray, normals: np.ndarray, max_passes: int = 100_000
) -> np.ndarray:
    """Fold each row of ``points`` into the cone {v : v . normals[:, k] >= 0 for all k}.

    ``points`` has shape (B, N) and ``normals`` shape (N, m) with finite unit
    columns.  Every row repeats the scalar loop on its own: per pass, take the
    margins against all columns, then for each column k that was negative at
    the start of the pass, in ascending order, recompute m = v . z_k and apply
    :func:`fold` (v - 2 m z_k when m < 0).  A pass copies the rows with a
    negative margin into one block; a column step adds -2 min(m, 0) z_k to
    the rows negative at k at the start of the pass, zero to the others, and
    the block is written back.  Raises ValueError for ``max_passes`` < 1 and
    RuntimeError when rows are still active after ``max_passes`` passes.
    Returns a new (B, N) array.
    """
    v = np.array(points, dtype=float)
    z = np.asarray(normals, dtype=float)
    if v.ndim != 2 or z.ndim != 2 or v.shape[1] != z.shape[0]:
        raise ValueError(
            f"need points (B, N) and normals (N, m), got {v.shape} and {z.shape}"
        )
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(z))):
        raise ValueError("points and normals must be finite")
    if np.any(np.abs(np.linalg.norm(z, axis=0) - 1.0) > UNIT_TOLERANCE):
        raise ValueError("normals must have unit length")
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes!r}")
    active, block = np.arange(v.shape[0]), v
    for _ in range(max_passes):
        bad = block @ z < 0.0
        keep = bad.any(axis=1)
        active, block, bad = active[keep], block[keep], bad[keep]
        if active.size == 0:
            return v
        scale = -2.0 * bad
        for k in np.flatnonzero(bad.any(axis=0)):
            m = np.minimum(block @ z[:, k], 0.0) * scale[:, k]
            block += m[:, None] * z[:, k]
        v[active] = block
    raise RuntimeError("folding did not stabilize within the pass budget")


@dataclass(frozen=True)
class FoldingSchedule:
    """Finite description of an infinite folding order.

    round-robin cycles through all half-spaces, periodic repeats a fixed
    word of half-space indices, and seeded-random draws indices uniformly.
    """

    kind: str
    word: tuple[int, ...] = ()
    seed: int | None = None

    KINDS = ("round-robin", "periodic", "seeded-random")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "periodic" and not self.word:
            raise ValueError("periodic schedule needs a non-empty word")
        if self.kind == "seeded-random" and self.seed is None:
            raise ValueError("seeded-random schedule needs a seed")

    @classmethod
    def round_robin(cls) -> "FoldingSchedule":
        return cls("round-robin")

    @classmethod
    def periodic(cls, word: Sequence[int]) -> "FoldingSchedule":
        return cls("periodic", tuple(int(i) for i in word))

    @classmethod
    def seeded_random(cls, seed: int) -> "FoldingSchedule":
        return cls("seeded-random", seed=seed)

    def recurring_indices(self, count: int) -> frozenset[int]:
        """Half-space indices that may still appear arbitrarily late."""
        if self.kind == "periodic":
            return frozenset(self.word)
        return frozenset(range(count))

    def indices(self, count: int) -> Iterator[int]:
        if self.kind == "round-robin":
            return itertools.cycle(range(count))
        if self.kind == "periodic":
            for i in self.word:
                if not 0 <= i < count:
                    raise ValueError(f"word index {i} out of range")
            return itertools.cycle(self.word)
        rng = np.random.default_rng(self.seed)
        return (int(rng.integers(count)) for _ in itertools.count())


@dataclass(frozen=True, eq=False)
class OrbitResult:
    """Distinct points visited by a folding orbit, in order of first visit.

    ``stabilization_index`` is the number of folds applied when the current
    point was certified to lie in every half-space the schedule can still
    apply (all later folds are then identities); None means the budget ran
    out first, which only occurs inside :class:`BudgetExceededError`.
    """

    points: np.ndarray
    stabilization_index: int | None
    final: np.ndarray
    steps: int

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _point_key(vals: list, pack) -> bytes:
    """The bytes of ``np.round(point, 12)`` (``pack`` packs d doubles).  Signed zeros
    stay apart, as in numpy: [-1e-13, 1] and [1e-13, 1] are distinct points."""
    try:
        return pack(*[math.copysign(round(x * _QUANTUM), x) / _QUANTUM for x in vals])
    except OverflowError:  # x * 1e12 is infinite, which numpy's rint keeps
        return np.round(np.array(vals), POINT_QUANTUM_DECIMALS).tobytes()


def orbit(
    start: Sequence[float],
    halfspaces: Sequence[HalfSpace],
    schedule: FoldingSchedule,
    budget: int = 1_000_000,
    *,
    witness: Sequence[float],
) -> OrbitResult:
    """Iterate foldings until the orbit certifiably stabilizes.

    The caller must supply a witness point with strictly positive margin
    against every half-space; this is the hypothesis under which orbits are
    guaranteed finite.  The orbit stops when the current point lies (margin
    >= STABILITY_MARGIN) in every half-space the schedule can still apply,
    and raises :class:`BudgetExceededError` carrying the partial orbit
    otherwise.  Points are told apart by ``_point_key``.  Start and witness
    must be finite, of the normals' dimension, and ``budget`` at least 1.  An
    identity fold leaves the point seen and not stable, so neither its key nor
    stability is rechecked.
    """
    if not halfspaces:
        raise ValueError("need at least one half-space")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget!r}")
    w = np.array(witness, dtype=float).reshape(-1)
    v = np.array(start, dtype=float).reshape(-1)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
        raise ValueError("orbit start and witness must be finite")
    if v.size != w.size:  # HalfSpace.margin compares the witness with each normal
        raise ValueError(f"start of dimension {v.size}, witness of {w.size}")
    wmargin = min(h.margin(w) for h in halfspaces)
    if not wmargin > 0.0:
        raise NoInteriorWitnessError(wmargin)

    # indices() checks a periodic word's range, so it runs before any indexing
    order = schedule.indices(len(halfspaces))
    normals, v = [h.normal.tolist() for h in halfspaces], v.tolist()
    recurring = [normals[i] for i in schedule.recurring_indices(len(normals))]

    def stable(v: list) -> bool:
        for h in recurring:
            if _margin(v, h) < STABILITY_MARGIN:
                return False
        return True

    pack = struct.Struct(f"{len(v)}d").pack
    points, seen = [v], {_point_key(v, pack)}
    if stable(v):
        return OrbitResult(np.array(points), 0, np.array(v), 0)
    for steps, idx in enumerate(order, 1):
        h = normals[idx]
        m = _margin(v, h)
        if m < 0.0:
            v = [a - 2.0 * m * b for a, b in zip(v, h)]
            if (key := _point_key(v, pack)) not in seen:
                seen.add(key)
                points.append(v)
            if stable(v):
                return OrbitResult(np.array(points), steps, np.array(v), steps)
        if steps >= budget:
            partial = OrbitResult(np.array(points), None, np.array(v), steps)
            raise BudgetExceededError(f"orbit budget exhausted after {steps} folds", partial)
    raise AssertionError("unreachable: schedules are infinite")


def adversarial_two_halfplanes(
    m: int,
) -> tuple[list[HalfSpace], np.ndarray, FoldingSchedule]:
    """Two half-planes whose alternating folding orbit exceeds m points.

    The normals are e^{i 0} and e^{i (pi - eps)}: the boundary lines meet at
    the small angle eps, so each double fold advances the point by a rotation
    of 2 eps and the orbit needs on the order of pi/eps points to enter the
    thin feasible wedge.  eps starts at pi/(2m) and is halved until the orbit
    measured by :func:`orbit` actually exceeds m points; the check stops
    after m + 1 folds when the orbit already has more than m points.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    eps = math.pi / (2 * m)
    schedule = FoldingSchedule.periodic((0, 1))
    start = np.array([0.0, -1.0])
    while True:
        halfspaces = [
            HalfSpace(np.array([1.0, 0.0])),
            HalfSpace(np.array([math.cos(math.pi - eps), math.sin(math.pi - eps)])),
        ]
        witness_angle = math.pi / 2 - eps / 2
        witness = np.array([math.cos(witness_angle), math.sin(witness_angle)])
        try:
            size = orbit(start, halfspaces, schedule, budget=m + 1, witness=witness).size
        except BudgetExceededError as exc:
            # a partial orbit with more than m points settles it; else the full one does
            size = exc.best.size
            if size <= m:
                size = orbit(start, halfspaces, schedule, budget=10_000_000, witness=witness).size
        if size > m:
            return halfspaces, start, schedule
        eps /= 2.0
