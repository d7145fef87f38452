"""Ball configurations, contact graphs, and collision directions.

A configuration is a family of unit balls with fixed centers in R^d whose
interiors are pairwise disjoint.  Pairs of balls at center distance exactly 2
(within the configuration's contact tolerance) are "touching" and form the
edges of the full contact graph.  Every touching pair (j, k) has a unit
collision direction in R^{nd} built from the difference of its centers; that
vector drives both the collision transform and its folding representation.

Pair geometry is built in batched passes with the bits of the per-pair
definitions.  One all-pairs pass serves the contact graph, the overlap check
and ``rigidity.alpha``'s collision matrix: the offsets ``x[lo:hi, None] -
x[None]`` of blocks of ``_ROW_BLOCK`` rows, in O(_ROW_BLOCK n d) memory, are
those of :func:`pair_offsets`, and their ``np.linalg.norm(axis=-1)`` is a
per-row ``norm(axis=1)``.  Per-edge lengths come from one stacked product
``rows[:, None, :] @ rows[:, :, None]``, which sums each row as ``r @ r`` and
``np.linalg.norm(r)`` do; ``np.einsum``, ``(r * r).sum(-1)`` and a
``norm(axis=1)`` over F-ordered rows sum in other orders and differ in the
last bit on a few percent of rows, so a sum meant to match another keeps its
layout.  :func:`collision_matrix` builds every edge's collision vector at
once, raw or unit, as the columns of one matrix.

All types are immutable values after construction and every function is pure,
so instances may be freely shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DisconnectedError,
    NotTouchingError,
    OverlapError,
    ZeroEnergyError,
)

CONTACT_DISTANCE = 2.0
#: Default slack of the touching test: centers within 2 +- this touch.
DEFAULT_CONTACT_TOLERANCE = 1e-9
#: Singular values at or below this fraction of the largest are zero in :func:`span_basis`.
SPAN_CUTOFF = 1e-12
#: Rows of the all-pairs distance pass evaluated per array operation.
_ROW_BLOCK = 64

Edge = tuple[int, int]


def canonical_edge(i: int, j: int) -> Edge:
    """Unordered pair stored as (min, max)."""
    if i == j:
        raise ValueError(f"an edge needs two distinct balls, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


def _require_balls(n: int, edges: Iterable[Edge]) -> None:
    """Raise ValueError for the first edge (printed 1-based) with a ball index
    outside 0..n-1, so that a negative index cannot wrap around to a real ball."""
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i + 1}, {j + 1}) names a ball outside 1..{n}")


def split_chosen_edge(n: int, edge_set: Iterable[Edge], edge: Edge) -> tuple[Edge, list[Edge]]:
    """The chosen edge and the other edges of the set, canonical and sorted.

    Raises ValueError for an edge outside the balls (:func:`_require_balls`)
    and when the chosen edge is not in the set.
    """
    edges = sorted({canonical_edge(*e) for e in edge_set})
    _require_balls(n, edges)
    chosen = canonical_edge(*edge)
    if chosen not in edges:
        raise ValueError(f"edge {chosen} is not in the edge set")
    return chosen, [e for e in edges if e != chosen]


@dataclass(frozen=True, eq=False)
class BallConfiguration:
    """Fixed unit-ball centers plus the tolerance used for touching tests.

    ``centers`` has shape (n, dimension) and finite entries, and
    0 <= contact_tolerance < 2, since from 2 on no pair could overlap.
    Construction validates that open ball interiors are disjoint: any pair
    closer than 2 - contact_tolerance raises :class:`OverlapError`.
    """

    dimension: int
    centers: np.ndarray
    contact_tolerance: float = DEFAULT_CONTACT_TOLERANCE

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        try:
            tolerance = float(self.contact_tolerance)
        except (TypeError, ValueError):
            tolerance = math.nan
        if not 0.0 <= tolerance < CONTACT_DISTANCE:
            raise ValueError(
                f"contact_tolerance must lie in [0, 2), got {self.contact_tolerance!r}"
            )
        centers = np.array(self.centers, dtype=float)
        if centers.ndim != 2:
            raise ValueError("centers must be a list of points")
        if centers.shape[0] < 1:
            raise ValueError("need at least one ball")
        if centers.shape[1] != self.dimension:
            raise ValueError(
                f"centers have dimension {centers.shape[1]}, expected {self.dimension}"
            )
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite numbers")
        limit = CONTACT_DISTANCE - tolerance
        i, j, dists, _ = _pairs_where(centers, lambda dists: dists < limit)
        if dists.size:
            raise OverlapError(int(i[0]), int(j[0]), float(dists[0]))
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "contact_tolerance", tolerance)

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    def distance(self, i: int, j: int) -> float:
        return float(np.linalg.norm(self.centers[i] - self.centers[j]))

    def touches(self, i: int, j: int) -> bool:
        return abs(self.distance(i, j) - CONTACT_DISTANCE) <= self.contact_tolerance

    def stacked(self) -> np.ndarray:
        """Centers as one flat vector in R^{nd}."""
        return self.centers.reshape(-1).copy()


@dataclass(frozen=True)
class ContactGraph:
    """Graph on ball indices 0..n-1; edges are canonical (min, max) pairs."""

    n: int
    edges: tuple[Edge, ...]
    _edge_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edges = tuple(sorted(canonical_edge(*e) for e in self.edges))
        _require_balls(self.n, edges)
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_edge_set", frozenset(edges))

    def has_edge(self, i: int, j: int) -> bool:
        return canonical_edge(i, j) in self._edge_set

    def components(self) -> list[frozenset[int]]:
        """Connected components; isolated vertices count as components."""
        parent = list(range(self.n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i, j in self.edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        groups: dict[int, set[int]] = {}
        for v in range(self.n):
            groups.setdefault(find(v), set()).add(v)
        return [frozenset(g) for g in groups.values()]

    @property
    def is_connected(self) -> bool:
        return len(self.components()) == 1


@dataclass(frozen=True, eq=False)
class CollisionDirection:
    """Unit vector z in R^{nd} encoding a touching pair's collision direction."""

    edge: Edge
    vector: np.ndarray

    def __post_init__(self):
        vec = np.array(self.vector, dtype=float).reshape(-1)
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "edge", canonical_edge(*self.edge))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Stacked pseudo-velocities (v_1, ..., v_n) in R^{nd}."""

    n: int
    d: int
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float).reshape(-1)
        if values.size != self.n * self.d:
            raise ValueError(
                f"state has {values.size} entries, expected n*d = {self.n * self.d}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[float]]) -> "StateVector":
        arr = np.array(blocks, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        return cls(arr.shape[0], arr.shape[1], arr.reshape(-1))

    def block(self, k: int) -> np.ndarray:
        return self.values[k * self.d : (k + 1) * self.d]

    def blocks(self) -> np.ndarray:
        return self.values.reshape(self.n, self.d)

    @property
    def energy(self) -> float:
        return float(self.values @ self.values)

    @property
    def momentum(self) -> np.ndarray:
        return self.blocks().sum(axis=0)

    def with_values(self, values: np.ndarray) -> "StateVector":
        return StateVector(self.n, self.d, values)


def validate_configuration(
    centers: Iterable[Sequence[float]],
    dimension: int | None = None,
    contact_tolerance: float = DEFAULT_CONTACT_TOLERANCE,
) -> BallConfiguration:
    """Build a validated configuration from raw center coordinates.

    Infers the dimension from the first center when not given.  Raises
    :class:`OverlapError` naming the first offending pair if any two centers
    are closer than 2 - contact_tolerance.
    """
    pts = [list(map(float, c)) for c in centers]
    if not pts:
        raise ValueError("need at least one center")
    if dimension is None:
        dimension = len(pts[0])
    for idx, p in enumerate(pts):
        if len(p) != dimension:
            raise ValueError(
                f"center {idx + 1} has dimension {len(p)}, expected {dimension}"
            )
    return BallConfiguration(dimension, np.array(pts), contact_tolerance)


def _pairs_where(
    centers: np.ndarray, test: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The all-pairs distance pass: the pairs i < j whose distance |x_i - x_j|
    passes ``test``, in lexicographic order, as arrays i, j, distance and offset
    x_i - x_j.  A distance whose squares leave the doubles is inf, which neither
    touches nor overlaps, so it warns nothing."""
    blocks = []
    with np.errstate(over="ignore"):
        for lo in range(0, max(len(centers) - 1, 1), _ROW_BLOCK):  # n = 1 too, for the shapes
            offsets = centers[lo : lo + _ROW_BLOCK, None] - centers[None]
            dists = np.linalg.norm(offsets, axis=-1)
            i, j = np.nonzero(test(dists))
            upper = j > i + lo
            i, j = i[upper], j[upper]
            blocks.append((i + lo, j, dists[i, j], offsets[i, j]))
    return blocks[0] if len(blocks) == 1 else tuple(map(np.concatenate, zip(*blocks)))


def _contacts(config: BallConfiguration) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The edges (i, j) of the full contact graph, in order, with their
    distances and offsets x_i - x_j, as :func:`_pairs_where` gives them."""
    tol = config.contact_tolerance
    return _pairs_where(config.centers, lambda r: np.abs(r - CONTACT_DISTANCE) <= tol)


def full_contact_graph(config: BallConfiguration) -> ContactGraph:
    """All pairs whose center distance is 2 within the contact tolerance."""
    i, j, _, _ = _contacts(config)
    return ContactGraph(config.n, tuple(zip(i.tolist(), j.tolist())))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d array, with the bits of ``np.linalg.norm``
    on that row alone (module docstring)."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def pair_offsets(config: BallConfiguration, edges: Sequence[Edge]) -> tuple[np.ndarray, np.ndarray]:
    """x_i - x_j for each edge (i, j), as the rows of one array, and their lengths,
    each equal to ``config.distance(i, j)``."""
    both = config.centers.take(np.array(edges, dtype=int).reshape(-1, 2), axis=0)
    offsets = both[:, 0] - both[:, 1]
    return offsets, _row_norms(offsets)


def require_touching(config: BallConfiguration, edges: Sequence[Edge]) -> None:
    """Raise :class:`NotTouchingError` for the first edge whose balls do not
    touch by the test of ``config.touches``."""
    _, lengths = pair_offsets(config, edges)
    apart = np.flatnonzero(np.abs(lengths - CONTACT_DISTANCE) > config.contact_tolerance)
    if apart.size:
        i, j = edges[apart[0]]
        raise NotTouchingError(i, j, float(lengths[apart[0]]))


def collision_matrix(
    config: BallConfiguration, edges: Sequence[Edge], unit: bool = True
) -> np.ndarray:
    """Collision vectors of canonical edges as the columns of one C-ordered matrix.

    Column k holds x_i - x_j in block i and its negative in block j for the
    k-th edge (i, j): the bits of :func:`raw_collision_vector`, or with
    ``unit`` those of :func:`collision_direction`, whose contact test is left
    to the caller (:func:`require_touching`).  The layout is that of a column
    stack of those vectors, so factorizations downstream round the same way,
    and the transpose holds them as F-ordered rows.
    """
    offsets, _ = pair_offsets(config, edges)
    pairs = np.array(edges, dtype=int).reshape(-1, 2)
    return _collision_columns(config, pairs[:, 0], pairs[:, 1], offsets, unit)


def _collision_columns(
    config: BallConfiguration, i: np.ndarray, j: np.ndarray, offsets: np.ndarray, unit: bool = True
) -> np.ndarray:
    """:func:`collision_matrix` of the edges (i, j) with these offsets x_i - x_j."""
    rows = np.arange(len(offsets))
    raw = np.zeros((len(offsets), config.n, config.dimension))
    raw[rows, i] = offsets
    raw[rows, j] = -offsets
    raw = raw.reshape(len(offsets), config.n * config.dimension)
    if unit:
        raw /= _row_norms(raw)[:, None]
    return np.ascontiguousarray(raw.T)


def span_basis(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of a non-empty matrix, from its thin SVD:
    the left singular vectors whose singular value exceeds SPAN_CUTOFF times the largest."""
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, : int(np.count_nonzero(s > SPAN_CUTOFF * s[0]))]


def raw_collision_vector(config: BallConfiguration, edge: Edge) -> np.ndarray:
    """Unnormalized collision vector: (x_j - x_k) in block j, the negative in block k.

    For a touching pair its Euclidean norm is 2^{3/2}.
    """
    j, k = canonical_edge(*edge)
    vec = np.zeros(config.n * config.dimension)
    d = config.dimension
    diff = config.centers[j] - config.centers[k]
    vec[j * d : (j + 1) * d] = diff
    vec[k * d : (k + 1) * d] = -diff
    return vec


def collision_direction(config: BallConfiguration, edge: Edge) -> CollisionDirection:
    """Unit collision direction for a touching pair; symmetric in the pair order."""
    j, k = canonical_edge(*edge)
    if not config.touches(j, k):
        raise NotTouchingError(j, k, config.distance(j, k))
    raw = raw_collision_vector(config, (j, k))
    return CollisionDirection((j, k), raw / np.linalg.norm(raw))


def normalize_system(
    config: BallConfiguration, state: StateVector
) -> tuple[BallConfiguration, StateVector]:
    """Center the configuration and bring the state to zero momentum, unit energy.

    Shifts all centers by their mean, shifts all velocities by their mean, and
    rescales so the total energy is 1.  None of these operations changes the
    number of collisions the system can experience.  Raises
    :class:`ZeroEnergyError` when the velocities all coincide, since the
    momentum shift then leaves nothing to rescale, and ValueError when
    centering, which rounds every center, makes or breaks a contact or an
    overlap (centers far from their mean, such as 0, 2 and 1e17).
    """
    if state.n != config.n or state.d != config.dimension:
        raise ValueError("state shape does not match configuration")
    centered = config.centers - config.centers.mean(axis=0)
    blocks = state.blocks() - state.blocks().mean(axis=0)
    norm = float(np.linalg.norm(blocks))
    if norm == 0.0:
        raise ZeroEnergyError("all velocities vanish after momentum removal")
    try:
        new_config = BallConfiguration(config.dimension, centered, config.contact_tolerance)
    except OverlapError as exc:
        changed = {(exc.i, exc.j)}
    else:
        touching = [set(zip(*(a.tolist() for a in _contacts(c)[:2]))) for c in (config, new_config)]
        changed = touching[0] ^ touching[1]
    if changed:
        i, j = min(changed)
        raise ValueError(
            f"centering the configuration changes, by rounding, whether balls {i + 1} and "
            f"{j + 1} touch or overlap"
        )
    new_state = StateVector(state.n, state.d, blocks.reshape(-1) / norm)
    return new_config, new_state


def interior_witness(
    config: BallConfiguration, graph: ContactGraph | None = None
) -> tuple[StateVector, float]:
    """Unit state w with strictly positive margin against every edge halfspace.

    w_k = c (x_k - x_1) with c > 0 chosen so |w| = 1.  For every touching pair
    the product w . z equals 2^{-3/2} c |x_i - x_j|^2, and when the full graph
    is connected the margin (the minimum over edges of the graph) is at least
    2^{-3/2} / (n (n-1)^2).  Raises :class:`DisconnectedError` when the full
    graph is disconnected; apply per component instead.
    """
    full = full_contact_graph(config)
    if not full.is_connected:
        raise DisconnectedError(
            f"full contact graph has {len(full.components())} components"
        )
    if config.n < 2:
        raise ValueError("witness needs at least two balls")
    if graph is None:
        graph = full
    diffs = config.centers - config.centers[0]
    scale = float(np.linalg.norm(diffs))
    w = diffs.reshape(-1) / scale
    margin = math.inf
    for e in graph.edges:
        z = collision_direction(config, e).vector
        margin = min(margin, float(w @ z))
    return StateVector(config.n, config.dimension, w), margin
