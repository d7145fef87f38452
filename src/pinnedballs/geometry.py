"""Ball configurations, contact graphs, and collision directions.

A configuration is a family of unit balls with fixed centers in R^d whose
interiors are pairwise disjoint.  Pairs of balls at center distance exactly 2
(within the configuration's contact tolerance) are "touching" and form the
edges of the full contact graph.  Every touching pair (j, k) has a unit
collision direction in R^{nd} built from the difference of its centers; that
vector drives both the collision transform and its folding representation.

All types are immutable values after construction and every function is pure,
so instances may be freely shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DisconnectedError,
    NotTouchingError,
    OverlapError,
    ZeroEnergyError,
)

CONTACT_DISTANCE = 2.0

Edge = tuple[int, int]


def canonical_edge(i: int, j: int) -> Edge:
    """Unordered pair stored as (min, max)."""
    if i == j:
        raise ValueError(f"an edge needs two distinct balls, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


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
    contact_tolerance: float = 1e-9

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
        n = centers.shape[0]
        for i in range(n - 1):
            dists = np.linalg.norm(centers[i + 1 :] - centers[i], axis=1)
            short = np.nonzero(dists < CONTACT_DISTANCE - self.contact_tolerance)[0]
            if short.size:
                j = i + 1 + int(short[0])
                raise OverlapError(i, j, float(dists[short[0]]))
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "contact_tolerance", tolerance)

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    def center(self, i: int) -> np.ndarray:
        return self.centers[i]

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
        for i, j in edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
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
    contact_tolerance: float = 1e-9,
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


def full_contact_graph(config: BallConfiguration) -> ContactGraph:
    """All pairs whose center distance is 2 within the contact tolerance."""
    edges = []
    for i in range(config.n - 1):
        dists = np.linalg.norm(config.centers[i + 1 :] - config.centers[i], axis=1)
        hits = np.nonzero(np.abs(dists - CONTACT_DISTANCE) <= config.contact_tolerance)[0]
        edges.extend((i, i + 1 + int(j)) for j in hits)
    return ContactGraph(config.n, tuple(edges))


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
    momentum shift then leaves nothing to rescale.
    """
    if state.n != config.n or state.d != config.dimension:
        raise ValueError("state shape does not match configuration")
    centered = config.centers - config.centers.mean(axis=0)
    blocks = state.blocks() - state.blocks().mean(axis=0)
    norm = float(np.linalg.norm(blocks))
    if norm == 0.0:
        raise ZeroEnergyError("all velocities vanish after momentum removal")
    new_config = BallConfiguration(config.dimension, centered, config.contact_tolerance)
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
