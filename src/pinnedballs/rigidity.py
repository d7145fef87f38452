"""The approximate-rigidity index and its certificates.

For a subgraph with edge set E_1 and a chosen edge e, alpha_star is the
Euclidean distance from the unit collision direction z_e to the span of the
directions of the remaining edges.  The index alpha of a configuration is
the minimum of the strictly positive alpha_star values over all subgraphs of
the full contact graph and all chosen edges; zero values correspond to
self-stressed (infinitesimally rigid) subgraphs and are excluded.

The distance shrinks as the span grows, so the minimum lies on a hyperplane H
of the matroid of collision directions, at an edge of the cocircuit C* = E - H
(a circuit of the dual).  With Z = U S V^T of rank r, the last m - r columns K
of V represent the dual, and a cocircuit vector x (support C*, orthogonal to
K) puts each e in C* at distance |x_e| / ||S_r^-1 V_r^T x|| from span(H).

alpha_star = 0 exactly when symmetric edge coefficients a_jk with a_e = 1
exist whose force sums a_jk (x_j - x_k) cancel at every vertex; the least
squares residual of that linear system is 2^{3/2} alpha_star, which
:func:`stress_certificate` exposes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import AllZeroError, BudgetExceededError, DependentEdgesError
from .foldings import fold_into_cone
from .geometry import (
    BallConfiguration,
    ContactGraph,
    Edge,
    _collision_columns,
    _contacts,
    _require_balls,
    canonical_edge,
    collision_direction,
    collision_matrix,
    raw_collision_vector,
    require_touching,
    span_basis,
    split_chosen_edge,
)

DEFAULT_ZERO_TOLERANCE = 1e-8
DEFAULT_BUDGET = 1 << 15
RANK_TOLERANCE = 1e-10
#: Slack of spherical_vertex_check's margin tests: rounding in a unit margin, far below alpha.
CONE_MARGIN_TOLERANCE = 1e-9
#: Cone samples whose draw in the span is shorter than this are dropped, not magnified.
SAMPLE_CUTOFF = 1e-9


def _edge_list(edges: Iterable[Edge] | ContactGraph) -> list[Edge]:
    """The canonical edges, each once, in the order they first appear."""
    if isinstance(edges, ContactGraph):
        return list(edges.edges)
    return list(dict.fromkeys(canonical_edge(*e) for e in edges))


def _distance_to_span(target: np.ndarray, columns: list[np.ndarray]) -> float:
    if not columns:  # distance from a unit vector to the zero subspace
        return 1.0
    cols = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(cols, target, rcond=None)
    return float(np.linalg.norm(target - cols @ coef))


def alpha_star(
    config: BallConfiguration,
    edge_set: Iterable[Edge] | ContactGraph,
    edge: Edge,
) -> float:
    """Distance from z_edge to the span of the other edges' directions."""
    chosen, others = split_chosen_edge(config.n, _edge_list(edge_set), edge)
    columns = [collision_direction(config, e).vector for e in others]
    return _distance_to_span(collision_direction(config, chosen).vector, columns)


@dataclass(frozen=True)
class AlphaCandidate:
    """alpha_star(H + edge, edge) = value, with H = ``others`` the hyperplane."""

    edge: Edge
    others: tuple[Edge, ...]
    value: float


@dataclass(frozen=True, eq=False)
class AlphaReport:
    """Result of :func:`alpha`; ``candidates`` is None unless ``collect_table`` was set."""

    alpha: float
    argmin_edge: Edge
    argmin_edges: tuple[Edge, ...]
    zero_tolerance: float
    n_candidates: int
    n_zero: int
    candidates: tuple[AlphaCandidate, ...] | None


def alpha(
    config: BallConfiguration,
    zero_tolerance: float = DEFAULT_ZERO_TOLERANCE,
    budget: int = DEFAULT_BUDGET,
    collect_table: bool = False,
) -> AlphaReport:
    """Minimum of the alpha_star values above zero_tolerance over all subgraphs.

    Values at or below zero_tolerance count as zero and are never the answer.
    The minimum runs over the cocircuits (module docstring), from one SVD whose
    rank counts singular values above RANK_TOLERANCE: coloops (zero rows of K)
    alone, each pair in a series class (parallel rows of K), and the larger
    circuits of the dual found by a depth-first search over independent sets of
    class representatives, with one edge per class.  ``n_candidates`` counts
    the (C*, e) pairs above zero_tolerance, ``n_zero`` the edges in the span of
    the others (all but the coloops above it), ``argmin_edges`` is H + e, and
    equal values go to the smaller cocircuit, then to the one found first.

    ``collect_table`` lists those pairs in ``candidates`` as e, H (where the
    cocircuit vector is 0) and the value, in the order the minimum scans them:
    coloops, pairs, larger cocircuits, each by edge; the first row at the
    minimum is the argmin.  ``budget`` caps the search's tested sets plus the
    cocircuits other than coloops; past it :class:`BudgetExceededError` names
    the budget.  A negative or non-finite ``zero_tolerance`` or a budget < 1 raises ValueError.

    The dual work grows with the dual rank m - r.  Independent directions
    (m = r) leave the dual no circuits: every edge e is a coloop (x = e_e) at
    1 / ||row e of V_r S_r^-1||, a norm over C-ordered rows as that of the
    product x @ V_r S_r^-1 is, and the classes, pairs and search are skipped.
    Generic dense direction matrices (16 columns, dual rank 6-9) exceed the
    default budget, which the contact graphs in the test suite (dual rank at
    most 7) stay within.
    """
    if not (math.isfinite(zero_tolerance) and zero_tolerance >= 0.0):
        raise ValueError(f"zero_tolerance must be finite and >= 0, got {zero_tolerance!r}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget!r}")
    i, j, _, offsets = _contacts(config)
    if not i.size:
        raise AllZeroError("the configuration has no touching pairs")
    zmat = _collision_columns(config, i, j, offsets)
    edges = list(zip(i.tolist(), j.tolist()))
    return _alpha_by_cocircuits(edges, zmat, zero_tolerance, budget, collect_table)


def _alpha_by_cocircuits(
    edges: list[Edge], zmat: np.ndarray, zero_tolerance: float, budget: int,
    collect_table: bool = False,
) -> AlphaReport:
    m = len(edges)
    _, s, vt = np.linalg.svd(zmat)
    rank = int(np.count_nonzero(s > RANK_TOLERANCE))
    if rank == m:
        values = 1.0 / np.linalg.norm(np.ascontiguousarray(vt.T / s), axis=1)
    else:
        found = _dual_cocircuits(vt[rank:], budget)
        x = np.concatenate(found)
        values = np.abs(x) / np.linalg.norm(x @ (vt[:rank].T / s[:rank]), axis=1)[:, None]
    values[values <= zero_tolerance] = math.inf  # and every edge outside the cocircuit
    positive = np.isfinite(values)
    count = int(np.count_nonzero(positive))
    if not count:
        raise AllZeroError("no strictly positive candidate values")
    if rank == m:  # each row of the table leaves out just its edge
        col = int(values.argmin())
        table = None if not collect_table else tuple(
            AlphaCandidate(edges[e], tuple(edges[:e] + edges[e + 1 :]), float(values[e]))
            for e in np.flatnonzero(positive)
        )
        return AlphaReport(float(values[col]), edges[col], tuple(sorted(edges)), zero_tolerance,
                           count, m - count, table)
    row, col = divmod(int(values.argmin()), m)
    hyperplane = [e for i, e in enumerate(edges) if i == col or x[row, i] == 0.0]
    table = None if not collect_table else tuple(
        AlphaCandidate(edges[j], others, float(values[i, j]))
        for i in np.flatnonzero(positive.any(axis=1))
        for others in [tuple(edges[f] for f in np.flatnonzero(x[i] == 0.0))]
        for j in np.flatnonzero(positive[i])
    )
    return AlphaReport(
        float(values[row, col]), edges[col], tuple(sorted(hyperplane)), zero_tolerance,
        count, m - int(np.count_nonzero(positive[: len(found[0])])), table,
    )


def _dual_cocircuits(kt: np.ndarray, budget: int) -> list[np.ndarray]:
    """Cocircuit vectors (rows) for K = kt.T != 0: coloops, series pairs, larger by size."""
    k, m = kt.shape
    knorm = np.linalg.norm(kt, axis=0)  # norms of the rows of K
    unit = kt.T / np.maximum(knorm, RANK_TOLERANCE)[:, None]
    # scale[f] turns a relation coefficient on the unit row of f's class into x_f
    scale, classes, free = np.ones(m), [], np.flatnonzero(knorm > RANK_TOLERANCE)
    while free.size:  # free[0] heads its class
        dots = unit[free] @ unit[free[0]]
        par = np.linalg.norm(unit[free] - dots[:, None] * unit[free[0]], axis=1) <= RANK_TOLERANCE
        classes.append(free[par])
        scale[free[par]] = np.sign(dots[par]) / knorm[free[par]]
        free = free[~par]
    spent = [0]

    def charge(count: int) -> None:
        spent[0] += count
        if spent[0] > budget:
            raise BudgetExceededError(f"alpha ({m} edges, rank {m - k}, {len(classes)} series "
                f"classes) exceeds its budget of {budget} search nodes and cocircuits", None)

    pairs = np.array([p for c in classes for p in itertools.combinations(c, 2)], int).reshape(-1, 2)
    charge(len(pairs))
    # cocircuit vectors, one per row: a relation's coefficient times scale[f] at each pick f
    found = [np.eye(m)[knorm <= RANK_TOLERANCE], np.zeros((len(pairs), m))]
    np.put_along_axis(found[1], pairs, [1.0, -1.0] * scale[pairs], axis=1)
    reps, basis, dependent = unit[[c[0] for c in classes]], np.zeros((k, k)), []

    def visit(chosen: tuple[int, ...]) -> None:
        d = len(chosen)
        cand = np.arange(chosen[-1] + 1 if d else 0, len(reps))  # basis[:d] spans reps[chosen]
        charge(cand.size)
        resid = reps[cand] - (reps[cand] @ basis[:d].T) @ basis[:d]
        norms = np.linalg.norm(resid, axis=1)
        dependent.extend(chosen + (j,) for j in cand[norms <= RANK_TOLERANCE].tolist())
        for i in np.flatnonzero(norms > RANK_TOLERANCE) if d < k else ():
            basis[d] = resid[i] / norms[i]
            visit(chosen + (int(cand[i]),))

    visit(())  # K != 0, so there is at least one class
    for size in sorted({len(c) for c in dependent}):
        group = np.array([c for c in dependent if len(c) == size])
        null = np.linalg.svd(reps[group].transpose(0, 2, 1))[2][:, -1]
        # of the dependent sets, the circuits are those whose null vector has full support
        full = np.all(np.abs(null) > RANK_TOLERANCE, axis=1)
        charge(sum(math.prod(classes[i].size for i in c) for c in group[full]))
        for coefs, c in zip(null[full], group[full]):
            picks = np.array([*itertools.product(*(classes[i] for i in c))])
            found.append(np.zeros((len(picks), m)))
            np.put_along_axis(found[-1], picks, coefs * scale[picks], axis=1)
    return found


@dataclass(frozen=True, eq=False)
class StressCertificate:
    """Least-squares stress for a chosen edge with coefficient forced to 1.

    ``coefficients`` maps each edge of the set to its symmetric coefficient
    (the chosen edge always maps to 1).  ``residual_norms[k]`` is the norm of
    the unbalanced force at vertex k; their stacked norm ``total_residual``
    equals 2^{3/2} alpha_star, so a near-zero residual certifies a rigid
    (zero alpha_star) choice and vice versa.
    """

    edge: Edge
    coefficients: dict[Edge, float]
    residual_norms: np.ndarray
    total_residual: float


def stress_certificate(
    config: BallConfiguration,
    edge_set: Iterable[Edge] | ContactGraph,
    edge: Edge,
) -> StressCertificate:
    """Best symmetric stress with the chosen edge's coefficient pinned to 1."""
    chosen, others = split_chosen_edge(config.n, _edge_list(edge_set), edge)
    target = raw_collision_vector(config, chosen)
    if others:
        cols = collision_matrix(config, others, unit=False)
        coef, *_ = np.linalg.lstsq(cols, -target, rcond=None)
        residual_vec = target + cols @ coef
    else:
        coef = np.zeros(0)
        residual_vec = target
    coefficients = {chosen: 1.0}
    coefficients.update({e: float(a) for e, a in zip(others, coef)})
    per_vertex = np.linalg.norm(
        residual_vec.reshape(config.n, config.dimension), axis=1
    )
    return StressCertificate(
        edge=chosen,
        coefficients=coefficients,
        residual_norms=per_vertex,
        total_residual=float(np.linalg.norm(residual_vec)),
    )


@dataclass(frozen=True, eq=False)
class SphericalVertexReport:
    """Vertex directions of a spherical cone and their facet clearances."""

    alpha_used: float
    vertex_margins: np.ndarray
    min_vertex_margin: float
    vertices_ok: bool
    sample_margins: np.ndarray
    min_sample_margin: float
    samples_ok: bool


def spherical_vertex_check(
    config: BallConfiguration,
    graph: ContactGraph,
    edge_subset: Iterable[Edge],
    *,
    alpha_value: float | None = None,
    samples: int = 200,
    seed: int = 0,
    tol: float = CONE_MARGIN_TOLERANCE,
) -> SphericalVertexReport:
    """Check the vertex and inradius inequalities of the feasible spherical cone.

    For an independent edge subset, each vertex direction w_k (the normalized
    residual of one direction against the span of the others) must clear some
    facet hyperplane by at least alpha; and every sampled unit state of the
    feasible cone within the span of the graph's directions must clear some
    facet by at least alpha / (n d).  One thin SVD zcols = U S V^T of the subset
    decides independence (singular values above RANK_TOLERANCE) and gives the
    w_k as the normalized columns of U S^-1 V^T = zcols (zcols^T zcols)^-1;
    ``vertex_margins`` follows the subset's edges in the order first passed.
    The samples are standard normal draws in the coordinates of an orthonormal
    basis B of the span (draws shorter than SAMPLE_CUTOFF are dropped), folded together
    by :func:`~pinnedballs.foldings.fold_into_cone` against the normalized
    B^T z_k and normalized.  Raises ValueError for a negative ``samples``; then, in
    this order, ValueError for an edge with a ball outside 1..n, NotTouchingError
    for a subset or graph edge whose balls do not touch, ValueError for a subset
    edge not in ``graph`` and :class:`DependentEdgesError` for dependent ones.
    """
    subset = _edge_list(edge_subset)
    if not subset:
        raise ValueError("edge subset must be non-empty")
    if not graph.edges:
        raise ValueError("graph must have at least one edge")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    _require_balls(config.n, subset + list(graph.edges))
    require_touching(config, subset + list(graph.edges))
    for i, j in subset:
        if not graph.has_edge(i, j):
            raise ValueError(f"subset edge ({i + 1}, {j + 1}) is not an edge of the graph")
    graph_cols = collision_matrix(config, graph.edges)
    zcols = graph_cols[:, [graph.edges.index(e) for e in subset]]
    u, s, vt = np.linalg.svd(zcols, full_matrices=False)
    if np.count_nonzero(s > RANK_TOLERANCE) < len(subset):
        raise DependentEdgesError("subset directions are linearly dependent")
    if alpha_value is None:
        alpha_value = alpha(config).alpha

    # column k is orthogonal to every other column of zcols and has inner
    # product 1 with z_k: the residual of z_k against the others, scaled
    vertices = (u / s) @ vt
    vertices /= np.linalg.norm(vertices, axis=0)
    vertex_margins = np.max(zcols.T @ vertices, axis=0)

    basis = span_basis(graph_cols)
    normals = basis.T @ graph_cols
    normals /= np.linalg.norm(normals, axis=0)
    # one draw of all samples gives the same numbers as one draw per sample
    raw = np.random.default_rng(seed).standard_normal((samples, config.n * config.dimension))
    coords = raw @ basis
    coords = fold_into_cone(coords[np.linalg.norm(coords, axis=1) >= SAMPLE_CUTOFF], normals)
    coords /= np.linalg.norm(coords, axis=1)[:, None]
    sample_margins = np.max(coords @ normals, axis=1)

    floor = alpha_value / (config.n * config.dimension)
    return SphericalVertexReport(
        alpha_used=alpha_value,
        vertex_margins=vertex_margins,
        min_vertex_margin=float(vertex_margins.min()),
        vertices_ok=bool(np.all(vertex_margins >= alpha_value - tol)),
        sample_margins=sample_margins,
        min_sample_margin=float(sample_margins.min()) if sample_margins.size else math.inf,
        samples_ok=bool(np.all(sample_margins >= floor - tol)),
    )
