import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pinnedballs import configs, lattice
from pinnedballs.dynamics import decompose_state
from pinnedballs.errors import (
    AllZeroError,
    BudgetExceededError,
    DependentEdgesError,
    NotTouchingError,
)
from pinnedballs.foldings import HalfSpace, fold
from pinnedballs.geometry import (
    _ROW_BLOCK,
    ContactGraph,
    StateVector,
    _contacts,
    collision_direction,
    collision_matrix,
    full_contact_graph,
    interior_witness,
    pair_offsets,
    raw_collision_vector,
    validate_configuration,
)
from pinnedballs.rigidity import (
    DEFAULT_ZERO_TOLERANCE,
    RANK_TOLERANCE,
    AlphaCandidate,
    AlphaReport,
    _alpha_by_cocircuits,
    _dual_cocircuits,
    _distance_to_span,
    alpha,
    alpha_star,
    spherical_vertex_check,
    stress_certificate,
)

from pinnedballs.verify import random_system

SQRT3 = math.sqrt(3.0)


def _gram_oracle(config, edge_set, edge):
    """Independent high-precision distance: solve the Gram system at 60 digits."""
    others = [e for e in edge_set if tuple(sorted(e)) != tuple(sorted(edge))]
    z = collision_direction(config, edge).vector
    if not others:
        return 1.0
    cols = [collision_direction(config, e).vector for e in others]
    with mpmath.workdps(60):
        gram = mpmath.matrix(
            [[mpmath.mpf(float(a @ b)) for b in cols] for a in cols]
        )
        rhs = mpmath.matrix([mpmath.mpf(float(a @ z)) for a in cols])
        coef = mpmath.lu_solve(gram, rhs)
        dist_sq = mpmath.mpf(1) - sum(coef[i] * rhs[i] for i in range(len(cols)))
        return float(mpmath.sqrt(dist_sq))


class TestAlphaStar:
    def test_single_edge_is_exactly_one(self):
        config = configs.touching_pair()
        assert alpha_star(config, [(0, 1)], (0, 1)) == 1.0

    def test_chain_value_against_hand_projection(self):
        # z01 . z12 = -1/2, so dist = sqrt(1 - 1/4) = sqrt(3)/2
        config = configs.collinear_chain(3)
        value = alpha_star(config, [(0, 1), (1, 2)], (0, 1))
        assert value == pytest.approx(SQRT3 / 2.0, abs=1e-12)
        # brute-force one-dimensional least squares over the coefficient
        z01 = collision_direction(config, (0, 1)).vector
        z12 = collision_direction(config, (1, 2)).vector
        a = np.linspace(-2.0, 2.0, 400001)[:, None]
        brute = np.linalg.norm(z01 - a * z12, axis=1).min()
        assert value == pytest.approx(brute, abs=1e-9)

    def test_triangle_against_gram_oracle(self):
        config = configs.triangle()
        edges = [(0, 1), (0, 2), (1, 2)]
        value = alpha_star(config, edges, (0, 1))
        assert value == pytest.approx(_gram_oracle(config, edges, (0, 1)), abs=1e-12)
        assert value == pytest.approx(3.0 / math.sqrt(10.0), abs=1e-12)

    def test_randomized_against_gram_oracle(self, rng):
        for _ in range(30):
            config, _ = random_system(rng, n_max=5)
            edges = list(full_contact_graph(config).edges)
            chosen = edges[int(rng.integers(len(edges)))]
            value = alpha_star(config, edges, chosen)
            oracle = _gram_oracle(config, edges, chosen)
            # near-dependent spans lose accuracy in the oracle, not the SVD path
            assert value == pytest.approx(oracle, abs=1e-6)

    def test_never_increases_when_edges_added(self, rng):
        for _ in range(30):
            config, _ = random_system(rng, n_max=5, d_max=2)
            edges = list(full_contact_graph(config).edges)
            chosen = edges[0]
            rest = edges[1:]
            prev = alpha_star(config, [chosen], chosen)
            for k in range(len(rest) + 1):
                value = alpha_star(config, [chosen] + rest[:k], chosen)
                assert value <= prev + 1e-12
                prev = value

    def test_missing_edge_rejected(self):
        config = configs.collinear_chain(3)
        with pytest.raises(ValueError):
            alpha_star(config, [(1, 2)], (0, 1))


class TestAlpha:
    def test_two_ball_alpha_is_one(self):
        report = alpha(configs.touching_pair(), collect_table=True)
        assert report.alpha == 1.0
        assert report.argmin_edge == (0, 1)
        assert report.n_candidates == 1
        assert report.n_zero == 0

    def test_chain_alpha_with_candidate_table(self):
        report = alpha(configs.collinear_chain(3), collect_table=True)
        assert report.alpha == pytest.approx(SQRT3 / 2.0, abs=1e-12)
        # candidates: the 2 coloops, each against the span of the other edge
        assert report.n_candidates == 2
        assert report.n_zero == 0
        rows = [(c.edge, c.others) for c in report.candidates]
        assert rows == [((0, 1), ((1, 2),)), ((1, 2), ((0, 1),))]
        values = [c.value for c in report.candidates]
        assert values == pytest.approx([SQRT3 / 2, SQRT3 / 2], abs=1e-12)

    def test_flower_has_zero_candidates(self):
        # 12 contacts among 7 discs exceed the 11-dimensional span: some
        # subgraph is self-stressed, so zero values appear and are excluded
        report = alpha(configs.hexagonal_flower(), collect_table=False)
        assert report.n_zero > 0
        assert report.alpha > 0.0

    def test_budget_counts_search_nodes_and_cocircuits(self):
        # the flower is one series class of 12 edges: its 66 pairs are the
        # cocircuits, and the search tests the one representative
        flower = configs.hexagonal_flower()
        assert alpha(flower, budget=67).n_candidates == 132
        with pytest.raises(BudgetExceededError, match="budget of 66 ") as exc:
            alpha(flower, budget=66)
        assert exc.value.best is None

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1e-12])
    def test_malformed_zero_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="zero_tolerance"):
            alpha(configs.hexagonal_flower(), zero_tolerance=tolerance)
        with pytest.raises(ValueError, match="zero_tolerance"):
            alpha(configs.triangle(), zero_tolerance=tolerance, collect_table=True)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            alpha(configs.triangle(), budget=budget)

    def test_zero_tolerance_zero_accepted(self):
        flower = configs.hexagonal_flower()
        assert alpha(flower, zero_tolerance=0.0).alpha == alpha(flower).alpha

    def test_no_edges_rejected(self):
        config = validate_configuration([[0.0], [5.0]])
        with pytest.raises(AllZeroError):
            alpha(config)

    def test_alpha_in_unit_interval_and_permutation_invariant(self, rng):
        for _ in range(10):
            config, _ = random_system(rng, n_max=5, d_max=2)
            report = alpha(config, collect_table=False)
            assert 0.0 < report.alpha <= 1.0
            perm = rng.permutation(config.n)
            permuted = validate_configuration(
                [config.centers[k] for k in perm], config.dimension
            )
            assert alpha(permuted, collect_table=False).alpha == pytest.approx(
                report.alpha, abs=1e-9
            )


NAMED = {
    "pair": configs.touching_pair,
    "chain3": lambda: configs.collinear_chain(3),
    "triangle": configs.triangle,
    "rhombus": configs.rhombus,
    "square": configs.square,
    "flower": configs.hexagonal_flower,
}


def _alpha_by_hyperplanes(edges, zmat, zero_tolerance):
    """Reference: close every independent (r-1)-subset of columns to its hyperplane.

    The production path before cocircuits; each hyperplane H is visited once
    and scored at every edge outside it, so ``n_candidates`` and ``n_zero``
    count the same pairs and edges as the cocircuit path does.
    """
    m = len(edges)
    rank = int(np.linalg.matrix_rank(zmat, tol=RANK_TOLERANCE))
    seen = set()
    best, best_edge, best_set = math.inf, None, ()
    n_candidates, n_zero = 0, m
    for basis in itertools.combinations(range(m), rank - 1):
        if basis:
            q, r = np.linalg.qr(zmat[:, basis])
            if np.min(np.abs(np.diag(r))) <= RANK_TOLERANCE:
                continue
            residual = np.linalg.norm(zmat - q @ (q.T @ zmat), axis=0)
        else:
            residual = np.ones(m)
        closed = residual <= zero_tolerance
        if closed.tobytes() in seen:
            continue
        seen.add(closed.tobytes())
        outside = np.flatnonzero(~closed)
        if outside.size == 0:
            continue
        n_candidates += outside.size
        n_zero -= outside.size == 1
        k = outside[np.argmin(residual[outside])]
        if residual[k] < best:
            best, best_edge = float(residual[k]), edges[k]
            best_set = tuple(edges[i] for i in np.flatnonzero(closed)) + (best_edge,)
    if best_edge is None:
        raise AllZeroError("no strictly positive candidate values")
    return AlphaReport(
        best, best_edge, tuple(sorted(best_set)), zero_tolerance, n_candidates, n_zero, None
    )


def _alpha_by_subsets(edges, zmat, zero_tolerance):
    """Oracle: a row alpha_star(S + e, e) for every edge e and subset S of the others.

    The rows run over e, then |S|, then S in lexicographic order, and
    ``n_candidates``/``n_zero`` count rows and zero rows (m 2^(m-1) in all).
    One stacked SVD per subset size k gives each k-subset's span, from the
    singular values above lstsq's ``rcond=None`` cutoff eps max(N, k) s_max,
    and every column is projected onto it at once.
    """
    n, m = zmat.shape
    subsets, dists, insides = [], [], []
    for k in range(m):
        group = np.array([*itertools.combinations(range(m), k)], int).reshape(math.comb(m, k), k)
        if k:
            u, s, _ = np.linalg.svd(zmat[:, group].transpose(1, 0, 2), full_matrices=False)
            u = u * (s > np.finfo(float).eps * max(n, k) * s[:, :1])[:, None, :]
            dists.append(np.linalg.norm(zmat - u @ (u.transpose(0, 2, 1) @ zmat), axis=1))
        else:
            dists.append(np.ones((1, m)))  # distance from a unit vector to {0}
        inside = np.zeros((len(group), m), bool)
        np.put_along_axis(inside, group, True, axis=1)
        subsets += group.tolist()
        insides.append(inside)
    edge_ids, subset_ids = np.nonzero(~np.vstack(insides).T)
    values = np.vstack(dists)[subset_ids, edge_ids]
    zero = values <= zero_tolerance
    if zero.all():
        raise AllZeroError("no strictly positive candidate values")
    best = np.flatnonzero(~zero)[values[~zero].argmin()]  # the first of equal values
    edge = edges[edge_ids[best]]
    others = [edges[f] for f in subsets[subset_ids[best]]]
    return AlphaReport(
        float(values[best]), edge, tuple(sorted([edge, *others])), zero_tolerance,
        values.size, int(zero.sum()), None,
    )


def _cocircuits_against_references(edges, zmat, with_oracle=True):
    """The cocircuit path against the subset oracle and the hyperplane reference."""
    fast = _alpha_by_cocircuits(edges, zmat, DEFAULT_ZERO_TOLERANCE, 1 << 15)
    reference = _alpha_by_hyperplanes(edges, zmat, DEFAULT_ZERO_TOLERANCE)
    assert abs(fast.alpha - reference.alpha) <= 1e-12
    oracle = None
    if with_oracle:
        oracle = _alpha_by_subsets(edges, zmat, DEFAULT_ZERO_TOLERANCE)
        assert abs(fast.alpha - oracle.alpha) <= 1e-12
        assert (fast.n_zero > 0) == (oracle.n_zero > 0)
    assert (fast.n_candidates, fast.n_zero) == (reference.n_candidates, reference.n_zero)
    # the argmin is a hyperplane plus one edge, scored at that edge
    columns = dict(zip(edges, zmat.T))
    others = [columns[e] for e in fast.argmin_edges if e != fast.argmin_edge]
    direct = _distance_to_span(columns[fast.argmin_edge], others)
    assert abs(direct - fast.alpha) <= 1e-12
    return fast, oracle


def _hyperplanes_against_subsets(config):
    """alpha (cocircuits) against the subset oracle, on the full contact graph."""
    fast = alpha(config)
    edges = list(full_contact_graph(config).edges)
    oracle = _alpha_by_subsets(edges, collision_matrix(config, edges), DEFAULT_ZERO_TOLERANCE)
    assert abs(fast.alpha - oracle.alpha) <= 1e-12
    direct = alpha_star(config, fast.argmin_edges, fast.argmin_edge)
    assert abs(direct - fast.alpha) <= 1e-12
    assert (fast.n_zero > 0) == (oracle.n_zero > 0)
    per_edge = np.column_stack([collision_direction(config, e).vector for e in edges])
    assert np.array_equal(collision_matrix(config, edges), per_edge)
    reference = _alpha_by_hyperplanes(edges, per_edge, DEFAULT_ZERO_TOLERANCE)
    assert (fast.n_candidates, fast.n_zero) == (reference.n_candidates, reference.n_zero)
    return fast, oracle


def _patch(radius):
    points = lattice.lattice_points_in_radius(radius)
    return lattice.lattice_configuration(points), list(lattice.contact_edges(points))


#: 7, 13, 31 and 37 discs of the triangular lattice.
P7, P13, P31, P37 = 2.0, 3.5, 5.3, 6.0
#: alpha of the 13-disc patch as the (r-1)-subset hyperplane path gives it
P13_ALPHA = 0.3944427796055831


class TestHyperplanesAgainstSubsets:
    @pytest.mark.parametrize("name", NAMED)
    def test_named(self, name):
        fast, oracle = _hyperplanes_against_subsets(NAMED[name]())
        assert fast.candidates is None
        if name == "flower":
            # no edge of the flower is a coloop: each lies in a self-stress
            assert fast.n_zero == oracle.n_zero == 12

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 7),
        d=st.integers(1, 3),
        style=st.sampled_from(["mixed", "tree"]),
    )
    def test_random(self, seed, n, d, style):
        rng = np.random.default_rng(seed)
        config = configs.random_contact_configuration(
            n, d, rng, style=style if d >= 2 else "tree"
        )
        assert len(full_contact_graph(config).edges) <= 12
        _hyperplanes_against_subsets(config)


class TestCocircuitsAgainstSubsets:
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), d=st.integers(2, 3))
    def test_random_configurations(self, seed, n, d):
        rng = np.random.default_rng(seed)
        config = configs.random_contact_configuration(n, d, rng, style="mixed")
        edges = list(full_contact_graph(config).edges)
        assume(len(edges) <= 12)
        _cocircuits_against_references(edges, collision_matrix(config, edges))

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10))
    def test_chains_1d(self, seed, n):
        # a 1-d contact graph is a path; every edge is a coloop
        rng = np.random.default_rng(seed)
        for config in (configs.collinear_chain(n), configs.random_contact_configuration(n, 1, rng)):
            edges = list(full_contact_graph(config).edges)
            fast, oracle = _cocircuits_against_references(edges, collision_matrix(config, edges))
            assert fast.n_zero == oracle.n_zero == 0

    @settings(max_examples=1, derandomize=True, deadline=None, database=None)
    @given(extra=st.integers(0, 11))
    @example(extra=-1)
    def test_dependent_lattice_subsets(self, extra):
        # the flower's 12 edges are the one circuit of p7 and of p13, so a
        # subset has at least rank + 1 edges exactly when it holds all 12: the
        # p7 flower, or (within the oracle's reach) the p13 flower plus one edge
        config, edges = _patch(P7 if extra < 0 else P13)
        subset = [e for e in edges if max(e) < 7]
        subset += [] if extra < 0 else [[e for e in edges if max(e) >= 7][extra]]
        zmat = collision_matrix(config, sorted(subset))
        assert np.linalg.matrix_rank(zmat, tol=RANK_TOLERANCE) + 1 == len(subset)
        fast, oracle = _cocircuits_against_references(sorted(subset), zmat)
        assert fast.n_zero == 12 and oracle.n_zero > 0

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(extras=st.sets(st.integers(0, 11)))
    def test_dependent_p13_subsets_against_hyperplanes(self, extras):
        config, edges = _patch(P13)
        rest = [e for e in edges if max(e) >= 7]
        subset = sorted([e for e in edges if max(e) < 7] + [rest[k] for k in extras])
        zmat = collision_matrix(config, subset)
        fast, _ = _cocircuits_against_references(subset, zmat, with_oracle=False)
        assert (fast.n_zero, fast.n_candidates) == (12, len(extras) + 2 * 66)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        m=st.integers(1, 10),
        density=st.floats(0.2, 1.0),
        repeats=st.integers(0, 2),
    )
    def test_sparse_direction_matrices(self, seed, rows, m, density, repeats):
        # sparse supports give coloops, series classes and dependent sets
        # without full support; repeated columns give parallel edges
        rng = np.random.default_rng(seed)
        zmat = rng.standard_normal((rows, m)) * (rng.random((rows, m)) < density)
        zmat[rng.integers(rows, size=m), np.arange(m)] = rng.choice([-1.0, 1.0], size=m)
        zmat = np.column_stack([zmat] + [-zmat[:, :1]] * min(repeats, 10 - m))
        zmat /= np.linalg.norm(zmat, axis=0)
        edges = [(0, k + 1) for k in range(zmat.shape[1])]
        _cocircuits_against_references(edges, zmat)

    def test_dual_rank_two_lattice_patch(self):
        # two overlapping flowers of the 19-disc patch: dual rank 2 and a
        # search that finds larger cocircuits, against the hyperplane reference
        points = lattice.lattice_points_in_radius(4.0)
        config = lattice.lattice_configuration(points)
        centers = (lattice.LatticePoint(0, 0), lattice.LatticePoint(2, 0))
        near = [
            k for k, p in enumerate(points)
            if min(lattice.squared_distance(p, c) for c in centers) <= 4
        ]
        edges = [e for e in lattice.contact_edges(points) if e[0] in near and e[1] in near]
        zmat = collision_matrix(config, edges)
        assert len(edges) - np.linalg.matrix_rank(zmat, tol=RANK_TOLERANCE) == 2
        fast = _alpha_by_cocircuits(edges, zmat, DEFAULT_ZERO_TOLERANCE, 1 << 15)
        reference = _alpha_by_hyperplanes(edges, zmat, DEFAULT_ZERO_TOLERANCE)
        assert abs(fast.alpha - reference.alpha) <= 1e-12
        assert (fast.n_candidates, fast.n_zero) == (reference.n_candidates, reference.n_zero)


def _rows_against_alpha_star(config):
    """The candidate rows of ``collect_table`` against alpha_star and the plain report."""
    plain = alpha(config)
    report = alpha(config, collect_table=True)
    fields = ("alpha", "argmin_edge", "argmin_edges", "n_candidates", "n_zero")
    assert [getattr(report, f) for f in fields] == [getattr(plain, f) for f in fields]
    assert len(report.candidates) == report.n_candidates
    for row in report.candidates:
        assert row.value > DEFAULT_ZERO_TOLERANCE and row.edge not in row.others
        assert abs(alpha_star(config, row.others + (row.edge,), row.edge) - row.value) <= 1e-12
    first = next(row for row in report.candidates if row.value == report.alpha)
    assert first.edge == plain.argmin_edge
    assert tuple(sorted(first.others + (first.edge,))) == plain.argmin_edges


class TestCandidateRows:
    @pytest.mark.parametrize("name", NAMED)
    def test_named(self, name):
        _rows_against_alpha_star(NAMED[name]())

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        d=st.integers(1, 3),
        style=st.sampled_from(["mixed", "tree"]),
    )
    def test_random(self, seed, n, d, style):
        rng = np.random.default_rng(seed)
        config = configs.random_contact_configuration(
            n, d, rng, style=style if d >= 2 else "tree"
        )
        _rows_against_alpha_star(config)

    def test_p13(self):
        config, _ = _patch(P13)
        _rows_against_alpha_star(config)


class TestCocircuitPath:
    @pytest.mark.parametrize("seed", range(8))
    def test_coloops_against_inverse_gram(self, seed):
        # with independent edges every edge is a coloop, at distance
        # 1 / sqrt((Z^T Z)^-1_ee) from the span of the others
        rng = np.random.default_rng(seed)
        config = configs.random_contact_configuration(6, 2 + seed % 2, rng, style="mixed")
        edges = list(full_contact_graph(config).edges)
        zmat = collision_matrix(config, edges)
        assert np.linalg.matrix_rank(zmat, tol=RANK_TOLERANCE) == len(edges)
        expected = 1.0 / np.sqrt(np.diag(np.linalg.inv(zmat.T @ zmat)))
        report = alpha(config)
        assert report.alpha == pytest.approx(expected.min(), abs=1e-12)
        assert (report.n_candidates, report.n_zero) == (len(edges), 0)
        assert report.argmin_edges == tuple(edges)

    def test_p13_under_default_settings(self):
        config, edges = _patch(P13)
        assert len(edges) == 24
        report = alpha(config)
        assert report.alpha == pytest.approx(P13_ALPHA, abs=1e-12)
        # 12 coloops, and 66 pairs in the flower's series class
        assert (report.n_candidates, report.n_zero) == (12 + 2 * 66, 12)

    @pytest.mark.parametrize("radius", [P31, P37])
    def test_large_patches_refused_within_the_budget(self, radius):
        config, edges = _patch(radius)
        with pytest.raises(BudgetExceededError, match=f"{len(edges)} edges.* budget of 32768 "):
            alpha(config)


def _alpha_before_one_pass(config, zero_tolerance=DEFAULT_ZERO_TOLERANCE, budget=1 << 15):
    """Test-only copy of alpha as it was before its one distance pass: the full
    contact graph, ``collision_matrix`` of its edges, and with independent
    directions the identity's rows as the cocircuits, evaluated as x @ V_r S_r^-1."""
    edges = list(full_contact_graph(config).edges)
    if not edges:
        raise AllZeroError("the configuration has no touching pairs")
    m = len(edges)
    _, s, vt = np.linalg.svd(collision_matrix(config, edges))
    rank = int(np.count_nonzero(s > RANK_TOLERANCE))
    found = _dual_cocircuits(vt[rank:], budget) if rank < m else [np.eye(m)]
    x = np.concatenate(found)
    values = np.abs(x) / np.linalg.norm(x @ (vt[:rank].T / s[:rank]), axis=1)[:, None]
    values[values <= zero_tolerance] = math.inf
    positive = np.isfinite(values)
    if not positive.any():
        raise AllZeroError("no strictly positive candidate values")
    row, col = divmod(int(values.argmin()), m)
    hyperplane = [e for i, e in enumerate(edges) if i == col or x[row, i] == 0.0]
    table = tuple(
        AlphaCandidate(edges[j], others, float(values[i, j]))
        for i in np.flatnonzero(positive.any(axis=1))
        for others in [tuple(edges[f] for f in np.flatnonzero(x[i] == 0.0))]
        for j in np.flatnonzero(positive[i])
    )
    return AlphaReport(
        float(values[row, col]), edges[col], tuple(sorted(hyperplane)), zero_tolerance,
        int(positive.sum()), m - int(positive[: len(found[0])].sum()), table,
    )


def _bits(report):
    """Every field of an alpha report with its type, floats by their bits."""
    def key(value):
        return (type(value).__name__, value.hex() if isinstance(value, float) else value)

    fields = [key(getattr(report, f)) for f in ("alpha", "n_candidates", "n_zero")]
    edges = [report.argmin_edge, *report.argmin_edges]
    edges += [e for row in report.candidates or () for e in (row.edge, *row.others)]
    rows = [key(row.value) for row in report.candidates or ()]
    return fields, [key(i) for e in edges for i in e], rows, report.candidates is None


def _one_pass_against_reference(config, zero_tolerances=(DEFAULT_ZERO_TOLERANCE,)):
    """alpha against the reference bit for bit, with and without its table, and
    the pass's edges and offsets against the contact graph and pair_offsets."""
    i, j, _, offsets = _contacts(config)
    edges = full_contact_graph(config).edges
    assert list(zip(i.tolist(), j.tolist())) == list(edges)
    expected = pair_offsets(config, edges)[0]
    assert offsets.shape == expected.shape and offsets.tobytes() == expected.tobytes()
    for tolerance in zero_tolerances:
        try:
            reference = _alpha_before_one_pass(config, tolerance)
        except AllZeroError as exc:
            with pytest.raises(AllZeroError, match=str(exc)):
                alpha(config, tolerance)
            continue
        assert _bits(alpha(config, tolerance, collect_table=True)) == _bits(reference)
        plain = dataclasses.replace(reference, candidates=None)
        assert _bits(alpha(config, tolerance)) == _bits(plain)


class TestOnePassAgainstReference:
    """alpha from one distance pass, with coloop values read off the SVD,
    against the contact graph, collision_matrix and identity path it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_configurations(self, seed):
        # 50 configurations per seed, d = 1..4, trees and triangles; zero
        # tolerances that leave some coloops, none, or all of them
        rng = np.random.default_rng(seed)
        for k in range(50):
            d = 1 + k % 4
            n = int(rng.integers(2, 12 if d > 1 else 8))
            style = "mixed" if d > 1 and k % 3 else "tree"
            config = configs.random_contact_configuration(n, d, rng, style=style)
            _one_pass_against_reference(config, (DEFAULT_ZERO_TOLERANCE, 0.7, 0.9, 1.0))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_more_balls_than_a_row_block(self, d):
        rng = np.random.default_rng(d)
        config = configs.random_contact_configuration(_ROW_BLOCK + 5 + 20 * d, d, rng)
        assert config.n > _ROW_BLOCK
        _one_pass_against_reference(config, (DEFAULT_ZERO_TOLERANCE, 0.9))

    @pytest.mark.parametrize("name", NAMED)
    def test_named(self, name):
        _one_pass_against_reference(NAMED[name](), (DEFAULT_ZERO_TOLERANCE, 0.0, 0.5, 0.9))

    @pytest.mark.parametrize("radius", [P7, P13])
    def test_patches(self, radius):
        _one_pass_against_reference(_patch(radius)[0], (DEFAULT_ZERO_TOLERANCE, 0.5))

    def test_no_touching_pairs(self):
        _one_pass_against_reference(validate_configuration([[0.0], [5.0]]))


class TestStressCertificate:
    def test_single_edge_residuals(self):
        config = configs.touching_pair()
        cert = stress_certificate(config, [(0, 1)], (0, 1))
        np.testing.assert_allclose(cert.residual_norms, [2.0, 2.0])
        assert cert.coefficients == {(0, 1): 1.0}

    def test_chain_residual_matches_alpha_star(self):
        config = configs.collinear_chain(3)
        cert = stress_certificate(config, [(0, 1), (1, 2)], (0, 1))
        assert cert.total_residual > 0.1
        expected = 2.0 ** 1.5 * alpha_star(config, [(0, 1), (1, 2)], (0, 1))
        assert cert.total_residual == pytest.approx(expected, abs=1e-12)

    def test_flower_admits_a_stress(self):
        config = configs.hexagonal_flower()
        edges = list(full_contact_graph(config).edges)
        best = min(
            stress_certificate(config, edges, e).total_residual for e in edges
        )
        assert best <= 1e-9

    def test_residual_tracks_alpha_star_randomized(self, rng):
        for _ in range(30):
            config, _ = random_system(rng, n_max=5, d_max=2)
            edges = list(full_contact_graph(config).edges)
            chosen = edges[int(rng.integers(len(edges)))]
            cert = stress_certificate(config, edges, chosen)
            expected = 2.0 ** 1.5 * alpha_star(config, edges, chosen)
            assert cert.total_residual == pytest.approx(expected, abs=1e-9)
            assert cert.coefficients[chosen] == 1.0

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8), d=st.integers(1, 3))
    def test_same_fields_as_per_edge_columns(self, seed, n, d):
        # against the certificate on a column stack of raw_collision_vector,
        # over the contact edges plus one pair that does not touch
        rng = np.random.default_rng(seed)
        config = configs.random_contact_configuration(
            n, d, rng, style="mixed" if d >= 2 else "tree"
        )
        full = full_contact_graph(config)
        edges = list(full.edges)
        edges += [(i, j) for i, j in itertools.combinations(range(n), 2) if not full.has_edge(i, j)][:1]
        chosen = edges[int(rng.integers(len(edges)))]
        others = [e for e in sorted(edges) if e != chosen]
        target = raw_collision_vector(config, chosen)
        cols = np.column_stack([raw_collision_vector(config, e) for e in others])
        coef, *_ = np.linalg.lstsq(cols, -target, rcond=None)
        residual = target + cols @ coef
        cert = stress_certificate(config, edges, chosen)
        assert cert.coefficients == {chosen: 1.0, **dict(zip(others, coef.tolist()))}
        assert np.array_equal(
            cert.residual_norms, np.linalg.norm(residual.reshape(n, d), axis=1)
        )
        assert cert.total_residual == float(np.linalg.norm(residual))


def _independent_subset(config, graph):
    """Greedy maximal subset of the graph's edges with independent directions."""
    subset, cols = [], []
    for e in graph.edges:
        trial = cols + [collision_direction(config, e).vector]
        if np.linalg.matrix_rank(np.column_stack(trial), tol=1e-10) == len(trial):
            subset.append(e)
            cols = trial
    return subset


class TestSphericalVertexCheck:
    def test_single_edge_vertex_is_direction_itself(self):
        config = configs.touching_pair()
        graph = full_contact_graph(config)
        report = spherical_vertex_check(
            config, graph, [(0, 1)], alpha_value=1.0, samples=50
        )
        assert report.vertex_margins == pytest.approx([1.0])
        assert report.vertices_ok
        assert report.samples_ok

    def test_chain_vertices_clear_facets(self):
        config = configs.collinear_chain(3)
        graph = full_contact_graph(config)
        report = spherical_vertex_check(config, graph, graph.edges, samples=200)
        assert report.min_vertex_margin >= SQRT3 / 2.0 - 1e-9
        assert report.samples_ok

    def test_randomized_configs(self, rng):
        for _ in range(10):
            config, _ = random_system(rng, n_max=5, d_max=3)
            graph = full_contact_graph(config)
            subset = _independent_subset(config, graph)
            report = spherical_vertex_check(config, graph, subset, samples=100)
            assert report.vertices_ok
            assert report.samples_ok

    def test_negative_sample_count_rejected(self):
        config = configs.collinear_chain(3)
        graph = full_contact_graph(config)
        with pytest.raises(ValueError, match="samples"):
            spherical_vertex_check(config, graph, graph.edges, alpha_value=0.5, samples=-5)

    def test_non_touching_subset_edge_rejected(self):
        config = configs.collinear_chain(3)
        graph = full_contact_graph(config)
        with pytest.raises(NotTouchingError) as exc:
            spherical_vertex_check(config, graph, [(0, 2)], alpha_value=0.5)
        assert (exc.value.i, exc.value.j) == (0, 2)

    def test_non_touching_graph_edge_rejected(self):
        config = configs.collinear_chain(3)
        graph = ContactGraph(3, ((0, 1), (0, 2), (1, 2)))
        with pytest.raises(NotTouchingError) as exc:
            spherical_vertex_check(config, graph, [(0, 1)], alpha_value=0.5)
        assert exc.value.distance == pytest.approx(4.0)

    def test_subset_edge_outside_graph_rejected(self):
        config = configs.collinear_chain(3)
        graph = ContactGraph(3, ((0, 1),))
        with pytest.raises(ValueError, match=r"\(2, 3\) is not an edge"):
            spherical_vertex_check(config, graph, [(1, 2)], alpha_value=0.5)

    def test_dependent_subset_rejected(self):
        config = configs.hexagonal_flower()
        graph = full_contact_graph(config)
        with pytest.raises(DependentEdgesError):
            spherical_vertex_check(config, graph, graph.edges, samples=0)


def _cone_check_per_sample(config, graph, subset, alpha_value, samples=200, seed=0, tol=1e-9):
    """The cone check one sample at a time: one lstsq per vertex direction, one
    draw per sample, each folded with :func:`fold` until no margin is negative."""
    zcols = np.column_stack([collision_direction(config, e).vector for e in subset])
    vertex_margins = []
    for k in range(len(subset)):
        others = np.delete(zcols, k, axis=1)
        z = zcols[:, k]
        if others.shape[1] == 0:
            w = z
        else:
            coef, *_ = np.linalg.lstsq(others, z, rcond=None)
            residual = z - others @ coef
            w = residual / np.linalg.norm(residual)
        vertex_margins.append(float(np.max(zcols.T @ w)))
    vertex_margins = np.array(vertex_margins)

    graph_cols = np.column_stack([collision_direction(config, e).vector for e in graph.edges])
    halfspaces = [HalfSpace(z) for z in graph_cols.T]
    u_mat, s, _ = np.linalg.svd(graph_cols, full_matrices=False)
    basis = u_mat[:, : int(np.count_nonzero(s > 1e-12 * s[0]))]
    rng = np.random.default_rng(seed)
    sample_margins = []
    for _ in range(samples):
        raw = rng.standard_normal(config.n * config.dimension)
        v = basis @ (basis.T @ raw)
        if np.linalg.norm(v) < 1e-9:
            continue
        while True:
            bad = [h for h in halfspaces if h.margin(v) < 0.0]
            if not bad:
                break
            for h in bad:
                v = fold(v, h)
        v = v / np.linalg.norm(v)
        sample_margins.append(float(np.max(graph_cols.T @ v)))
    sample_margins = np.array(sample_margins)
    floor = alpha_value / (config.n * config.dimension)
    return (
        vertex_margins,
        bool(np.all(vertex_margins >= alpha_value - tol)),
        sample_margins,
        bool(np.all(sample_margins >= floor - tol)),
    )


def _cone_check_against_per_sample(config, seed, subset=None):
    graph = full_contact_graph(config)
    subset = _independent_subset(config, graph) if subset is None else subset
    value = alpha(config).alpha
    report = spherical_vertex_check(config, graph, subset, alpha_value=value, seed=seed)
    vertex_margins, vertices_ok, sample_margins, samples_ok = _cone_check_per_sample(
        config, graph, subset, value, seed=seed
    )
    np.testing.assert_allclose(report.vertex_margins, vertex_margins, rtol=0.0, atol=1e-12)
    assert report.sample_margins.shape == sample_margins.shape
    np.testing.assert_allclose(report.sample_margins, sample_margins, rtol=0.0, atol=1e-12)
    assert report.vertices_ok == vertices_ok
    assert report.samples_ok == samples_ok


class TestConeCheckAgainstPerSample:
    @pytest.mark.parametrize(
        "config",
        [
            configs.touching_pair(),
            configs.collinear_chain(3),
            configs.collinear_chain(4, 2),
            configs.triangle(),
            configs.square(),
            configs.rhombus(),
            configs.hexagonal_flower(),
        ],
        ids=["pair", "chain3", "chain4-2d", "triangle", "square", "rhombus", "flower"],
    )
    def test_named_configurations(self, config):
        _cone_check_against_per_sample(config, seed=7)

    def test_seeded_random_configurations(self):
        rng = np.random.default_rng(20261018)
        for _ in range(30):
            config, _ = random_system(rng, n_max=7, d_max=3)
            _cone_check_against_per_sample(config, seed=int(rng.integers(2**31)))

    def test_unsorted_subset_keeps_its_order(self):
        # before, vertex_margins came in sorted order, those of (0, 2), (0, 3), (1, 2)
        _cone_check_against_per_sample(configs.rhombus(), seed=7, subset=[(0, 3), (1, 2), (0, 2)])

    def test_repeated_edge_counts_at_first_appearance(self):
        config = configs.rhombus()
        graph = full_contact_graph(config)
        once = spherical_vertex_check(config, graph, [(0, 3), (1, 2), (0, 2)], samples=0)
        again = spherical_vertex_check(config, graph, [(3, 0), (1, 2), (0, 3), (0, 2)], samples=0)
        np.testing.assert_array_equal(again.vertex_margins, once.vertex_margins)
        assert once.vertex_margins[2] < once.vertex_margins[0]


class TestConeCheckOnSmallerSubsets:
    def test_random_non_maximal_subsets(self):
        # prefixes of sizes 1..r of a shuffled maximal independent subset: the
        # vertex directions then span less than the graph's directions
        rng = np.random.default_rng(20261019)
        named = [configs.square(), configs.rhombus(), configs.hexagonal_flower()]
        systems = named + [random_system(rng, n_max=7, d_max=3)[0] for _ in range(8)]
        for config in systems:
            maximal = _independent_subset(config, full_contact_graph(config))
            maximal = [maximal[k] for k in rng.permutation(len(maximal))]
            for size in range(1, len(maximal) + 1):
                seed = int(rng.integers(2**31))
                _cone_check_against_per_sample(config, seed, subset=sorted(maximal[:size]))


class TestSphericalVertexCheckBallRange:
    # each is checked before any indexing: before, (0, 99) raised IndexError,
    # (2, -1) wrapped to ball 3 ("balls 0 and 3 do not touch") and (-1, 1)
    # was reported as "subset edge (0, 2)" not in the graph
    @pytest.mark.parametrize(
        "subset, shown",
        [([(0, 99)], r"\(1, 100\)"), ([(2, -1)], r"\(0, 3\)"), ([(-1, 1)], r"\(0, 2\)")],
    )
    def test_subset_ball_outside_rejected(self, subset, shown):
        config = configs.collinear_chain(3)
        graph = full_contact_graph(config)
        with pytest.raises(ValueError, match=rf"edge {shown} names a ball outside 1\.\.3"):
            spherical_vertex_check(config, graph, subset, alpha_value=0.5)

    def test_graph_on_more_balls_rejected(self):
        # before, the graph edge (4, 5) of a 3-ball configuration raised IndexError
        config = configs.collinear_chain(3)
        graph = ContactGraph(5, ((0, 1), (3, 4)))
        with pytest.raises(ValueError, match=r"edge \(4, 5\) names a ball outside 1\.\.3"):
            spherical_vertex_check(config, graph, [(0, 1)], alpha_value=0.5)


def _segment_entry_point(config, graph, u, v):
    """First point of the segment u -> v inside every edge half-space."""
    s_star = 0.0
    for e in graph.edges:
        z = collision_direction(config, e).vector
        mu, mv = float(u @ z), float(v @ z)
        if mu < 0.0:
            s_star = max(s_star, mu / (mu - mv))
    return u + s_star * (v - u)


class TestFeasiblePointConstruction:
    def test_near_feasible_states_are_near_the_cone(self, rng):
        # walk the explicit path: segment to the witness projection, then
        # renormalize; the endpoint must be feasible and close to the start
        for _ in range(40):
            config, _ = random_system(rng, n_max=5, d_max=3)
            graph = full_contact_graph(config)
            n = config.n
            w, _ = interior_witness(config, graph)
            _, v_state = decompose_state(config, graph, w)
            v = v_state.values
            raw = rng.standard_normal(n * config.dimension)
            _, u_state = decompose_state(
                config, graph, StateVector(n, config.dimension, raw)
            )
            norm = np.linalg.norm(u_state.values)
            if norm < 1e-9:
                continue
            u = u_state.values / norm
            margins = [
                float(u @ collision_direction(config, e).vector) for e in graph.edges
            ]
            delta = max(0.0, -min(margins))
            if delta == 0.0:
                continue
            y1 = _segment_entry_point(config, graph, u, v)
            if np.linalg.norm(y1) < 1e-9:
                # u antipodal to the cone: the segment crosses the origin and
                # any feasible unit point works, nearest being the witness
                y4 = v / np.linalg.norm(v)
            else:
                y4 = y1 / np.linalg.norm(y1)
            for e in graph.edges:
                z = collision_direction(config, e).vector
                assert float(y4 @ z) >= -1e-9
            limit = 2.0 ** 3.5 * delta * n * (n - 1) ** 2
            assert np.linalg.norm(u - y4) <= limit + 1e-9
