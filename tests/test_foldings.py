import math
import struct

import numpy as np
import pytest

from pinnedballs import configs
from pinnedballs.errors import BudgetExceededError, NoInteriorWitnessError
from pinnedballs.foldings import (
    FoldingSchedule,
    HalfSpace,
    _point_key,
    adversarial_two_halfplanes,
    fold,
    fold_into_cone,
    orbit,
)
from pinnedballs.geometry import collision_matrix, full_contact_graph, span_basis
from pinnedballs.verify import random_system


def _random_family(rng, d=None, m=None):
    d = d or int(rng.integers(2, 5))
    m = m or int(rng.integers(1, 6))
    witness = rng.standard_normal(d)
    witness /= np.linalg.norm(witness)
    normals = []
    while len(normals) < m:
        h = rng.standard_normal(d)
        norm = np.linalg.norm(h)
        if norm < 1e-9:
            continue
        h /= norm
        if h @ witness < 0:
            h = -h
        if h @ witness > 1e-3:
            normals.append(h)
    return [HalfSpace(h) for h in normals], witness


class TestFold:
    def test_interior_point_fixed(self):
        h = HalfSpace(np.array([0.0, 1.0]))
        v = np.array([0.0, 1.0])
        np.testing.assert_array_equal(fold(v, h), v)

    def test_antipode_reflects_through_origin(self):
        h = HalfSpace(np.array([0.0, 1.0]))
        np.testing.assert_allclose(fold(-h.normal, h), h.normal, atol=1e-15)

    def test_mirror_across_axis(self):
        h = HalfSpace(np.array([0.0, 1.0]))
        np.testing.assert_allclose(fold([3.0, -2.0], h), [3.0, 2.0], atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        h = HalfSpace(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="point of dimension 3, half-space of 2"):
            fold([1.0, -1.0, 0.0], h)
        with pytest.raises(ValueError, match="dimension 1"):
            h.margin([-1.0])

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            HalfSpace(np.array([0.0, 2.0]))
        h = HalfSpace.from_vector([0.0, 2.0])
        np.testing.assert_allclose(h.normal, [0.0, 1.0])

    def test_non_expansive(self, rng):
        for _ in range(300):
            d = int(rng.integers(1, 6))
            h = HalfSpace.from_vector(rng.standard_normal(d) + 1e-6)
            x, y = rng.standard_normal(d), rng.standard_normal(d)
            before = np.linalg.norm(x - y)
            after = np.linalg.norm(fold(x, h) - fold(y, h))
            assert after <= before + 1e-12

    def test_isometry_on_boundary_points(self, rng):
        for _ in range(300):
            d = int(rng.integers(2, 6))
            h = HalfSpace.from_vector(rng.standard_normal(d) + 1e-6)
            x = rng.standard_normal(d)
            p = rng.standard_normal(d)
            p = p - (p @ h.normal) * h.normal  # point on the boundary
            assert abs(
                np.linalg.norm(fold(x, h) - p) - np.linalg.norm(x - p)
            ) <= 1e-12


class TestOrbit:
    def test_start_inside_is_fixed(self):
        halfspaces = [HalfSpace(np.array([1.0, 0.0])), HalfSpace(np.array([0.0, 1.0]))]
        result = orbit(
            [1.0, 1.0], halfspaces, FoldingSchedule.round_robin(), witness=[1.0, 1.0]
        )
        assert result.size == 1
        assert result.stabilization_index == 0

    def test_single_halfspace_two_points(self):
        halfspaces = [HalfSpace(np.array([0.0, 1.0]))]
        result = orbit(
            [0.5, -1.0], halfspaces, FoldingSchedule.round_robin(), witness=[0.0, 1.0]
        )
        assert result.size == 2
        assert result.stabilization_index == 1
        np.testing.assert_allclose(result.final, [0.5, 1.0])

    def test_perpendicular_halfplanes_orbit_at_most_four(self, rng):
        # reflections across the two axes generate at most 4 sign patterns
        halfspaces = [HalfSpace(np.array([1.0, 0.0])), HalfSpace(np.array([0.0, 1.0]))]
        witness = np.array([1.0, 1.0]) / math.sqrt(2.0)
        for _ in range(50):
            start = rng.standard_normal(2) * 3.0
            result = orbit(
                start, halfspaces, FoldingSchedule.round_robin(), witness=witness
            )
            assert result.size <= 4
            assert result.stabilization_index is not None

    def test_invalid_witness_rejected(self):
        halfspaces = [HalfSpace(np.array([1.0, 0.0]))]
        with pytest.raises(NoInteriorWitnessError):
            orbit(
                [1.0, 0.0],
                halfspaces,
                FoldingSchedule.round_robin(),
                witness=[-1.0, 0.0],
            )

    def test_budget_exhaustion_carries_partial_orbit(self):
        halfspaces, start, schedule = adversarial_two_halfplanes(50)
        witness = halfspaces[0].normal + halfspaces[1].normal
        witness /= np.linalg.norm(witness)
        with pytest.raises(BudgetExceededError, match="after 10 folds") as exc:
            orbit(start, halfspaces, schedule, budget=10, witness=witness)
        assert exc.value.best.steps == 10
        assert exc.value.best.stabilization_index is None
        assert exc.value.best.size >= 2

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        # before, a budget of 0 or -5 still applied one fold and reported
        # "orbit budget exhausted after 1 folds"; a start already inside is refused too
        halfspaces, start, schedule = adversarial_two_halfplanes(50)
        witness = halfspaces[0].normal + halfspaces[1].normal
        for point in (start, witness):
            with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
                orbit(point, halfspaces, schedule, budget=budget, witness=witness)

    def test_distance_to_witness_never_increases(self, rng):
        for _ in range(100):
            halfspaces, witness = _random_family(rng)
            start = rng.standard_normal(len(witness)) * 2.0
            result = orbit(
                start,
                halfspaces,
                FoldingSchedule.round_robin(),
                witness=witness,
            )
            dists = np.linalg.norm(result.points - witness, axis=1)
            assert np.all(np.diff(dists) <= 1e-12)

    def test_stabilization_across_policies(self, rng):
        for _ in range(100):
            halfspaces, witness = _random_family(rng)
            start = rng.standard_normal(len(witness)) * 2.0
            for schedule in (
                FoldingSchedule.round_robin(),
                FoldingSchedule.seeded_random(int(rng.integers(2**32))),
                FoldingSchedule.periodic(tuple(range(len(halfspaces)))),
            ):
                result = orbit(start, halfspaces, schedule, witness=witness)
                assert result.stabilization_index is not None
                for h in halfspaces:
                    assert h.margin(result.final) >= -1e-12

    @pytest.mark.parametrize(
        "start, witness, normal, sizes",
        [
            ([1.0, 0.0, 0.0], [0.7, 0.7], [0.0, 1.0], "start of dimension 3, witness of 2"),
            ([1.0, 0.0], [0.7, 0.7, 0.1], [0.0, 1.0], "start of dimension 2, witness of 3"),
            ([1.0, 0.0], [0.7, 0.7], [0.0, 1.0, 0.0], "point of dimension 2, half-space of 3"),
        ],
    )
    def test_dimension_mismatch_rejected(self, start, witness, normal, sizes):
        halfspaces = [HalfSpace(np.array([1.0, 0.0])), HalfSpace(np.array(normal))]
        with pytest.raises(ValueError, match=sizes):
            orbit(start, halfspaces, FoldingSchedule.round_robin(), witness=witness)

    def test_sub_quantum_sign_splits_a_point(self):
        # [-1e-13, -1] and [1e-13, -1] have different signed-zero keys, so the
        # first fold counts a new point although it moves by 2e-13 only
        halfspaces = [HalfSpace(np.array([1.0, 0.0])), HalfSpace(np.array([0.0, 1.0]))]
        result = orbit(
            [-1e-13, -1.0], halfspaces, FoldingSchedule.round_robin(), witness=[0.7, 0.7]
        )
        assert (result.size, result.steps, result.stabilization_index) == (3, 2, 2)
        np.testing.assert_array_equal(result.points[1], [1e-13, -1.0])


class TestPointKey:
    @pytest.mark.parametrize(
        "x",
        [0.0, -0.0, 1e-13, -1e-13, 5e-13, -5e-13, 1.5e-12, 2.5e-12, -2.5e-12, 5e-324,
         0.1, 1.0 / 3.0, 8192.000000000123, -12345.678901234567, 1e15, 1e300, -1.7e308],
    )
    def test_numpy_round_classes(self, x):
        pack = struct.Struct("2d").pack
        with np.errstate(over="ignore"):  # 1e300 * 1e12 is infinite on both sides
            expected = np.round(np.array([x, 1.0]), 12).tobytes()
            assert _point_key([x, 1.0], pack) == expected

    def test_signed_zeros_are_distinct(self):
        pack = struct.Struct("2d").pack
        assert _point_key([-0.0, 1.0], pack) != _point_key([0.0, 1.0], pack)
        assert _point_key([-1e-13, 1.0], pack) == _point_key([-0.0, 1.0], pack)
        assert _point_key([1e-13, 1.0], pack) == _point_key([0.0, 1.0], pack)


def _adversarial_by_full_orbits(m):
    """The construction measuring every candidate's whole orbit."""
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
        if orbit(start, halfspaces, schedule, budget=10_000_000, witness=witness).size > m:
            return halfspaces, start, schedule
        eps /= 2.0


class TestAdversarial:
    def test_same_construction_as_full_orbits(self):
        # the check stops after m + 1 folds when that already shows more than m points
        for m in range(1, 300):
            halfspaces, start, schedule = adversarial_two_halfplanes(m)
            ref_halfspaces, ref_start, ref_schedule = _adversarial_by_full_orbits(m)
            assert [h.normal.tobytes() for h in halfspaces] == [
                h.normal.tobytes() for h in ref_halfspaces
            ]
            assert start.tobytes() == ref_start.tobytes() and schedule == ref_schedule

    def test_orbit_exceeds_one(self):
        halfspaces, start, schedule = adversarial_two_halfplanes(1)
        witness = halfspaces[0].normal + halfspaces[1].normal
        witness /= np.linalg.norm(witness)
        result = orbit(start, halfspaces, schedule, witness=witness)
        assert result.size > 1

    def test_orbit_exceeds_hundred(self):
        halfspaces, start, schedule = adversarial_two_halfplanes(100)
        witness = halfspaces[0].normal + halfspaces[1].normal
        witness /= np.linalg.norm(witness)
        result = orbit(start, halfspaces, schedule, witness=witness)
        assert result.size > 100


def _fold_rows_sequentially(points, halfspaces):
    """Reference for fold_into_cone: one row at a time with :func:`fold`.

    Per pass, every half-space with a negative margin at the start of the
    pass is applied in ascending order."""
    out = []
    for v in points:
        while True:
            bad = [h for h in halfspaces if h.margin(v) < 0.0]
            if not bad:
                break
            for h in bad:
                v = fold(v, h)
        out.append(v)
    return np.array(out)


class TestFoldIntoCone:
    def test_matches_sequential_folds_on_random_cones(self):
        rng = np.random.default_rng(20261018)
        for _ in range(60):
            d = int(rng.integers(2, 7))
            m = int(rng.integers(2, 11))
            halfspaces, _ = _random_family(rng, d, m)
            normals = np.column_stack([h.normal for h in halfspaces])
            points = rng.standard_normal((int(rng.integers(1, 40)), d))
            folded = fold_into_cone(points, normals)
            np.testing.assert_allclose(
                folded, _fold_rows_sequentially(points, halfspaces), rtol=0.0, atol=1e-12
            )
            assert np.all(folded @ normals >= 0.0)

    def test_rows_inside_are_unchanged_and_input_is_kept(self):
        normals = np.eye(3)
        points = np.array([[1.0, 2.0, 3.0], [-1.0, 2.0, -3.0]])
        before = points.copy()
        folded = fold_into_cone(points, normals)
        np.testing.assert_array_equal(folded, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(points, before)

    def test_empty_batch(self):
        assert fold_into_cone(np.zeros((0, 2)), np.eye(2)).shape == (0, 2)

    def test_running_out_of_passes_raises(self):
        # (-1, -1) folds in the first pass and is certified inside in the second
        normals, points = np.eye(2), np.array([[-1.0, -1.0]])
        with pytest.raises(RuntimeError):
            fold_into_cone(points, normals, max_passes=1)
        np.testing.assert_array_equal(fold_into_cone(points, normals, max_passes=2), [[1.0, 1.0]])

    def test_adversarial_wedge_exhausts_a_small_budget(self):
        halfspaces, start, _ = adversarial_two_halfplanes(50)
        normals = np.column_stack([h.normal for h in halfspaces])
        with pytest.raises(RuntimeError):
            fold_into_cone(start[None, :], normals, max_passes=5)
        folded = fold_into_cone(start[None, :], normals)
        np.testing.assert_allclose(
            folded, _fold_rows_sequentially([start], halfspaces), rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "points, normals",
        [
            (np.zeros(2), np.eye(2)),
            (np.zeros((1, 3)), np.eye(2)),
            (np.zeros((1, 2)), 2.0 * np.eye(2)),
            (np.array([[np.nan, 0.0]]), np.eye(2)),
            (np.zeros((1, 2)), np.array([[np.inf, 0.0], [0.0, 1.0]])),
        ],
    )
    def test_malformed_input_rejected(self, points, normals):
        with pytest.raises(ValueError):
            fold_into_cone(points, normals)


class TestFoldIntoConePassBudget:
    @pytest.mark.parametrize("max_passes", [0, -1])
    def test_budget_below_one_rejected(self, max_passes):
        # before, even a point already inside raised "folding did not stabilize"
        with pytest.raises(ValueError, match="max_passes"):
            fold_into_cone(np.array([[1.0, 1.0]]), np.eye(2), max_passes=max_passes)


def _fold_in_span_and_ambient(points, normals):
    """The fold of the coordinates c = P B against the unit columns of B^T Z,
    mapped back by B^T, and the fold of the projections P B B^T against Z."""
    basis = span_basis(normals)
    coordinate_normals = basis.T @ normals
    coordinate_normals /= np.linalg.norm(coordinate_normals, axis=0)
    in_span = fold_into_cone(points @ basis, coordinate_normals) @ basis.T
    return in_span, fold_into_cone(points @ basis @ basis.T, normals)


class TestFoldInSpanCoordinates:
    def test_random_rank_deficient_normals(self):
        # m > r unit normals in a random r-dimensional subspace of R^N, with an
        # interior witness there
        rng = np.random.default_rng(20261019)
        for _ in range(40):
            n = int(rng.integers(3, 10))
            r = int(rng.integers(1, n))
            halfspaces, _ = _random_family(rng, r, int(rng.integers(r + 1, 2 * r + 3)))
            normals = np.linalg.qr(rng.standard_normal((n, r)))[0] @ np.column_stack(
                [h.normal for h in halfspaces]
            )
            normals /= np.linalg.norm(normals, axis=0)
            assert np.linalg.matrix_rank(normals) == r
            in_span, ambient = _fold_in_span_and_ambient(rng.standard_normal((50, n)), normals)
            np.testing.assert_allclose(in_span, ambient, rtol=0.0, atol=1e-12)

    def test_contact_graph_directions(self):
        # the flower's 12 directions have rank 11 in R^14; a random system's
        # directions span a proper subspace of R^{nd} too
        rng = np.random.default_rng(20261019)
        systems = [configs.hexagonal_flower()] + [random_system(rng, 7, 3)[0] for _ in range(10)]
        for config in systems:
            normals = collision_matrix(config, full_contact_graph(config).edges)
            points = rng.standard_normal((100, normals.shape[0]))
            in_span, ambient = _fold_in_span_and_ambient(points, normals)
            np.testing.assert_allclose(in_span, ambient, rtol=0.0, atol=1e-12)
