import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnedballs import configs
from pinnedballs.errors import (
    DisconnectedError,
    NotTouchingError,
    OverlapError,
    ZeroEnergyError,
)
from pinnedballs.geometry import (
    _ROW_BLOCK,
    CONTACT_DISTANCE,
    BallConfiguration,
    ContactGraph,
    StateVector,
    canonical_edge,
    collision_direction,
    collision_matrix,
    full_contact_graph,
    interior_witness,
    normalize_system,
    pair_offsets,
    raw_collision_vector,
    require_touching,
    span_basis,
    split_chosen_edge,
    validate_configuration,
)

from pinnedballs.verify import random_system

SQRT3 = math.sqrt(3.0)


class TestValidation:
    def test_touching_pair_is_valid(self):
        config = validate_configuration([[0.0], [2.0]])
        assert config.n == 2
        assert config.touches(0, 1)

    def test_overlap_rejected_with_pair_and_distance(self):
        with pytest.raises(OverlapError) as exc:
            validate_configuration([[0.0, 0.0], [1.0, 0.0]])
        assert (exc.value.i, exc.value.j) == (0, 1)
        assert exc.value.distance == pytest.approx(1.0)
        assert "balls 1 and 2" in str(exc.value)

    def test_triangle_all_pairs_touch(self):
        # pairwise distances: |(2,0)| = 2, |(1,sqrt3)| = 2, |(-1,sqrt3)| = 2
        config = validate_configuration([[0.0, 0.0], [2.0, 0.0], [1.0, SQRT3]])
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert config.touches(i, j)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            validate_configuration([[0.0, 0.0], [2.0]])

    def test_tolerance_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            BallConfiguration(1, np.array([[0.0]]), contact_tolerance=-1.0)


class TestContactGraph:
    def test_collinear_chain(self):
        graph = full_contact_graph(configs.collinear_chain(3))
        assert graph.edges == ((0, 1), (1, 2))

    def test_gap_breaks_edge(self):
        graph = full_contact_graph(validate_configuration([[0.0], [2.0], [5.0]]))
        assert graph.edges == ((0, 1),)

    def test_triangle_edges(self):
        graph = full_contact_graph(configs.triangle())
        assert graph.edges == ((0, 1), (0, 2), (1, 2))

    def test_components(self):
        graph = ContactGraph(4, ((0, 1), (2, 3)))
        assert sorted(sorted(c) for c in graph.components()) == [[0, 1], [2, 3]]
        assert not graph.is_connected

    def test_edge_canonicalization(self):
        graph = ContactGraph(3, ((2, 1),))
        assert graph.edges == ((1, 2),)
        assert graph.has_edge(2, 1)
        with pytest.raises(ValueError):
            canonical_edge(1, 1)

    @pytest.mark.parametrize("bad", [(0, 7), (-1, 2)])
    def test_ball_outside_range_named_one_based(self, bad):
        # the contact graph and the chosen-edge split print the same 1-based text
        message = f"edge ({min(bad) + 1}, {max(bad) + 1}) names a ball outside 1..7"
        with pytest.raises(ValueError, match=re.escape(message)):
            ContactGraph(7, ((0, 1), bad))
        with pytest.raises(ValueError, match=re.escape(message)):
            split_chosen_edge(7, [(0, 1), bad], (0, 1))


def _per_row_pairs(centers, tolerance):
    """Test-only copy of the per-row loops the distance pass replaced:
    (first overlapping pair (i, j, distance) or None, contact edges)."""
    edges = []
    for i in range(len(centers) - 1):
        dists = np.linalg.norm(centers[i + 1 :] - centers[i], axis=1)
        short = np.nonzero(dists < CONTACT_DISTANCE - tolerance)[0]
        if short.size:
            return (i, i + 1 + int(short[0]), float(dists[short[0]])), None
        hits = np.nonzero(np.abs(dists - CONTACT_DISTANCE) <= tolerance)[0]
        edges.extend((i, i + 1 + int(j)) for j in hits)
    return None, tuple(edges)


def _pass_against_per_row(centers, tolerance):
    """The distance pass gives the per-row loop's overlap error or contact edges."""
    overlap, edges = _per_row_pairs(centers, tolerance)
    if overlap is None:
        config = BallConfiguration(centers.shape[1], centers, tolerance)
        assert full_contact_graph(config).edges == edges
        return edges
    with pytest.raises(OverlapError) as exc:
        BallConfiguration(centers.shape[1], centers, tolerance)
    assert (exc.value.i, exc.value.j, exc.value.distance) == overlap
    return None


def _near_contact_centers(seed, n, d, tolerance):
    """n centers in R^d, each off an earlier one along an axis or a random
    direction, at 2 + s * tolerance for s in -2..2 (rarely -2) or farther; a
    spot that overlaps another ball by more is drawn again, a few times."""
    rng = np.random.default_rng(seed)
    centers = np.zeros((n, d))
    for k in range(1, n):
        for _ in range(8):
            if rng.random() < 0.5:
                step = np.eye(d)[rng.integers(d)] * rng.choice([-1.0, 1.0])
            else:
                step = rng.standard_normal(d)
                step /= np.linalg.norm(step)
            if rng.random() < 0.8:
                s = rng.choice([-2, -1, 0, 1, 2], p=[0.02, 0.245, 0.245, 0.245, 0.245])
                length = CONTACT_DISTANCE + int(s) * tolerance
            else:
                length = CONTACT_DISTANCE + 3.0 * rng.random()
            centers[k] = centers[rng.integers(k)] + length * step
            gaps = np.linalg.norm(centers[:k] - centers[k], axis=1)
            if gaps.min() >= CONTACT_DISTANCE - 2 * tolerance - 1e-6:
                break
    return centers


class TestDistancePass:
    """One all-pairs distance pass against the per-row loops, bit for bit."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 14),
        d=st.integers(1, 3),
        tolerance=st.sampled_from([0.0, 1e-9, 1e-4, 0.3]),
    )
    def test_matches_per_row_loop(self, seed, n, d, tolerance):
        _pass_against_per_row(_near_contact_centers(seed, n, d, tolerance), tolerance)

    def test_chain_longer_than_a_row_block(self):
        n = 2 * _ROW_BLOCK + 5
        centers = configs.collinear_chain(n).centers.copy()
        assert len(_pass_against_per_row(centers, 1e-9)) == n - 1
        # an overlap whose first pair lies in the second row block
        centers[_ROW_BLOCK + 3 :] -= 0.5
        assert _pass_against_per_row(centers, 1e-9) is None

    def test_overlap_error_pair_and_distance(self):
        centers = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 1.5]])
        with pytest.raises(OverlapError) as exc:
            BallConfiguration(2, centers)
        assert (exc.value.i, exc.value.j, exc.value.distance) == (1, 3, 1.5)


class TestCollisionMatrix:
    """The batched collision vectors against the per-edge definitions, bit for bit."""

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), d=st.integers(1, 3))
    def test_matches_per_edge_vectors(self, seed, n, d):
        rng = np.random.default_rng(seed)
        config = configs.random_contact_configuration(
            n, d, rng, style="mixed" if d >= 2 else "tree"
        )
        edges = list(full_contact_graph(config).edges)
        raw = [raw_collision_vector(config, e) for e in edges]
        unit = collision_matrix(config, edges)
        assert unit.flags.c_contiguous
        assert np.array_equal(unit, np.column_stack([collision_direction(config, e).vector for e in edges]))
        # the stability rows of a policy run: each raw row over its own norm, F-ordered
        rows = unit.T
        assert rows.flags.f_contiguous
        assert np.array_equal(rows, np.array([r / np.linalg.norm(r) for r in raw]))
        stress = collision_matrix(config, edges, unit=False)
        assert stress.flags.c_contiguous
        assert np.array_equal(stress, np.column_stack(raw))
        # lengths are config.distance's, for edges in either order and non-edges
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        offsets, lengths = pair_offsets(config, pairs)
        for (i, j), dx, length in zip(pairs, offsets, lengths):
            assert np.array_equal(dx, config.centers[i] - config.centers[j])
            assert length == config.distance(i, j)

    def test_no_edges(self):
        config = configs.touching_pair()
        assert collision_matrix(config, []).shape == (2, 0)

    def test_span_basis(self, rng):
        # a repeated direction adds nothing to the span
        zmat = collision_matrix(configs.triangle(), [(0, 1), (0, 1), (1, 2)])
        basis = span_basis(zmat)
        assert basis.shape == (6, 2)
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(basis @ (basis.T @ zmat), zmat, atol=1e-12)
        for _ in range(20):
            config, _ = random_system(rng, n_max=8)
            zmat = collision_matrix(config, full_contact_graph(config).edges)
            u, s, _ = np.linalg.svd(zmat, full_matrices=False)
            rank = int(np.count_nonzero(s > 1e-12 * s[0]))
            assert np.array_equal(span_basis(zmat), u[:, :rank])

    def test_require_touching_names_first_offender(self):
        config = validate_configuration([[0.0], [2.0], [5.0], [8.0]])
        require_touching(config, [(0, 1)])
        with pytest.raises(NotTouchingError) as exc:
            require_touching(config, [(0, 1), (2, 3), (0, 2)])
        assert (exc.value.i, exc.value.j, exc.value.distance) == (2, 3, 3.0)


class TestCollisionDirection:
    def test_two_ball_direction(self):
        config = configs.touching_pair()
        z = collision_direction(config, (0, 1)).vector
        np.testing.assert_allclose(z, [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)

    def test_symmetry_in_pair_order(self):
        config = configs.touching_pair()
        a = collision_direction(config, (0, 1)).vector
        b = collision_direction(config, (1, 0)).vector
        np.testing.assert_array_equal(a, b)

    def test_chain_second_edge(self):
        config = configs.collinear_chain(3)
        z = collision_direction(config, (1, 2)).vector
        np.testing.assert_allclose(
            z, [0.0, -1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15
        )

    def test_not_touching_rejected(self):
        config = validate_configuration([[0.0], [2.0], [5.0]])
        with pytest.raises(NotTouchingError):
            collision_direction(config, (0, 2))

    def test_raw_vector_norm_is_two_sqrt_two(self, rng):
        for _ in range(50):
            config, _ = random_system(rng)
            graph = full_contact_graph(config)
            for edge in graph.edges:
                raw = raw_collision_vector(config, edge)
                assert abs(np.linalg.norm(raw) - 2.0 ** 1.5) <= 1e-12
                unit = collision_direction(config, edge).vector
                assert abs(np.linalg.norm(unit) - 1.0) <= 1e-12


class TestNormalizeSystem:
    def test_two_ball_example(self):
        config = configs.touching_pair()
        state = StateVector.from_blocks([[1.0], [-1.0]])
        cfg, st = normalize_system(config, state)
        np.testing.assert_allclose(cfg.centers.ravel(), [-1.0, 1.0])
        np.testing.assert_allclose(
            st.values, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-15
        )

    def test_idempotent_on_normalized_input(self):
        # chosen so mean and energy are exact in binary floating point
        config = BallConfiguration(1, np.array([[-3.0], [-1.0], [1.0], [3.0]]))
        state = StateVector.from_blocks([[0.5], [0.5], [-0.5], [-0.5]])
        cfg, st = normalize_system(config, state)
        np.testing.assert_array_equal(cfg.centers, config.centers)
        np.testing.assert_array_equal(st.values, state.values)

    @pytest.mark.parametrize("far", [1e17, 1e300])
    def test_centering_that_changes_a_contact_is_refused(self, far):
        # subtracting the mean, 3.3e16 or 3.3e299, rounds balls 1 and 2 apart
        # (1e17: the contact is lost) or onto one point (1e300: a false overlap)
        config = validate_configuration([[0.0], [2.0], [far]])
        assert full_contact_graph(config).edges == ((0, 1),)
        state = StateVector.from_blocks([[1.0], [0.0], [-1.0]])
        with pytest.raises(ValueError, match="^centering .* balls 1 and 2 "):
            normalize_system(config, state)

    def test_zero_energy_after_momentum_removal(self):
        config = configs.touching_pair()
        state = StateVector.from_blocks([[3.0], [3.0]])
        with pytest.raises(ZeroEnergyError):
            normalize_system(config, state)

    def test_normalization_identities(self, rng):
        for _ in range(50):
            config, state = random_system(rng)
            assert abs(np.linalg.norm(config.centers.sum(axis=0))) <= 1e-12
            assert abs(np.linalg.norm(state.momentum)) <= 1e-12
            assert abs(state.energy - 1.0) <= 1e-12


class TestInteriorWitness:
    def test_two_ball_witness(self):
        config = configs.touching_pair()
        w, margin = interior_witness(config)
        np.testing.assert_allclose(w.values, [0.0, 1.0])
        assert margin == pytest.approx(1 / math.sqrt(2))
        assert margin >= 2.0 ** (-1.5) / 2.0

    def test_collinear_three_margin(self):
        # w = (0, 2, 4)/sqrt(20), every contact has w.z = sqrt(2)*c = 1/sqrt(10)
        config = configs.collinear_chain(3)
        _, margin = interior_witness(config)
        assert margin == pytest.approx(1 / math.sqrt(10))
        assert margin >= 2.0 ** (-1.5) / 12.0

    def test_disconnected_rejected(self):
        config = validate_configuration([[0.0], [2.0], [10.0], [12.0]])
        with pytest.raises(DisconnectedError):
            interior_witness(config)

    def test_margin_floor_randomized(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            style = "mixed" if d >= 2 else "tree"
            config = configs.random_contact_configuration(n, d, rng, style=style)
            w, margin = interior_witness(config)
            assert abs(np.linalg.norm(w.values) - 1.0) <= 1e-12
            assert margin >= 2.0 ** (-1.5) / (n * (n - 1) ** 2) - 1e-12
