import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinnedballs.errors import NonconformingColumnError, NotTouchingError
from pinnedballs.geometry import canonical_edge
from pinnedballs.lattice import (
    QI_ONE,
    QI_ZERO,
    SQRT3,
    ConvergentPair,
    LatticePoint,
    QuadraticInteger,
    _bareiss_determinant,
    _cofactor_determinant,
    _edge_offset,
    check_column_conditions,
    classify_column,
    contact_edges,
    exact_alpha_certificate,
    exact_determinant,
    lattice_alpha_lower_bound,
    lattice_alpha_lower_bound_log2,
    lattice_configuration,
    lattice_points_in_radius,
    quadratic_lower_bound,
    sqrt3_convergents,
    squared_distance,
    verify_det_bound,
)
from pinnedballs.rigidity import alpha_star, stress_certificate
from pinnedballs.verify import _random_conforming_matrix


def is_lattice_point(a: int, b: int) -> bool:
    """Whether (a, b*sqrt(3)) belongs to the triangular lattice."""
    return (a - b) % 2 == 0


def quadratic_lower_bound_closed_form(n: int) -> float:
    """Closed form sqrt(3)/(54*4^{2n}), the bound for r2 ranges up to 4^{2n}/sqrt(3)."""
    return math.sqrt(3.0) / (54.0 * 4.0 ** (2 * n))


def exact_collision_vector(points, edge):
    """Unnormalized collision vector of a touching lattice pair, over Z[sqrt(3)]."""
    i, j = canonical_edge(*edge)
    da, db = _edge_offset(points, (i, j))
    vec = [QI_ZERO] * (2 * len(points))
    vec[2 * i], vec[2 * i + 1] = QuadraticInteger(da), QuadraticInteger(0, db)
    vec[2 * j], vec[2 * j + 1] = QuadraticInteger(-da), QuadraticInteger(0, -db)
    return vec


def _qi(rng, span=6):
    return QuadraticInteger(int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))


class TestQuadraticInteger:
    def test_ring_laws_randomized(self, rng):
        for _ in range(300):
            a, b, c = _qi(rng), _qi(rng), _qi(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_golden_square(self):
        value = QuadraticInteger(1, 1) * QuadraticInteger(1, 1)
        assert value == QuadraticInteger(4, 2)

    def test_sign_against_float(self, rng):
        assert QI_ZERO.sign() == 0
        for _ in range(500):
            q = _qi(rng, span=50)
            if q:
                assert q.sign() == (1 if float(q) > 0 else -1)

    def test_sign_on_tight_cases(self):
        # 26 - 15*sqrt(3) = 0.0192...; 15^2*3 = 675 < 676
        assert QuadraticInteger(26, -15).sign() == 1
        assert QuadraticInteger(-26, 15).sign() == -1
        assert QuadraticInteger(97, -56).sign() == 1  # 97^2 = 9409 > 9408

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            QuadraticInteger(1.5)

    def test_float_pair_rejected(self):
        with pytest.raises(TypeError):
            QuadraticInteger(2.9, -0.5)

    def test_numpy_integers_accepted(self):
        value = QuadraticInteger(np.int64(3), np.int32(-2))
        assert value == QuadraticInteger(3, -2)
        assert type(value.r1) is int and type(value.r2) is int

    def test_float_and_mpf_agree(self, rng):
        for _ in range(100):
            q = _qi(rng)
            if q:
                with mpmath.workprec(200):
                    exact = mpmath.mpf(q.r1) + q.r2 * mpmath.sqrt(3)
                rel = abs(float(q) - float(exact)) / max(1e-9, abs(float(q)))
                assert rel <= 1e-12


class TestLatticePoints:
    def test_parity_families(self):
        assert is_lattice_point(1, 1)       # (1, sqrt3)
        assert not is_lattice_point(1, 2)   # (1, 2 sqrt3)
        assert is_lattice_point(2, 0)
        with pytest.raises(ValueError):
            LatticePoint(1, 2)

    def test_float_coordinates_rejected(self):
        with pytest.raises(TypeError):
            LatticePoint(1.5, 1.5)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="finite"):
            lattice_points_in_radius(radius)

    def test_radius_zero(self):
        assert lattice_points_in_radius(0) == [LatticePoint(0, 0)]

    def test_hexagonal_neighbourhood(self):
        points = lattice_points_in_radius(2.1)
        assert len(points) == 7
        assert points[0] == LatticePoint(0, 0)
        assert {(p.a, p.b) for p in points} == {
            (0, 0), (2, 0), (-2, 0), (1, 1), (1, -1), (-1, 1), (-1, -1),
        }

    def test_adjacent_distances_exact(self):
        points = lattice_points_in_radius(2.1)
        edges = contact_edges(points)
        assert len(edges) == 12  # hexagonal flower
        for i, j in edges:
            assert squared_distance(points[i], points[j]) == 4
        config = lattice_configuration(points)
        for i, j in edges:
            assert config.touches(i, j)


class TestExactDeterminant:
    def test_one_by_one_sqrt3(self):
        assert exact_determinant([[SQRT3]]) == QuadraticInteger(0, 1)

    def test_two_by_two(self):
        det = exact_determinant([[QI_ONE, SQRT3], [SQRT3, QI_ONE]])
        assert det == QuadraticInteger(-2, 0)

    def test_integer_matrix_against_numpy(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 6))
            ints = rng.integers(-4, 5, size=(m, m))
            det = exact_determinant([[int(x) for x in row] for row in ints])
            assert det.r2 == 0
            assert det.r1 == round(float(np.linalg.det(ints.astype(float))))

    def test_dual_paths_agree(self, rng):
        for _ in range(120):
            m = int(rng.integers(1, 9))
            matrix = [[_qi(rng, span=3) for _ in range(m)] for _ in range(m)]
            a = exact_determinant(matrix, method="cofactor")
            b = exact_determinant(matrix, method="bareiss")
            assert a == b

    def test_numpy_integer_matrix(self):
        assert exact_determinant(np.array([[1, 2], [3, 4]])) == QuadraticInteger(-2)


class TestColumnConditions:
    def test_standard_basis_column(self):
        labels = check_column_conditions([[QI_ONE, QI_ZERO], [QI_ZERO, QI_ONE]])
        assert labels == ["a", "a"]

    def test_plus_minus_two_column(self):
        column = [QuadraticInteger(2, 0), QuadraticInteger(-2, 0)]
        assert classify_column(column) == "b"

    def test_lattice_contact_column(self):
        # slope pi/3 contact: delta = (1, sqrt3)
        points = [LatticePoint(0, 0), LatticePoint(1, 1)]
        column = exact_collision_vector(points, (0, 1))
        assert classify_column(column) == "c"

    def test_horizontal_contact_column(self):
        points = [LatticePoint(0, 0), LatticePoint(2, 0)]
        column = exact_collision_vector(points, (0, 1))
        assert classify_column(column) == "b"

    def test_nonconforming(self):
        assert classify_column([QuadraticInteger(3, 0), QI_ZERO]) == "nonconforming"


def _column_kinds(matrices):
    return {label for matrix in matrices for label in check_column_conditions(matrix)}


def test_elimination_matches_cofactor_on_conforming(rng):
    drawn = []
    for m in range(3, 11):
        for _ in range(4 if m < 10 else 2):
            rows = _random_conforming_matrix(rng, m)
            assert _bareiss_determinant(rows) == _cofactor_determinant(rows)
            drawn.append(rows)
    assert _column_kinds(drawn) == {"a", "b", "c"}


class TestDetBound:
    def test_identity_one_by_one(self):
        report = verify_det_bound([[QI_ONE]])
        assert report.determinant == QI_ONE
        assert report.all_ok

    def test_two_by_two_mixed(self):
        matrix = [
            [QuadraticInteger(2, 0), QI_ONE],
            [QuadraticInteger(-2, 0), QI_ZERO],
        ]
        report = verify_det_bound(matrix)
        assert report.determinant == QuadraticInteger(2, 0)
        assert report.all_ok

    def test_nonconforming_rejected(self):
        with pytest.raises(NonconformingColumnError):
            verify_det_bound([[QuadraticInteger(3, 0)]])

    def test_randomized(self, rng):
        drawn = [_random_conforming_matrix(rng, int(rng.integers(1, 9))) for _ in range(300)]
        assert all(verify_det_bound(matrix).all_ok for matrix in drawn)
        assert _column_kinds(drawn) == {"a", "b", "c"}

    def test_hadamard_substep(self, rng):
        # columns with at most two entries from {-1, 0, 1}
        for _ in range(300):
            m = int(rng.integers(1, 9))
            cols = []
            for _ in range(m):
                col = [0] * m
                for i in rng.choice(m, size=min(2, m), replace=False):
                    col[int(i)] = int(rng.choice([-1, 0, 1]))
                cols.append(col)
            matrix = [[cols[j][i] for j in range(m)] for i in range(m)]
            det = exact_determinant(matrix)
            assert det.r2 == 0
            assert abs(det.r1) <= 2.0 ** (m / 2.0) + 1e-9


class TestConvergents:
    def test_seeds_and_first_values(self):
        pairs = sqrt3_convergents(3)
        assert pairs[0] == ConvergentPair(0, 1, 1)
        assert pairs[1] == ConvergentPair(1, 2, 1)
        assert pairs[2] == ConvergentPair(2, 5, 3)
        assert pairs[3] == ConvergentPair(3, 7, 4)

    def test_growth_bound(self):
        pairs = sqrt3_convergents(50)
        for k in range(1, 51):
            assert pairs[k].g <= 3 * pairs[k - 1].g

    def test_gap_inequality_high_precision(self):
        pairs = sqrt3_convergents(51)
        with mpmath.workprec(200):
            root = mpmath.sqrt(3)
            for k in range(51):
                gap = abs(root - mpmath.mpf(pairs[k].h) / pairs[k].g)
                floor = mpmath.mpf(1) / (pairs[k].g * (pairs[k + 1].g + pairs[k].g))
                assert gap > floor

    def test_convergents_alternate_around_root(self):
        pairs = sqrt3_convergents(20)
        with mpmath.workprec(200):
            root = mpmath.sqrt(3)
            signs = [mpmath.sign(mpmath.mpf(p.h) / p.g - root) for p in pairs]
        assert all(signs[k] != signs[k + 1] for k in range(20))


class TestQuadraticLowerBound:
    @pytest.mark.parametrize("r2_bound", [0.5, math.nan, math.inf])
    def test_bad_range_rejected(self, r2_bound):
        # a NaN or infinite bound used to search the convergents forever
        with pytest.raises(ValueError, match="finite and >= 1"):
            quadratic_lower_bound(r2_bound)

    def test_unit_range(self):
        # exhaustive minimum at |sqrt3 - 2| = 0.2679; certificate 1/6
        assert quadratic_lower_bound(1) == pytest.approx(1.0 / 6.0)
        assert quadratic_lower_bound(1) <= abs(math.sqrt(3.0) - 2.0)

    def test_certified_under_exhaustive_scan(self):
        with mpmath.workprec(200):
            root = mpmath.sqrt(3)
            running = mpmath.inf
            checkpoints = {10, 100, 1000, 10000}
            for r2 in range(1, 10001):
                running = min(running, abs(r2 * root - mpmath.nint(r2 * root)))
                if r2 in checkpoints:
                    assert quadratic_lower_bound(r2) <= float(running)

    def test_closed_form_is_weaker(self):
        for n in (1, 2, 3):
            box = 4.0 ** (2 * n) / math.sqrt(3.0)
            assert quadratic_lower_bound_closed_form(n) <= quadratic_lower_bound(box)

    def test_closed_form_under_exhaustive_box_scan(self):
        n = 2
        limit = int(4.0 ** (2 * n) / math.sqrt(3.0))
        with mpmath.workprec(200):
            root = mpmath.sqrt(3)
            observed = min(
                abs(r2 * root - mpmath.nint(r2 * root)) for r2 in range(1, limit + 1)
            )
        assert quadratic_lower_bound_closed_form(n) <= float(observed)


class TestLatticeAlphaFloor:
    def test_small_values(self):
        assert lattice_alpha_lower_bound(1) == pytest.approx(
            math.sqrt(3.0) / (432.0 * 256.0), rel=1e-12
        )
        expected_log2 = math.log2(math.sqrt(3.0) / 432.0) - 24.0 - 0.5 * math.log2(3.0)
        assert lattice_alpha_lower_bound_log2(3) == pytest.approx(expected_log2, abs=1e-12)

    def test_monotone_decreasing(self):
        values = [lattice_alpha_lower_bound_log2(n) for n in range(1, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestExactAlphaCertificate:
    def test_single_edge_certificate_is_one(self):
        points = [LatticePoint(0, 0), LatticePoint(2, 0)]
        bound, data = exact_alpha_certificate(points, [(0, 1)], (0, 1))
        assert bound == 1.0
        assert (data.r1, data.r2, data.basis_edges) == (8, 1, ())
        assert not data.exact_zero

    def test_collinear_chain_certificate(self):
        points = [LatticePoint(0, 0), LatticePoint(2, 0), LatticePoint(4, 0)]
        edges = [(0, 1), (1, 2)]
        bound, data = exact_alpha_certificate(points, edges, (0, 1))
        assert 0.0 < bound <= math.sqrt(3.0) / 2.0
        direct = alpha_star(lattice_configuration(points), edges, (0, 1))
        assert direct >= bound - 1e-12

    def test_dependent_direction_gives_exact_zero(self):
        # the hexagonal flower has 12 contacts in an 11-dimensional span, so
        # some direction is exactly dependent and its certificate must be 0
        found_zero = False
        flower = lattice_points_in_radius(2.1)
        fedges = contact_edges(flower)
        for chosen in fedges:
            bound, data = exact_alpha_certificate(flower, fedges, chosen)
            direct = alpha_star(lattice_configuration(flower), fedges, chosen)
            assert direct >= bound - 1e-9
            if data.exact_zero:
                found_zero = True
                assert bound == 0.0
                assert direct <= 1e-9
        assert found_zero

    def test_certificates_bounded_by_alpha_star_on_patches(self, rng):
        flower = lattice_points_in_radius(2.1)
        for _ in range(20):
            size = int(rng.integers(2, 6))
            idx = sorted(rng.choice(len(flower), size=size, replace=False))
            points = [flower[int(i)] for i in idx]
            edges = contact_edges(points)
            if not edges:
                continue
            config = lattice_configuration(points)
            floor = lattice_alpha_lower_bound(len(points))
            for chosen in edges:
                bound, _ = exact_alpha_certificate(points, edges, chosen)
                direct = alpha_star(config, edges, chosen)
                assert bound <= direct + 1e-9
                if bound > 0.0:
                    assert bound >= floor

    def test_untouching_edge_rejected(self):
        points = [LatticePoint(0, 0), LatticePoint(4, 0)]
        with pytest.raises(NotTouchingError):
            exact_alpha_certificate(points, [(0, 1)], (0, 1))


def _gram_oracle(points, edge_set, edge):
    """alpha_star^2 and the greedy basis by Gaussian elimination in Fractions on
    the Gram matrix of :func:`exact_collision_vector`, the other edges first."""
    chosen = canonical_edge(*edge)
    edges = sorted({canonical_edge(*e) for e in edge_set})
    others = [e for e in edges if e != chosen]
    vectors = [exact_collision_vector(points, e) for e in others + [chosen]]
    gram = []
    for u in vectors:
        row = []
        for v in vectors:
            product = sum((a * b for a, b in zip(u, v)), QI_ZERO)
            assert product.r2 == 0
            row.append(Fraction(product.r1))
        gram.append(row)
    # Schur complements: after the basis so far, the diagonal entry of a
    # vector is its squared distance to their span
    basis = []
    for c, e in enumerate(others):
        if gram[c][c] == 0:
            continue
        basis.append(e)
        for i in range(c + 1, len(vectors)):
            factor = gram[i][c] / gram[c][c]
            for j in range(c + 1, len(vectors)):
                gram[i][j] -= factor * gram[c][j]
    return gram[-1][-1] / 8, tuple(basis)


def _assert_matches_oracle(points, edges, chosen):
    value, data = exact_alpha_certificate(points, edges, chosen)
    squared, basis = _gram_oracle(points, edges, chosen)
    assert Fraction(data.r1, 8 * data.r2) == squared
    assert data.basis_edges == basis
    assert data.exact_zero == (squared == 0)
    # the largest float not above the exact value
    assert Fraction(value) ** 2 <= squared < Fraction(math.nextafter(value, 2.0)) ** 2
    direct = alpha_star(lattice_configuration(points), edges, chosen)
    assert abs(value - direct) <= 1e-12
    return value, data


class TestCertificateAgainstBorderedDeterminants:
    """r1 / (8 r2) equals the bordered Gram determinant ratio
    det G(B + e) / (8 det G(B)) of an independent Fraction elimination, the
    basis is its greedy basis, and the float rounds the root down."""

    def test_every_edge_of_the_flower(self):
        flower = lattice_points_in_radius(2.1)
        edges = contact_edges(flower)
        zeros = 0
        for chosen in edges:
            _, data = _assert_matches_oracle(flower, edges, chosen)
            zeros += data.exact_zero
        assert zeros > 0

    def test_random_sub_patches(self):
        rng = np.random.default_rng(4)
        flower = lattice_points_in_radius(2.1)
        kinds = set()
        for _ in range(40):
            size = int(rng.integers(2, 8))
            idx = sorted(rng.choice(len(flower), size=size, replace=False))
            points = [flower[int(i)] for i in idx]
            edges = list(contact_edges(points))
            if not edges:
                continue
            if len(edges) > 1 and rng.integers(2):
                keep = rng.choice(len(edges), size=len(edges) - 1, replace=False)
                edges = [edges[int(k)] for k in sorted(keep)]
            for chosen in edges:
                value, data = _assert_matches_oracle(points, edges, chosen)
                if data.exact_zero:
                    kinds.add("zero")
                elif not data.basis_edges:
                    kinds.add("trivial")
                else:
                    kinds.add("positive")
        assert kinds == {"zero", "trivial", "positive"}

    @pytest.mark.parametrize("seed", [1, 2])
    def test_twelve_edges_of_the_thirteen_disc_patch(self, seed):
        rng = np.random.default_rng(seed)
        points = lattice_points_in_radius(3.5)
        edges = contact_edges(points)
        assert len(points) == 13
        keep = sorted(rng.choice(len(edges), size=12, replace=False))
        subset = [edges[int(k)] for k in keep]
        for chosen in subset:
            _assert_matches_oracle(points, subset, chosen)


def _assert_integrality_floor(points, edges, chosen):
    """A positive certificate has r1 >= 1 and, by Hadamard, r2 <= 8^|B|, so
    alpha_star >= 8^{-(|B|+1)/2}."""
    value, data = exact_alpha_certificate(points, edges, chosen)
    if data.exact_zero:
        return
    size = len(data.basis_edges)
    assert data.r1 >= 1 and 1 <= data.r2 <= 8**size
    assert value >= 8.0 ** (-(size + 1) / 2) * (1 - 1e-15)


@pytest.mark.parametrize("radius", [2.1, 3.5])
def test_integrality_floor_on_every_edge(radius):
    points = lattice_points_in_radius(radius)
    edges = contact_edges(points)
    for chosen in edges:
        _assert_integrality_floor(points, edges, chosen)


_PATCHES = {radius: lattice_points_in_radius(radius) for radius in (3.5, 4.0)}


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(radius=st.sampled_from(sorted(_PATCHES)), data=st.data())
def test_integrality_floor_on_random_edge_subsets(radius, data):
    points = _PATCHES[radius]
    edges = contact_edges(points)
    subset = data.draw(st.lists(st.sampled_from(edges), min_size=1, unique=True))
    _assert_integrality_floor(points, subset, data.draw(st.sampled_from(subset)))


_P7 = lattice_points_in_radius(2.1)


@pytest.mark.parametrize("bad", [(-6, 0), (0, 7)])
@pytest.mark.parametrize(
    "certify",
    [
        lambda edges, e: exact_alpha_certificate(_P7, edges, e),
        lambda edges, e: alpha_star(lattice_configuration(_P7), edges, e),
        lambda edges, e: stress_certificate(lattice_configuration(_P7), edges, e),
    ],
    ids=["exact_alpha_certificate", "alpha_star", "stress_certificate"],
)
def test_ball_index_outside_the_patch_rejected(certify, bad):
    # (-6, 0) used to wrap around to (1, 0), a copy of the edge (0, 1)
    message = f"edge ({bad[0] + 1}, {bad[1] + 1}) names a ball outside 1..7"
    with pytest.raises(ValueError, match=re.escape(message)):
        certify([(0, 1), bad], (0, 1))
