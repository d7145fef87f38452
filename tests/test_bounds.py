import math
from fractions import Fraction

import mpmath
import pytest

from pinnedballs.bounds import (
    general_base_log2,
    kissing_number,
    lattice_bound,
    lower_bound_reference,
    max_collisions_bound,
    per_edge_bound,
    reference_bounds,
    resolve_tau,
    superadditivity_check,
    tree_bound,
)
from pinnedballs.errors import InvalidAlphaError, TooFewBallsError
from pinnedballs.lattice import lattice_alpha_lower_bound


class TestKissingNumber:
    def test_dimension_one_forced_exact(self):
        info = kissing_number(1)
        assert (info.lower, info.upper, info.exact) == (2, 2, 2)
        assert info.exact_source == "elementary-forced"

    def test_dimension_two(self):
        info = kissing_number(2)
        assert (info.lower, info.upper) == (4, 8)
        assert info.exact == 6
        assert info.exact_source == "external-table"

    def test_dimension_three(self):
        info = kissing_number(3)
        assert (info.lower, info.upper) == (6, 26)
        assert info.exact == 12

    def test_unknown_dimension_has_interval_only(self):
        info = kissing_number(5)
        assert (info.lower, info.upper) == (10, 242)
        assert info.exact is None
        assert info.preferred() == (242, "elementary-upper")

    def test_interval_always_valid(self):
        for d in range(1, 30):
            info = kissing_number(d)
            assert 2 * d <= info.lower <= info.upper <= 3**d - 1
            if info.exact is not None:
                assert info.lower <= info.exact <= info.upper

    def test_resolve_policies(self):
        assert resolve_tau(2, "exact") == (6, "external-table")
        assert resolve_tau(2, "upper") == (8, "elementary-upper")
        assert resolve_tau(2, "lower") == (4, "elementary-lower")
        assert resolve_tau(2, "value:7") == (7, "user-value")

    @pytest.mark.parametrize("policy", ["value:x", "value:1e3", "value:", "sideways"])
    def test_malformed_policy_rejected(self, policy):
        with pytest.raises(ValueError, match="exact, upper, lower or value:<int>"):
            resolve_tau(2, policy)


class TestMaxCollisionsBound:
    def test_minimal_case(self):
        report = max_collisions_bound(2, 1, 1.0, 2)
        assert report.exponent == 1
        assert report.log2_bound == pytest.approx(15.5)
        assert report.value == pytest.approx(2.0**15.5)

    def test_exponent_zero_gives_one(self):
        report = max_collisions_bound(1, 1, 0.5, 2)
        assert report.exponent == 0
        assert report.value == 1.0

    def test_chain_alpha_value(self):
        alpha = math.sqrt(3.0) / 2.0
        report = max_collisions_bound(3, 1, alpha, 2)
        assert report.exponent == 2
        expected = 2.0 * (10.5 + 0.0 + 5.0 * math.log2(3.0) - math.log2(alpha))
        assert report.log2_bound == pytest.approx(expected, abs=1e-12)
        assert float(report.decimal) == pytest.approx(2.0**expected, rel=1e-5)

    def test_fractional_exponent_and_conservative_variant(self):
        report = max_collisions_bound(3, 1, 1.0, 3)  # tau*n = 9 odd
        assert report.exponent == Fraction(7, 2)
        assert report.exponent_conservative == 4
        assert report.log2_bound_conservative >= report.log2_bound

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlphaError):
            max_collisions_bound(2, 1, 0.0, 2)
        with pytest.raises(InvalidAlphaError):
            max_collisions_bound(2, 1, 1.5, 2)

    def test_report_identity(self):
        report = max_collisions_bound(4, 3, 0.25, 12)
        lhs = report.log2_bound
        rhs = float(report.exponent) * (
            10.5 + math.log2(3) + 5 * math.log2(4) - math.log2(0.25)
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestPerEdgeBound:
    def test_single_edge_is_exactly_one(self):
        report = per_edge_bound(1, 2, 1, 1.0)
        assert report.value == 1.0
        assert report.log2_bound == 0.0

    def test_two_edges(self):
        assert per_edge_bound(2, 2, 1, 1.0).log2_bound == pytest.approx(15.5)

    def test_monotone_in_edge_count(self):
        values = [per_edge_bound(m, 3, 2, 0.5).log2_bound for m in range(1, 8)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestTreeBound:
    def test_nominal_base_matches_substitution(self):
        # 2^{21/2} d n^5 / (4/n) = 2^{17/2} d n^6
        assert Fraction(21, 2) - 2 == Fraction(17, 2)
        for n in (2, 3, 5, 8):
            for d in (1, 2, 3):
                report = tree_bound(n, d, "nominal")
                assert report.log2_base == pytest.approx(
                    general_base_log2(n, d, 4.0 / n), abs=1e-9
                )
                assert report.log2_base == pytest.approx(
                    8.5 + math.log2(d) + 6 * math.log2(n), abs=1e-12
                )

    def test_corrected_base_matches_substitution(self):
        # 2^{21/2} d n^5 / (sqrt2/n) = 2^{10} d n^6
        assert Fraction(21, 2) - Fraction(1, 2) == 10
        for n in (2, 3, 5):
            report = tree_bound(n, 2, "corrected")
            assert report.log2_base == pytest.approx(
                general_base_log2(n, 2, math.sqrt(2.0) / n), abs=1e-9
            )
            assert report.log2_base == pytest.approx(
                10.0 + 1.0 + 6 * math.log2(n), abs=1e-12
            )

    def test_trivial_exponent(self):
        # tau_1 = 2 and n = 1 make the exponent vanish in both modes
        assert tree_bound(1, 1, "nominal").value == 1.0
        assert tree_bound(1, 1, "corrected").value == 1.0


class TestLatticeBound:
    def test_exponent_single_disc(self):
        report = lattice_bound(1)
        assert report.exact.exponent == 2
        assert report.exact.tau == 6

    def test_exact_below_rounded_up_to_hundred(self):
        for n in range(1, 101):
            report = lattice_bound(n)
            assert report.exact_below_rounded
            assert report.exact.exponent == Fraction(6 * n, 2) - 1 == 3 * n - 1

    def test_base_matches_general_substitution(self):
        for n in (1, 2, 5, 10):
            report = lattice_bound(n)
            substituted = general_base_log2(n, 2, lattice_alpha_lower_bound(n))
            assert report.exact.log2_base == pytest.approx(substituted, abs=1e-9)
            assert report.exact.alpha == lattice_alpha_lower_bound(n)


class TestReferenceBounds:
    def test_single_ball_exponents(self):
        first, second = reference_bounds(1)
        assert first == pytest.approx(1 * 5.0)          # (32)^1 in log2
        assert second == pytest.approx(2 * math.log2(400.0))

    def test_three_balls_equal_masses(self):
        first, second = reference_bounds(3)
        assert first == pytest.approx(9 * (5.0 + 1.5 * math.log2(3.0)), abs=1e-12)
        assert second == pytest.approx(162 * (math.log2(400.0) + 2 * math.log2(3.0)), abs=1e-9)

    def test_monotone_in_arguments(self):
        base = reference_bounds(4, 1.0, 1.0)
        assert reference_bounds(5, 1.0, 1.0) > base
        assert reference_bounds(4, 2.0, 1.0) > base
        assert reference_bounds(4, 1.0, 2.0) > base

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            reference_bounds(3, 0.5, 1.0)


class TestLowerBoundReference:
    def test_values(self):
        assert lower_bound_reference(3) == 1.0
        assert lower_bound_reference(6) == 8.0

    def test_too_few(self):
        with pytest.raises(TooFewBallsError):
            lower_bound_reference(2)


def _partitions(n, smallest=1):
    yield (n,)
    for first in range(smallest, n // 2 + 1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


class TestSuperadditivity:
    def test_trivial_partition(self):
        assert superadditivity_check([5], 2, 0.5, 6)

    def test_three_plus_three(self):
        assert superadditivity_check([3, 3], 2, 0.5, 6)

    def test_all_partitions_up_to_eight(self):
        for n in range(2, 9):
            for parts in _partitions(n):
                assert superadditivity_check(list(parts), 2, 0.3, 6), parts


class TestHighPrecisionAgreement:
    def test_log_space_matches_200_bits(self):
        cases = [
            (2, 1, 1.0, 2),
            (3, 1, math.sqrt(3.0) / 2.0, 2),
            (4, 2, 0.01, 6),
            (6, 3, 1e-6, 12),
            (10, 2, 1e-12, 6),
        ]
        for n, d, alpha, tau in cases:
            report = max_collisions_bound(n, d, alpha, tau)
            with mpmath.workprec(200):
                base = (
                    mpmath.power(2, mpmath.mpf(21) / 2)
                    * d
                    * mpmath.mpf(n) ** 5
                    / mpmath.mpf(alpha)
                )
                exact = mpmath.power(
                    base, mpmath.mpf(report.exponent.numerator) / report.exponent.denominator
                )
                log2_exact = float(mpmath.log(exact, 2))
            rel = abs(report.log2_bound - log2_exact) / max(1.0, abs(log2_exact))
            assert rel <= 1e-9
