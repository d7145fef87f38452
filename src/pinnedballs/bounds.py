"""Collision-count bounds, kissing-number data, and reference calculators.

The headline bound for n pinned balls in dimension d with rigidity index
alpha is (2^{21/2} d n^5 / alpha)^{tau_d n/2 - 1}, where tau_d is the
kissing number.  These quantities overflow any fixed-width float almost
immediately, so every evaluation happens in log2 space; a float value and a
decimal string are attached only when representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvalidAlphaError, TooFewBallsError
from .lattice import lattice_alpha_lower_bound

#: log2 of the constant 2^{21/2} in the general bound base.
GENERAL_BASE_EXPONENT = Fraction(21, 2)

#: Exact kissing numbers from the published tables for the dimensions where
#: they are known; all other dimensions only get the elementary interval.
EXACT_KISSING_NUMBERS = {1: 2, 2: 6, 3: 12, 4: 24, 8: 240, 24: 196560}

DECIMAL_LIMIT_LOG2 = 300 * math.log2(10)


@dataclass(frozen=True)
class KissingNumberInfo:
    """Elementary interval 2d <= tau_d <= 3^d - 1 plus exact value when known."""

    d: int
    lower: int
    upper: int
    exact: int | None
    exact_source: str | None

    def preferred(self) -> tuple[int, str]:
        """Exact value when known, else the elementary upper bound."""
        if self.exact is not None:
            return self.exact, self.exact_source
        return self.upper, "elementary-upper"


def kissing_number(d: int) -> KissingNumberInfo:
    """Elementary bounds on the kissing number, with table values attached."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    lower, upper = 2 * d, 3**d - 1
    if lower == upper:
        return KissingNumberInfo(d, lower, upper, lower, "elementary-forced")
    exact = EXACT_KISSING_NUMBERS.get(d)
    source = "external-table" if exact is not None else None
    return KissingNumberInfo(d, lower, upper, exact, source)


def resolve_tau(d: int, policy: str = "exact") -> tuple[int, str]:
    """Kissing number per policy: exact | upper | lower | value:<int>.

    "exact" falls back to the elementary upper bound when no table value is
    known, since the bound's exponent needs an upper bound on the edge count.
    """
    info = kissing_number(d)
    if policy == "exact":
        return info.preferred()
    if policy == "upper":
        return info.upper, "elementary-upper"
    if policy == "lower":
        return info.lower, "elementary-lower"
    if policy.startswith("value:"):
        try:
            return int(policy[len("value:"):]), "user-value"
        except ValueError:
            pass
    raise ValueError(f"tau policy must be exact, upper, lower or value:<int>, got {policy!r}")


@dataclass(frozen=True)
class BoundReport:
    """Log-space evaluation of a collision-count bound with inputs recorded."""

    n: int
    d: int
    alpha: float
    alpha_source: str
    tau: int
    tau_source: str
    exponent: Fraction
    log2_base: float
    log2_bound: float
    exponent_conservative: int
    log2_bound_conservative: float
    value: float | None
    decimal: str | None


def _representable(log2_bound: float) -> tuple[float | None, str | None]:
    value = 2.0**log2_bound if log2_bound < 1023.0 else None
    decimal = None
    if value is not None and log2_bound <= DECIMAL_LIMIT_LOG2:
        decimal = f"{value:.6e}"
    return value, decimal


def _report(
    n: int,
    d: int,
    alpha_value: float,
    alpha_source: str,
    tau: int,
    tau_source: str,
    exponent: Fraction,
    log2_base: float,
) -> BoundReport:
    conservative = math.ceil(exponent) if exponent > 0 else 0
    try:
        log2_bound = float(exponent) * log2_base
        log2_bound_conservative = float(conservative) * log2_base
    except OverflowError:
        digits = len(str(conservative))
        raise ValueError(
            f"the bound's exponent tau*n/2 - 1 has {digits} digits, too many for a float"
        ) from None
    value, decimal = _representable(log2_bound)
    return BoundReport(
        n=n,
        d=d,
        alpha=alpha_value,
        alpha_source=alpha_source,
        tau=tau,
        tau_source=tau_source,
        exponent=exponent,
        log2_base=log2_base,
        log2_bound=log2_bound,
        exponent_conservative=int(conservative),
        log2_bound_conservative=log2_bound_conservative,
        value=value,
        decimal=decimal,
    )


def general_base_log2(n: int, d: int, alpha_value: float) -> float:
    """log2 of the bound base 2^{21/2} d n^5 / alpha."""
    return (
        float(GENERAL_BASE_EXPONENT)
        + math.log2(d)
        + 5.0 * math.log2(n)
        - math.log2(alpha_value)
    )


def max_collisions_bound(
    n: int,
    d: int,
    alpha_value: float,
    tau: int,
    *,
    alpha_source: str = "value",
    tau_source: str = "value",
) -> BoundReport:
    """The headline bound (2^{21/2} d n^5 / alpha)^{tau n/2 - 1} in log space.

    The exponent tau*n/2 - 1 is kept as an exact rational; when tau*n is odd
    the bound is evaluated with the fractional exponent as written and the
    report also carries the conservative integer variant ceil(tau*n/2) - 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < alpha_value <= 1.0:
        raise InvalidAlphaError(alpha_value)
    if tau < 2:
        raise ValueError("tau must be >= 2")
    exponent = Fraction(tau * n, 2) - 1
    return _report(
        n, d, alpha_value, alpha_source, tau, tau_source,
        exponent, general_base_log2(n, d, alpha_value),
    )


def per_edge_bound(
    m: int,
    n: int,
    d: int,
    alpha_value: float,
    *,
    alpha_source: str = "value",
) -> BoundReport:
    """Bound (2^{21/2} d n^5 / alpha)^{m-1} for an m-edge subgraph; exactly 1 for m = 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0.0 < alpha_value <= 1.0:
        raise InvalidAlphaError(alpha_value)
    return _report(
        n, d, alpha_value, alpha_source, 0, "not-used",
        Fraction(m - 1), general_base_log2(n, d, alpha_value),
    )


def _require_float_n(n: int) -> None:
    """Refuse n < 1, and an n too large for a float, naming its digit count."""
    if n < 1:
        raise ValueError("n must be >= 1")
    try:
        float(n)
    except OverflowError:
        raise ValueError(f"n has {len(str(n))} digits, too many for a float") from None


def tree_bound(
    n: int,
    d: int,
    constant_mode: str = "corrected",
    tau_policy: str = "exact",
) -> BoundReport:
    """Bound for tree contact graphs with the rigidity index replaced by its floor.

    constant_mode "nominal" substitutes alpha >= 4/n and yields the base
    2^{17/2} d n^6; "corrected" substitutes alpha >= sqrt(2)/n and yields
    2^{10} d n^6.  The corrected constant carries the unit normalization of
    the collision directions, which the 4/n floor drops; the audit suite
    flags configurations where 4/n fails (the 3-ball chain is one).
    """
    _require_float_n(n)
    tau, tau_source = resolve_tau(d, tau_policy)
    if constant_mode == "nominal":
        alpha_floor = 4.0 / n
        log2_base = 8.5 + math.log2(d) + 6.0 * math.log2(n)
        source = "tree-bound-nominal"
    elif constant_mode == "corrected":
        alpha_floor = math.sqrt(2.0) / n
        log2_base = 10.0 + math.log2(d) + 6.0 * math.log2(n)
        source = "tree-bound-corrected"
    else:
        raise ValueError(f"unknown constant_mode {constant_mode!r}")
    exponent = Fraction(tau * n, 2) - 1
    return _report(n, d, alpha_floor, source, tau, tau_source, exponent, log2_base)


@dataclass(frozen=True)
class LatticeBoundReport:
    """Exact substituted form of the lattice bound next to its rounded form."""

    exact: BoundReport
    rounded_log2: float
    exact_below_rounded: bool


def lattice_bound(n: int) -> LatticeBoundReport:
    """Bound for planar lattice configurations, exact and rounded forms.

    Exact base: 2^{21/2} * 2 * n^5 * (432/sqrt(3)) * 4^{4n} * sqrt(n);
    rounded base: 10^6 * n^{11/2} * 4^{4n}.  The exact form is strictly
    below the rounded one, which the report records.
    """
    _require_float_n(n)
    tau, tau_source = resolve_tau(2, "exact")
    exponent = Fraction(tau * n, 2) - 1
    exact_log2_base = (
        float(GENERAL_BASE_EXPONENT)
        + 1.0
        + 5.5 * math.log2(n)
        + math.log2(432.0)
        - 0.5 * math.log2(3.0)
        + 8.0 * n
    )
    rounded_log2_base = 6.0 * math.log2(10.0) + 5.5 * math.log2(n) + 8.0 * n
    exact = _report(
        n, 2, lattice_alpha_lower_bound(n), "lattice-bound",
        tau, tau_source, exponent, exact_log2_base,
    )
    rounded_log2 = float(exponent) * rounded_log2_base
    return LatticeBoundReport(
        exact=exact,
        rounded_log2=rounded_log2,
        exact_below_rounded=exact.log2_bound < rounded_log2,
    )


def reference_bounds(
    n: int, mass_ratio: float = 1.0, radius_ratio: float = 1.0
) -> tuple[float, float]:
    """log2 of the two historical universal bounds for moving balls.

    First: (32 sqrt(mass_ratio) radius_ratio n^{3/2})^{n^2}; second:
    (400 mass_ratio n^2)^{2n^4}.  Ratios are max/min and must be >= 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mass_ratio < 1.0 or radius_ratio < 1.0:
        raise ValueError("mass and radius ratios are max/min, hence >= 1")
    first = (n**2) * (
        5.0 + 0.5 * math.log2(mass_ratio) + math.log2(radius_ratio) + 1.5 * math.log2(n)
    )
    second = (2 * n**4) * (math.log2(400.0) + math.log2(mass_ratio) + 2.0 * math.log2(n))
    return first, second


def lower_bound_reference(n: int) -> float:
    """The n^3/27 collision lower bound, defined for n >= 3 (and d >= 2)."""
    if n < 3:
        raise TooFewBallsError(n, 3)
    return n**3 / 27.0


def _log2_sum(values_log2: Sequence[float]) -> float:
    top = max(values_log2)
    return top + math.log2(sum(2.0 ** (v - top) for v in values_log2))


def superadditivity_check(
    parts: Sequence[int], d: int, alpha_value: float, tau: int
) -> bool:
    """Whether the bound at n = sum(parts) dominates the sum of per-part bounds.

    This is the reduction used for disconnected contact graphs, evaluated in
    log-safe arithmetic for the given alpha, d, and tau.
    """
    if not parts or any(p < 1 for p in parts):
        raise ValueError("parts must be positive integers")
    n = sum(parts)
    whole = max_collisions_bound(n, d, alpha_value, tau).log2_bound
    pieces = [
        max_collisions_bound(p, d, alpha_value, tau).log2_bound for p in parts
    ]
    return whole >= _log2_sum(pieces) - 1e-12
