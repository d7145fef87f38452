"""Exact arithmetic over Z[sqrt(3)] and triangular-lattice configurations.

Centers on the triangular lattice have coordinates (a, b*sqrt(3)) with
integers a, b of equal parity, so every collision vector of a lattice
configuration has entries in the ring Z[sqrt(3)].  Determinants of matrices
with such entries stay in the ring and obey explicit coefficient bounds,
which combine with continued-fraction lower bounds on |r1 + r2*sqrt(3)| to
give the paper's positive floor on the rigidity index of any lattice
configuration.  The inner products of two collision vectors are integers, so
the rigidity index of one edge set is itself exact: alpha_star^2 is a ratio
of two integer Gram determinants (:func:`exact_alpha_certificate`).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NonconformingColumnError, NotTouchingError
from .geometry import (
    DEFAULT_CONTACT_TOLERANCE,
    BallConfiguration,
    Edge,
    split_chosen_edge,
)


@dataclass(frozen=True)
class QuadraticInteger:
    """Element r1 + r2*sqrt(3) of the ring Z[sqrt(3)], exact arithmetic."""

    r1: int
    r2: int = 0

    def __post_init__(self):
        # operator.index refuses floats instead of truncating them
        if type(self.r1) is not int:
            object.__setattr__(self, "r1", operator.index(self.r1))
        if type(self.r2) is not int:
            object.__setattr__(self, "r2", operator.index(self.r2))

    @staticmethod
    def _coerce(value) -> "QuadraticInteger":
        if isinstance(value, QuadraticInteger):
            return value
        try:
            return QuadraticInteger(operator.index(value), 0)
        except TypeError:
            raise TypeError(f"cannot coerce {value!r} to QuadraticInteger") from None

    def __add__(self, other):
        o = self._coerce(other)
        return QuadraticInteger(self.r1 + o.r1, self.r2 + o.r2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return QuadraticInteger(self.r1 - o.r1, self.r2 - o.r2)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return QuadraticInteger(
            self.r1 * o.r1 + 3 * self.r2 * o.r2,
            self.r1 * o.r2 + self.r2 * o.r1,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return QuadraticInteger(-self.r1, -self.r2)

    def __bool__(self) -> bool:
        return self.r1 != 0 or self.r2 != 0

    def sign(self) -> int:
        """Exact sign of the real value r1 + r2*sqrt(3)."""
        if self.r1 == 0 and self.r2 == 0:
            return 0
        if self.r1 >= 0 and self.r2 >= 0:
            return 1
        if self.r1 <= 0 and self.r2 <= 0:
            return -1
        # mixed signs: compare r1^2 against 3 r2^2
        if self.r1 > 0:
            return 1 if self.r1 * self.r1 > 3 * self.r2 * self.r2 else -1
        return 1 if 3 * self.r2 * self.r2 > self.r1 * self.r1 else -1

    def __abs__(self) -> "QuadraticInteger":
        return self if self.sign() >= 0 else -self

    def __float__(self) -> float:
        return float(self.r1) + float(self.r2) * math.sqrt(3.0)

    def __str__(self) -> str:
        if self.r2 == 0:
            return str(self.r1)
        if self.r1 == 0:
            return f"{self.r2}*sqrt(3)"
        op = "+" if self.r2 > 0 else "-"
        return f"{self.r1} {op} {abs(self.r2)}*sqrt(3)"


QI_ZERO = QuadraticInteger(0, 0)
QI_ONE = QuadraticInteger(1, 0)
SQRT3 = QuadraticInteger(0, 1)


@dataclass(frozen=True, order=True)
class LatticePoint:
    """Point (a, b*sqrt(3)) of the triangular lattice; a and b share parity."""

    a: int
    b: int

    def __post_init__(self):
        if type(self.a) is not int:
            object.__setattr__(self, "a", operator.index(self.a))
        if type(self.b) is not int:
            object.__setattr__(self, "b", operator.index(self.b))
        if (self.a - self.b) % 2 != 0:
            raise ValueError(
                f"({self.a}, {self.b}*sqrt(3)) violates the lattice parity rule"
            )

    def xy(self) -> np.ndarray:
        return np.array([float(self.a), self.b * math.sqrt(3.0)])


def squared_distance(p: LatticePoint, q: LatticePoint) -> int:
    """Exact squared distance; touching pairs have value 4."""
    da, db = p.a - q.a, p.b - q.b
    return da * da + 3 * db * db


def lattice_points_in_radius(radius: float) -> list[LatticePoint]:
    """All lattice points with |point| <= radius, sorted by norm then coordinates."""
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius}")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    r2 = radius * radius
    amax = int(math.floor(radius))
    bmax = int(math.floor(radius / math.sqrt(3.0)))
    points = []
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            if (a - b) % 2 == 0 and a * a + 3 * b * b <= r2:
                points.append(LatticePoint(a, b))
    points.sort(key=lambda p: (p.a * p.a + 3 * p.b * p.b, p.a, p.b))
    return points


def contact_edges(points: Sequence[LatticePoint]) -> tuple[Edge, ...]:
    """Pairs at exact distance 2 (squared distance 4)."""
    edges = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if squared_distance(points[i], points[j]) == 4:
                edges.append((i, j))
    return tuple(edges)


def lattice_configuration(
    points: Sequence[LatticePoint], contact_tolerance: float = DEFAULT_CONTACT_TOLERANCE
) -> BallConfiguration:
    """Floating-point view of a lattice configuration."""
    centers = np.array([p.xy() for p in points])
    return BallConfiguration(2, centers, contact_tolerance)


# --- exact determinants -----------------------------------------------------


def _coerce_matrix(matrix) -> list[list[QuadraticInteger]]:
    rows = [[QuadraticInteger._coerce(x) for x in row] for row in matrix]
    m = len(rows)
    if m == 0 or any(len(row) != m for row in rows):
        raise ValueError("matrix must be square and non-empty")
    return rows


#: An element r1 + r2*sqrt(3) as a plain integer pair, for the inner loops.
Pair = tuple[int, int]
_ZERO: Pair = (0, 0)
_ONE: Pair = (1, 0)


def _cofactor_determinant(rows: list[list[QuadraticInteger]]) -> QuadraticInteger:
    """Laplace expansion along the rows on int pairs, one minor per column mask."""
    m = len(rows)
    mat = [[(x.r1, x.r2) for x in row] for row in rows]
    cache: dict[int, Pair] = {0: _ONE}

    def rec(mask: int) -> Pair:
        hit = cache.get(mask)
        if hit is not None:
            return hit
        row = mat[m - mask.bit_count()]
        t1 = t2 = 0
        negate = False
        mbits = mask
        while mbits:
            low = mbits & -mbits
            a1, a2 = row[low.bit_length() - 1]
            if a1 or a2:
                s1, s2 = rec(mask ^ low)
                if negate:
                    a1, a2 = -a1, -a2
                t1 += a1 * s1 + 3 * a2 * s2
                t2 += a1 * s2 + a2 * s1
            negate = not negate
            mbits ^= low
        cache[mask] = (t1, t2)
        return t1, t2

    return QuadraticInteger(*rec((1 << m) - 1))


def _bareiss_determinant(rows: list[list[QuadraticInteger]]) -> QuadraticInteger:
    """Fraction-free (Bareiss) elimination of a square matrix on int pairs.

    Each column's pivot is its first non-zero entry at or below the diagonal;
    a column with none makes the determinant 0.  By Sylvester's identity each
    update divides exactly by the previous pivot, and after k pivots the entry
    (i, j) below them is the minor of the row-swapped matrix on its first k
    rows plus row i and its first k columns plus column j.  The last pivot is
    thus the determinant, up to the sign of the row swaps.
    """
    mat = [[(x.r1, x.r2) for x in row] for row in rows]
    m, sign = len(mat), 1
    # previous pivot q1 + q2*sqrt(3); dividing by it is multiplying by its
    # conjugate and dividing by ``div``, its field norm (or q1 when q2 = 0)
    q1, q2, div = 1, 0, 1
    for c in range(m):
        k = c
        while k < m and mat[k][c] == _ZERO:
            k += 1
        if k == m:
            return QI_ZERO
        if k != c:
            mat[c], mat[k] = mat[k], mat[c]
            sign = -sign
        top = mat[c]
        p1, p2 = top[c]
        p2x3 = 3 * p2
        for i in range(c + 1, m):
            row = mat[i]
            l1, l2 = row[c]
            lead = l1 or l2
            l2x3 = 3 * l2
            for j in range(c + 1, m):
                a1, a2 = row[j]
                if lead:
                    b1, b2 = top[j]
                    if not (a1 or a2 or b1 or b2):
                        continue
                    x1 = p1 * a1 + p2x3 * a2 - l1 * b1 - l2x3 * b2
                    x2 = p1 * a2 + p2 * a1 - l1 * b2 - l2 * b1
                elif a1 or a2:
                    x1 = p1 * a1 + p2x3 * a2
                    x2 = p1 * a2 + p2 * a1
                else:
                    continue
                if q2:
                    x1, x2 = x1 * q1 - 3 * x2 * q2, x2 * q1 - x1 * q2
                row[j] = (x1 // div, x2 // div)
        q1, q2 = p1, p2
        div = p1 if p2 == 0 else p1 * p1 - 3 * p2 * p2
    r1, r2 = mat[-1][-1]
    return QuadraticInteger(sign * r1, sign * r2)


def exact_determinant(matrix, method: str = "auto") -> QuadraticInteger:
    """Exact determinant of a square matrix over Z[sqrt(3)].

    method "auto" uses cofactor expansion up to 10x10 and fraction-free
    elimination above; "cofactor" and "bareiss" force one path (the two
    agree exactly, which the test suite exercises).
    """
    rows = _coerce_matrix(matrix)
    if method == "auto":
        method = "cofactor" if len(rows) <= 10 else "bareiss"
    if method == "cofactor":
        return _cofactor_determinant(rows)
    if method == "bareiss":
        return _bareiss_determinant(rows)
    raise ValueError(f"unknown method {method!r}")


# --- admissible column patterns ---------------------------------------------


def classify_column(column: Sequence[QuadraticInteger]) -> str:
    """Label a column (a), (b), (c), or nonconforming.

    (a): exactly one non-zero entry, equal to 1.
    (b): exactly two non-zero entries, one 2 and one -2.
    (c): exactly four non-zero entries, two with absolute value 1 and two
    with absolute value sqrt(3).
    """
    nonzero = [QuadraticInteger._coerce(x) for x in column if QuadraticInteger._coerce(x)]
    if len(nonzero) == 1 and nonzero[0] == QI_ONE:
        return "a"
    if len(nonzero) == 2:
        values = sorted((v.r1, v.r2) for v in nonzero)
        if values == [(-2, 0), (2, 0)]:
            return "b"
    if len(nonzero) == 4:
        units = sum(1 for v in nonzero if abs(v) == QI_ONE)
        roots = sum(1 for v in nonzero if abs(v) == SQRT3)
        if units == 2 and roots == 2:
            return "c"
    return "nonconforming"


def check_column_conditions(matrix) -> list[str]:
    """Per-column labels for the admissible pattern classification."""
    rows = _coerce_matrix(matrix)
    m = len(rows)
    return [classify_column([rows[i][j] for i in range(m)]) for j in range(m)]


@dataclass(frozen=True)
class DetBoundReport:
    """Exact determinant of a conforming matrix and its coefficient bounds."""

    m: int
    determinant: QuadraticInteger
    r1_bound: int
    r1_ok: bool
    r2_ok: bool
    det_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.r1_ok and self.r2_ok and self.det_ok


def verify_det_bound(matrix) -> DetBoundReport:
    """Check |r1| <= 4^m, |r2| <= 4^m/sqrt(3), |det| <= 2*4^m exactly.

    All columns must conform to one of the admissible patterns, otherwise
    :class:`NonconformingColumnError` is raised.
    """
    rows = _coerce_matrix(matrix)
    labels = check_column_conditions(rows)
    for j, label in enumerate(labels):
        if label == "nonconforming":
            raise NonconformingColumnError(j)
    m = len(rows)
    det = exact_determinant(rows)
    limit = 4**m
    r1_ok = abs(det.r1) <= limit
    # |r2| <= 4^m / sqrt(3)  <=>  3 r2^2 <= 4^{2m}
    r2_ok = 3 * det.r2 * det.r2 <= limit * limit
    cap = QuadraticInteger(2 * limit, 0)
    det_ok = (cap - det).sign() >= 0 and (cap + det).sign() >= 0
    return DetBoundReport(m, det, limit, r1_ok, r2_ok, det_ok)


# --- continued fraction machinery for sqrt(3) --------------------------------


@dataclass(frozen=True)
class ConvergentPair:
    """Numerator/denominator pair h_k/g_k of the sqrt(3) continued fraction."""

    index: int
    h: int
    g: int


def _convergents():
    """Numerators and denominators (h_k, g_k), k = 0, 1, ..., of the
    continued fraction sqrt(3) = [1; 1, 2, 1, 2, ...]."""
    h_prev, h, g_prev, g = 1, 1, 0, 1
    for k in itertools.count(1):
        yield h, g
        digit = 1 if k % 2 else 2
        h_prev, h, g_prev, g = h, digit * h + h_prev, g, digit * g + g_prev


def sqrt3_convergents(k_max: int) -> list[ConvergentPair]:
    """Convergents h_k/g_k for k = 0..k_max from the standard recurrences."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return [ConvergentPair(k, h, g) for k, (h, g) in zip(range(k_max + 1), _convergents())]


def quadratic_lower_bound(r2_bound: float) -> float:
    """Certified lower bound on |r1 + r2*sqrt(3)| for integers with 1 <= |r2| <= r2_bound.

    Brackets the range by convergent denominators: with k the smallest index
    such that g_k >= r2_bound, every admissible pair satisfies
    |r1 + r2*sqrt(3)| > 1/(6 g_{k+1}).  Pairs with r2 = 0 are excluded; for
    those |r1| >= 1 holds trivially.
    """
    if not 1 <= r2_bound < math.inf:
        raise ValueError(f"r2_bound must be finite and >= 1, got {r2_bound}")
    denominators = (g for _, g in _convergents())
    for g in denominators:
        if g >= r2_bound:
            return 1.0 / (6.0 * next(denominators))


def lattice_alpha_lower_bound_log2(n: int) -> float:
    """log2 of the certified rigidity-index floor for n lattice discs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 0.5 * math.log2(3.0) - math.log2(432.0) - 8.0 * n - 0.5 * math.log2(n)


def lattice_alpha_lower_bound(n: int) -> float:
    """(sqrt(3)/432) * 4^{-4n} / sqrt(n); underflows to 0.0 for very large n."""
    return 2.0 ** lattice_alpha_lower_bound_log2(n)


# --- exact rigidity certificate ----------------------------------------------


def _edge_offset(points: Sequence[LatticePoint], edge: Edge) -> tuple[int, int]:
    """(da, db) with x_i - x_j = (da, db*sqrt(3)) for a touching canonical pair."""
    i, j = edge
    da, db = points[i].a - points[j].a, points[i].b - points[j].b
    if da * da + 3 * db * db != 4:
        raise NotTouchingError(i, j, math.sqrt(da * da + 3 * db * db))
    return da, db


def _gram_matrix(points: Sequence[LatticePoint], edges: Sequence[Edge]) -> list[list[int]]:
    """Gram matrix of the integer-scaled collision vectors of canonical edges.

    The vector of (i, j) holds x_i - x_j = (da, db*sqrt(3)) in block i and
    its negative in block j, so two edges that share a ball have the product
    +-(da*da' + 3*db*db'), a touching edge has 8 on the diagonal, and edges
    on disjoint balls are orthogonal: every entry is an integer.
    """
    offsets = [_edge_offset(points, e) for e in edges]
    gram = [[0] * len(edges) for _ in edges]
    incident: dict[int, list[tuple[int, int]]] = {}
    for r, (i, j) in enumerate(edges):
        gram[r][r] = 8
        incident.setdefault(i, []).append((r, 1))
        incident.setdefault(j, []).append((r, -1))
    for at_ball in incident.values():
        for (r, s), (t, u) in itertools.combinations(at_ball, 2):
            (da, db), (ea, eb) = offsets[r], offsets[t]
            gram[r][t] = gram[t][r] = s * u * (da * ea + 3 * db * eb)
    return gram


def _gram_elimination(gram: list[list[int]]) -> tuple[list[int], int, int]:
    """Symmetric fraction-free (Bareiss) elimination of an integer Gram matrix, in place.

    Index c becomes a pivot when its diagonal entry is non-zero.  After
    pivots S the entry (i, j) is the minor det G(S + i, S + j) (Sylvester's
    identity), so each update of the upper triangle divides exactly by the
    previous pivot det G(S), and the diagonal entry det G(S + c) vanishes
    exactly when vector c lies in the span of S: the pivots form the greedy
    basis.  Returns the pivots S before the last index, det G(S + last) and
    det G(S) (1 for no pivot).
    """
    size = len(gram)
    pivots: list[int] = []
    prev = 1
    for c in range(size - 1):
        top = gram[c]
        pivot = top[c]
        if not pivot:
            continue
        for i in range(c + 1, size):
            row, lead = gram[i], top[i]
            for j in range(i, size):
                row[j] = (pivot * row[j] - lead * top[j]) // prev
        pivots.append(c)
        prev = pivot
    return pivots, gram[-1][-1], prev


def _sqrt_ratio_down(num: int, den: int) -> float:
    """The largest float not above sqrt(num / den), for num >= 0 < den."""
    # scale so that the integer square root has at least 54 bits, then keep
    # its leading 53: flooring twice is flooring once, so nothing rounds up
    scale = max(0, 55 - (num.bit_length() - den.bit_length()) // 2)
    root = math.isqrt((num << 2 * scale) // den)
    drop = max(0, root.bit_length() - 53)
    return math.ldexp(float(root >> drop), drop - scale)


@dataclass(frozen=True)
class CertificateData:
    """r1 = det G(B + e) and r2 = det G(B) for the chosen edge e and the
    greedy basis B (``basis_edges``) of the others: alpha_star^2 = r1 / (8 r2)."""

    r1: int
    r2: int
    basis_edges: tuple[Edge, ...]

    @property
    def exact_zero(self) -> bool:
        """Whether the chosen direction lies in the span of the others."""
        return self.r1 == 0


def exact_alpha_certificate(
    points: Sequence[LatticePoint],
    edge_set: Iterable[Edge],
    edge: Edge,
) -> tuple[float, CertificateData]:
    """Exact alpha_star of a lattice configuration, as a certified float.

    alpha_star of the chosen edge e is the distance from z_e / sqrt(8), z_e
    its integer-scaled collision vector (|z_e|^2 = 8), to the span of the
    greedy basis B of the other edges' vectors, so by the Gram determinant
    formula alpha_star^2 = det G(B + e) / (8 det G(B)) = r1 / (8 r2), read
    off one fraction-free elimination of the integer Gram matrix of the other
    edges followed by e.  The float returned is the largest one not above
    sqrt(r1 / (8 r2)): exactly 0.0 when e lies in the span of the others,
    exactly 1.0 when that span is trivial (r1 = 8, r2 = 1).

    A positive certificate obeys alpha_star >= 8^{-(|B|+1)/2}: r1 is then a
    positive integer, so r1 >= 1, and Hadamard's inequality for the positive
    definite G(B), whose diagonal entries are 8, gives r2 <= 8^{|B|}; hence
    alpha_star^2 >= 1 / (8 * 8^{|B|}).  This floor follows from integrality
    alone and is not the lattice floor of :func:`lattice_alpha_lower_bound`.
    """
    chosen, others = split_chosen_edge(len(points), edge_set, edge)
    pivots, r1, r2 = _gram_elimination(_gram_matrix(points, others + [chosen]))
    basis_edges = tuple(others[c] for c in pivots)
    return _sqrt_ratio_down(r1, 8 * r2), CertificateData(r1, r2, basis_edges)
