"""Exact arithmetic over Z[sqrt(3)] and triangular-lattice configurations.

Centers on the triangular lattice have coordinates (a, b*sqrt(3)) with
integers a, b of equal parity, so every collision vector of a lattice
configuration has entries in the ring Z[sqrt(3)].  Determinants of matrices
with such entries stay in the ring and obey explicit coefficient bounds,
which combine with continued-fraction lower bounds on |r1 + r2*sqrt(3)| to
certify exact positive lower bounds on the rigidity index of any lattice
configuration.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import mpmath
import numpy as np

from .errors import NonconformingColumnError, NotTouchingError
from .geometry import BallConfiguration, Edge, canonical_edge
from .rigidity import extend_basis

HIGH_PRECISION_BITS = 200


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

    def conjugate(self) -> "QuadraticInteger":
        return QuadraticInteger(self.r1, -self.r2)

    def field_norm(self) -> int:
        """r1^2 - 3 r2^2; zero only for the zero element."""
        return self.r1 * self.r1 - 3 * self.r2 * self.r2

    def exact_div(self, other) -> "QuadraticInteger":
        """Exact ring division; raises when the quotient is not in the ring."""
        o = self._coerce(other)
        if not o:
            raise ZeroDivisionError("division by zero in Z[sqrt(3)]")
        num = self * o.conjugate()
        den = o.field_norm()
        q1, rem1 = divmod(num.r1, den)
        q2, rem2 = divmod(num.r2, den)
        if rem1 or rem2:
            raise ValueError(f"{self} is not divisible by {o} in Z[sqrt(3)]")
        return QuadraticInteger(q1, q2)

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

    def to_mpf(self) -> mpmath.mpf:
        return mpmath.mpf(self.r1) + mpmath.mpf(self.r2) * mpmath.sqrt(3)

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

    def coords(self) -> tuple[QuadraticInteger, QuadraticInteger]:
        return QuadraticInteger(self.a, 0), QuadraticInteger(0, self.b)


def is_lattice_point(a: int, b: int) -> bool:
    """Whether (a, b*sqrt(3)) belongs to the triangular lattice."""
    return (a - b) % 2 == 0


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
    points: Sequence[LatticePoint], contact_tolerance: float = 1e-9
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


def _echelon(mat: list[list[Pair]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon form of an int-pair matrix, in place.

    Columns are scanned left to right and each pivot is the first non-zero
    entry at or below the current row, so the pivot columns are the greedy
    (leftmost) basis of the column space.  By Sylvester's identity each update
    divides exactly by the previous pivot, and after k pivots the entry (i, j)
    below them is the minor of the row-swapped matrix on the pivot rows plus
    row i and the pivot columns plus column j.  A square matrix of full rank
    thus ends with its determinant in the last pivot, up to the sign of the
    row swaps.  Returns the pivot columns and that sign; stops once every row
    holds a pivot.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    # previous pivot q1 + q2*sqrt(3); dividing by it is multiplying by its
    # conjugate and dividing by ``div``, its field norm (or q1 when q2 = 0)
    q1, q2, div = 1, 0, 1
    for c in range(cols):
        r = len(pivots)
        k = r
        while k < rows and mat[k][c] == _ZERO:
            k += 1
        if k == rows:
            continue
        if k != r:
            mat[r], mat[k] = mat[k], mat[r]
            sign = -sign
        top = mat[r]
        p1, p2 = top[c]
        p2x3 = 3 * p2
        for i in range(r + 1, rows):
            row = mat[i]
            l1, l2 = row[c]
            row[c] = _ZERO
            lead = l1 or l2
            l2x3 = 3 * l2
            for j in range(c + 1, cols):
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
        pivots.append(c)
        if r + 1 == rows:
            break
    return pivots, sign


def _bareiss_determinant(rows: list[list[QuadraticInteger]]) -> QuadraticInteger:
    mat = [[(x.r1, x.r2) for x in row] for row in rows]
    pivots, sign = _echelon(mat)
    if len(pivots) < len(mat):
        return QI_ZERO
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


def exact_rank(vectors: Sequence[Sequence[QuadraticInteger]]) -> int:
    """Rank of a family of Z[sqrt(3)] vectors via fraction-free elimination."""
    mat = [[(q.r1, q.r2) for q in map(QuadraticInteger._coerce, v)] for v in vectors]
    return len(_echelon(mat)[0])


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


def _cf_digit(k: int) -> int:
    # digits of sqrt(3): 1, then alternating 1, 2
    if k == 0:
        return 1
    return 1 if k % 2 == 1 else 2


def sqrt3_convergents(k_max: int) -> list[ConvergentPair]:
    """Convergents h_k/g_k for k = 0..k_max from the standard recurrences."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    h_prev2, h_prev1 = 0, 1
    g_prev2, g_prev1 = 1, 0
    out = []
    for k in range(k_max + 1):
        a = _cf_digit(k)
        h = a * h_prev1 + h_prev2
        g = a * g_prev1 + g_prev2
        out.append(ConvergentPair(k, h, g))
        h_prev2, h_prev1 = h_prev1, h
        g_prev2, g_prev1 = g_prev1, g
    return out


def quadratic_lower_bound(r2_bound: float) -> float:
    """Certified lower bound on |r1 + r2*sqrt(3)| for integers with 1 <= |r2| <= r2_bound.

    Brackets the range by convergent denominators: with k the smallest index
    such that g_k >= r2_bound, every admissible pair satisfies
    |r1 + r2*sqrt(3)| > 1/(6 g_{k+1}).  Pairs with r2 = 0 are excluded; for
    those |r1| >= 1 holds trivially.
    """
    if r2_bound < 1:
        raise ValueError("r2_bound must be >= 1")
    h_prev2, h_prev1 = 0, 1
    g_prev2, g_prev1 = 1, 0
    k = 0
    g_k = None
    while True:
        a = _cf_digit(k)
        h = a * h_prev1 + h_prev2
        g = a * g_prev1 + g_prev2
        h_prev2, h_prev1 = h_prev1, h
        g_prev2, g_prev1 = g_prev1, g
        if g_k is None and g >= r2_bound:
            g_k = g
        elif g_k is not None:
            g_next = g
            break
        k += 1
    return 1.0 / (6.0 * g_next)


def quadratic_lower_bound_closed_form(n: int) -> float:
    """Closed form sqrt(3)/(54*4^{2n}), the bound for r2 ranges up to 4^{2n}/sqrt(3)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(3.0) / (54.0 * 4.0 ** (2 * n))


def lattice_alpha_lower_bound_log2(n: int) -> float:
    """log2 of the certified rigidity-index floor for n lattice discs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 0.5 * math.log2(3.0) - math.log2(432.0) - 8.0 * n - 0.5 * math.log2(n)


def lattice_alpha_lower_bound(n: int) -> float:
    """(sqrt(3)/432) * 4^{-4n} / sqrt(n); underflows to 0.0 for very large n."""
    return 2.0 ** lattice_alpha_lower_bound_log2(n)


# --- exact rigidity certificate ----------------------------------------------


def _collision_pairs(points: Sequence[LatticePoint], edge: Edge) -> list[Pair]:
    i, j = canonical_edge(*edge)
    if squared_distance(points[i], points[j]) != 4:
        raise NotTouchingError(
            i, j, math.sqrt(squared_distance(points[i], points[j]))
        )
    vec = [_ZERO] * (2 * len(points))
    da = points[i].a - points[j].a
    db = points[i].b - points[j].b
    vec[2 * i] = (da, 0)
    vec[2 * i + 1] = (0, db)
    vec[2 * j] = (-da, 0)
    vec[2 * j + 1] = (0, -db)
    return vec


def exact_collision_vector(
    points: Sequence[LatticePoint], edge: Edge
) -> list[QuadraticInteger]:
    """Unnormalized collision vector of a touching lattice pair, over Z[sqrt(3)]."""
    return [QuadraticInteger(r1, r2) for r1, r2 in _collision_pairs(points, edge)]


@dataclass(frozen=True, eq=False)
class CertificateData:
    """Exact normal-vector data backing a rigidity lower bound."""

    r1: int
    r2: int
    normal: tuple[QuadraticInteger, ...]
    norm_squared: QuadraticInteger
    basis_edges: tuple[Edge, ...]
    basis_indices: tuple[int, ...]
    exact_zero: bool


def exact_alpha_certificate(
    points: Sequence[LatticePoint],
    edge_set: Iterable[Edge],
    edge: Edge,
) -> tuple[float, CertificateData]:
    """Certified lower bound on alpha_star for a lattice configuration.

    Works with the integer-scaled collision vectors so that all arithmetic
    stays in Z[sqrt(3)]; the 2^{-3/2} normalization is applied once at the
    end.  The bound is the distance from the chosen direction w to a
    hyperplane containing the span of the others.  One fraction-free echelon
    of the 2n x (k+1) matrix [z_f for the k other edges, in order | w] picks
    the basis B: its pivot columns are the greedy maximal independent subset
    of the others, and w lies in their span exactly when its column is not a
    pivot.  :func:`extend_basis` completes B with standard basis vectors e_q
    to dimension 2n - 1, and the hyperplane normal c has the cofactors
    c_i = det([e_i | B | e_q for the picks q]).  These vanish on the picks;
    on the p + 1 rows R outside them they are, up to one common sign, the
    p x p minors of B restricted to R, all read off one elimination of
    [B_R | I].  The certificate is |w . c| / |c|.  Returns exactly 0.0 when
    w already lies in the span (or, defensively, when w . c vanishes), and
    exactly 1.0 when the span is trivial.
    """
    n = len(points)
    if n < 1:
        raise ValueError("need at least one point")
    m = 2 * n
    chosen = canonical_edge(*edge)
    edges = sorted({canonical_edge(*e) for e in edge_set})
    if chosen not in edges:
        raise ValueError(f"edge {chosen} is not in the edge set")
    others = [e for e in edges if e != chosen]

    w = _collision_pairs(points, chosen)
    vectors = [_collision_pairs(points, e) for e in others]

    if not vectors:
        # trivial span: the certificate is the length of the unit direction
        norm_sq = QuadraticInteger(8, 0)
        normal = tuple(QuadraticInteger(r1, r2) for r1, r2 in w)
        return 1.0, CertificateData(8, 0, normal, norm_sq, (), (), False)

    k = len(vectors)
    columns = vectors + [w]
    pivots, _ = _echelon([[col[r] for col in columns] for r in range(m)])
    basis = [vectors[c] for c in pivots if c < k]
    basis_edges = tuple(others[c] for c in pivots if c < k)
    p = len(basis)

    if pivots[-1] != k:
        data = CertificateData(0, 0, (QI_ZERO,) * m, QI_ZERO, basis_edges, (), True)
        return 0.0, data

    root3 = math.sqrt(3.0)
    float_basis = [np.array([r1 + r2 * root3 for r1, r2 in v]) for v in basis]
    float_w = np.array([r1 + r2 * root3 for r1, r2 in w])
    picks = extend_basis(float_basis, float_w, m)

    # Move the rows R outside the picks to the top, keeping both groups in
    # order: [e_i | B | e_picks] becomes block triangular with an identity in
    # the pick corner, so c_{R[a]} = s det([e_a | B_R]), s the sign of that
    # row permutation.  Row p of the echelon of [B_R | I] holds, in column
    # p + a, t det([B_R | e_a]) = t (-1)^p det([e_a | B_R]), t the sign of
    # the echelon's row swaps.
    pick_set = set(picks)
    outside = [r for r in range(m) if r not in pick_set]
    inversions = sum(1 for q in picks for r in outside if r > q)
    aug = [
        [v[r] for v in basis] + [_ONE if a == b else _ZERO for b in range(p + 1)]
        for a, r in enumerate(outside)
    ]
    minor_pivots, swaps = _echelon(aug)
    if minor_pivots[:p] == list(range(p)):
        factor = swaps * (-1) ** (inversions + p)
        minors = [(factor * r1, factor * r2) for r1, r2 in aug[p][p:]]
    else:
        # B_R has rank below p, so every minor vanishes
        minors = [_ZERO] * (p + 1)
    normal_pairs = [_ZERO] * m
    num1 = num2 = 0
    for r, (c1, c2) in zip(outside, minors):
        normal_pairs[r] = (c1, c2)
        w1, w2 = w[r]
        num1 += w1 * c1 + 3 * w2 * c2
        num2 += w1 * c2 + w2 * c1
    normal = tuple(QuadraticInteger(r1, r2) for r1, r2 in normal_pairs)
    if not (num1 or num2):
        data = CertificateData(
            0, 0, normal, QI_ZERO, basis_edges, tuple(picks), True
        )
        return 0.0, data
    num = QuadraticInteger(num1, num2)

    sq1 = sq2 = 0
    for c1, c2 in minors:
        sq1 += c1 * c1 + 3 * c2 * c2
        sq2 += 2 * c1 * c2
    norm_sq = QuadraticInteger(sq1, sq2)

    with mpmath.workprec(HIGH_PRECISION_BITS):
        value = abs(num.to_mpf()) / (
            mpmath.mpf(2) ** mpmath.mpf("1.5") * mpmath.sqrt(norm_sq.to_mpf())
        )
        bound = float(value)
    data = CertificateData(
        num.r1, num.r2, normal, norm_sq, basis_edges, tuple(picks), False
    )
    return bound, data
