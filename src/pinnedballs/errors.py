"""Exception types shared across the package.

User-facing messages print 1-based ball indices (matching configuration
files); exception attributes carry the 0-based indices used by the API.
"""

from __future__ import annotations


class PinnedBallsError(Exception):
    """Base class for all domain errors raised by this package."""


class OverlapError(PinnedBallsError):
    """Two ball interiors intersect."""

    def __init__(self, i: int, j: int, distance: float):
        self.i = i
        self.j = j
        self.distance = distance
        super().__init__(
            f"balls {i + 1} and {j + 1} overlap: center distance "
            f"{distance:.12g} is below 2"
        )


class NotTouchingError(PinnedBallsError):
    """A pair of balls required to touch is not at center distance 2."""

    def __init__(self, i: int, j: int, distance: float):
        self.i = i
        self.j = j
        self.distance = distance
        super().__init__(
            f"balls {i + 1} and {j + 1} do not touch: center distance {distance:.12g}"
        )


class ZeroEnergyError(PinnedBallsError):
    """All pseudo-velocities vanish after removing total momentum."""


class DisconnectedError(PinnedBallsError):
    """The full contact graph is not connected."""


class NotNormalizedError(PinnedBallsError):
    """The system does not satisfy the centered/unit-energy normalization."""


class ScheduleError(PinnedBallsError):
    """A schedule references an edge that is not in the governing graph."""


class NoInteriorWitnessError(PinnedBallsError):
    """The supplied interior witness point has non-positive margin."""

    def __init__(self, margin: float):
        self.margin = margin
        super().__init__(f"witness margin {margin:.6g} is not strictly positive")


class TooManyEdgesError(PinnedBallsError):
    """The contact graph exceeds the exhaustive-enumeration guard."""

    def __init__(self, count: int, limit: int):
        self.count = count
        self.limit = limit
        super().__init__(f"{count} edges exceed the enumeration guard of {limit}")


class AllZeroError(PinnedBallsError):
    """No strictly positive rigidity values exist among the candidates."""


class DependentEdgesError(PinnedBallsError):
    """Collision directions of the chosen edge subset are linearly dependent."""


class NonconformingColumnError(PinnedBallsError):
    """A matrix column fits none of the admissible column patterns."""

    def __init__(self, column: int, detail: str = ""):
        self.column = column
        msg = f"column {column} does not conform"
        super().__init__(msg + (f": {detail}" if detail else ""))


class InvalidAlphaError(PinnedBallsError):
    """A rigidity index outside (0, 1] was supplied to a bound."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        super().__init__(f"alpha must lie in (0, 1], got {alpha!r}")


class TooFewBallsError(PinnedBallsError):
    """The requested reference value is defined only for larger systems."""

    def __init__(self, n: int, minimum: int):
        self.n = n
        self.minimum = minimum
        super().__init__(f"need at least {minimum} balls, got {n}")


class BudgetExceededError(PinnedBallsError):
    """A search, a folding orbit or an ``alpha`` computation ran out of its budget.

    Carries the best result so far as ``best``: the search's best result,
    the partial orbit (with ``stabilization_index`` None), or None from
    ``alpha``.
    """

    def __init__(self, message: str, best):
        self.best = best
        super().__init__(message)
