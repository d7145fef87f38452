"""Folding orbits pinned to recorded values, and checked against a numpy loop.

The expected (size, steps, stabilization_index) tuples were recorded with
``orbit`` as it stood before it ran on lists of floats, when every fold,
margin and point key went through numpy arrays.  The orbit must reproduce
them exactly: the counts depend on every fold decision, on the stop test and
on the 1e-12 point key.  The property suite compares the orbit with that
numpy loop, kept here as the reference: equal counts, points within 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinnedballs.errors import BudgetExceededError
from pinnedballs.foldings import (
    STABILITY_MARGIN,
    FoldingSchedule,
    HalfSpace,
    adversarial_two_halfplanes,
    orbit,
)


def _family(seed):
    """Random start, 1..6 half-spaces of R^1..R^5 and an interior witness."""
    rng = np.random.default_rng(seed)
    d, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
    witness = rng.standard_normal(d)
    witness /= np.linalg.norm(witness)
    normals = []
    while len(normals) < m:
        h = rng.standard_normal(d)
        h /= np.linalg.norm(h)
        if h @ witness < 0:
            h = -h
        if h @ witness > 1e-3:
            normals.append(HalfSpace(h))
    return rng.standard_normal(d) * 3.0, normals, witness


def _policies(seed, m):
    return (
        FoldingSchedule.round_robin(),
        FoldingSchedule.seeded_random(seed),
        FoldingSchedule.periodic(tuple(reversed(range(m)))),
    )


#: m -> (size, steps, stabilization_index) for m = 1..120, in order.
EXPECTED_ADVERSARIAL = (
    (2, 2, 2), (4, 4, 4), (6, 6, 6), (8, 8, 8), (10, 10, 10),
    (12, 12, 12), (14, 14, 14), (16, 16, 16), (18, 18, 18), (20, 20, 20),
    (22, 22, 22), (24, 24, 24), (26, 26, 26), (28, 28, 28), (30, 30, 30),
    (32, 32, 32), (34, 34, 34), (36, 36, 36), (38, 38, 38), (40, 40, 40),
    (42, 42, 42), (44, 44, 44), (46, 46, 46), (48, 48, 48), (50, 50, 50),
    (52, 52, 52), (54, 54, 54), (56, 56, 56), (58, 58, 58), (60, 60, 60),
    (62, 62, 62), (64, 64, 64), (66, 66, 66), (68, 68, 68), (70, 70, 70),
    (72, 72, 72), (74, 74, 74), (76, 76, 76), (78, 78, 78), (80, 80, 80),
    (82, 82, 82), (84, 84, 84), (86, 86, 86), (88, 88, 88), (90, 90, 90),
    (92, 92, 92), (94, 94, 94), (96, 96, 96), (98, 98, 98), (100, 100, 100),
    (102, 102, 102), (104, 104, 104), (106, 106, 106), (108, 108, 108), (110, 110, 110),
    (112, 112, 112), (114, 114, 114), (116, 116, 116), (118, 118, 118), (120, 120, 120),
    (122, 122, 122), (124, 124, 124), (126, 126, 126), (128, 128, 128), (130, 130, 130),
    (132, 132, 132), (134, 134, 134), (136, 136, 136), (138, 138, 138), (140, 140, 140),
    (142, 142, 142), (144, 144, 144), (146, 146, 146), (148, 148, 148), (150, 150, 150),
    (152, 152, 152), (154, 154, 154), (156, 156, 156), (158, 158, 158), (160, 160, 160),
    (162, 162, 162), (164, 164, 164), (166, 166, 166), (168, 168, 168), (170, 170, 170),
    (172, 172, 172), (174, 174, 174), (176, 176, 176), (178, 178, 178), (180, 180, 180),
    (182, 182, 182), (184, 184, 184), (186, 186, 186), (188, 188, 188), (190, 190, 190),
    (192, 192, 192), (194, 194, 194), (196, 196, 196), (198, 198, 198), (200, 200, 200),
    (202, 202, 202), (204, 204, 204), (206, 206, 206), (208, 208, 208), (210, 210, 210),
    (212, 212, 212), (214, 214, 214), (216, 216, 216), (218, 218, 218), (220, 220, 220),
    (222, 222, 222), (224, 224, 224), (226, 226, 226), (228, 228, 228), (230, 230, 230),
    (232, 232, 232), (234, 234, 234), (236, 236, 236), (238, 238, 238), (240, 240, 240),
)

#: seed -> {policy: (size, steps, stabilization_index)}
EXPECTED_RANDOM = {
    0: ((4, 3, 3), (3, 4, 4), (3, 3, 3)),
    1: ((2, 2, 2), (2, 1, 1), (2, 3, 3)),
    2: ((3, 2, 2), (2, 1, 1), (2, 1, 1)),
    3: ((2, 1, 1), (2, 1, 1), (2, 1, 1)),
    4: ((3, 6, 6), (3, 4, 4), (3, 3, 3)),
    5: ((2, 2, 2), (6, 10, 10), (5, 5, 5)),
    6: ((4, 5, 5), (4, 11, 11), (5, 5, 5)),
    7: ((4, 5, 5), (4, 14, 14), (3, 4, 4)),
    8: ((3, 2, 2), (3, 2, 2), (3, 2, 2)),
    9: ((6, 10, 10), (4, 11, 11), (5, 4, 4)),
    10: ((3, 6, 6), (2, 1, 1), (2, 1, 1)),
    11: ((2, 1, 1), (2, 1, 1), (2, 1, 1)),
    12: ((1, 0, 0), (1, 0, 0), (1, 0, 0)),
    13: ((3, 4, 4), (4, 13, 13), (5, 6, 6)),
    14: ((2, 1, 1), (2, 1, 1), (2, 1, 1)),
    15: ((3, 3, 3), (3, 8, 8), (3, 5, 5)),
    16: ((3, 2, 2), (4, 6, 6), (3, 2, 2)),
    17: ((4, 5, 5), (3, 6, 6), (3, 3, 3)),
    18: ((5, 6, 6), (4, 4, 4), (4, 4, 4)),
    19: ((3, 4, 4), (3, 6, 6), (3, 3, 3)),
    20: ((2, 2, 2), (2, 1, 1), (2, 1, 1)),
    21: ((6, 9, 9), (11, 28, 28), (6, 9, 9)),
    22: ((3, 2, 2), (3, 8, 8), (3, 5, 5)),
    23: ((1, 0, 0), (1, 0, 0), (1, 0, 0)),
    24: ((3, 2, 2), (3, 3, 3), (2, 1, 1)),
    25: ((2, 1, 1), (2, 1, 1), (2, 1, 1)),
    26: ((1, 0, 0), (1, 0, 0), (1, 0, 0)),
    27: ((1, 0, 0), (1, 0, 0), (1, 0, 0)),
    28: ((8, 14, 14), (10, 33, 33), (8, 14, 14)),
    29: ((1, 0, 0), (1, 0, 0), (1, 0, 0)),
}


def _counts(result):
    return (result.size, result.steps, result.stabilization_index)


@pytest.mark.parametrize("m", range(1, 121))
def test_adversarial_orbits(m):
    halfspaces, start, schedule = adversarial_two_halfplanes(m)
    witness = halfspaces[0].normal + halfspaces[1].normal
    witness /= np.linalg.norm(witness)
    result = orbit(start, halfspaces, schedule, witness=witness)
    assert _counts(result) == EXPECTED_ADVERSARIAL[m - 1]


@pytest.mark.parametrize("seed", range(30))
def test_random_families(seed):
    start, halfspaces, witness = _family(seed)
    got = tuple(
        _counts(orbit(start, halfspaces, schedule, witness=witness))
        for schedule in _policies(seed, len(halfspaces))
    )
    assert got == EXPECTED_RANDOM[seed]


def _numpy_orbit(start, halfspaces, schedule, budget):
    """The orbit loop on numpy arrays: margins are BLAS dot products, a fold is
    v - 2 m h, and the point key is ``np.round(v, 12).tobytes()``.  Returns
    (points, steps, stabilization_index), the index None when the budget ran out."""

    def fold(v, h):
        m = float(v @ h.normal)
        return v if m >= 0.0 else v - 2.0 * m * h.normal

    def key(v):
        return np.round(v, 12).tobytes()

    order = schedule.indices(len(halfspaces))
    recurring = [halfspaces[i] for i in schedule.recurring_indices(len(halfspaces))]

    def stable(v):
        return all(float(v @ h.normal) >= STABILITY_MARGIN for h in recurring)

    v = np.array(start, dtype=float)
    points, seen = [v], {key(v)}
    if stable(v):
        return np.array(points), 0, 0
    steps = 0
    for idx in order:
        v = fold(v, halfspaces[idx])
        steps += 1
        if key(v) not in seen:
            seen.add(key(v))
            points.append(v)
        if stable(v):
            return np.array(points), steps, steps
        if steps >= budget:
            return np.array(points), steps, None


#: A component: often an exact zero of either sign, else a float of either sign.
_component = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
)


class TestAgainstNumpyLoop:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data(), d=st.integers(1, 4), m=st.integers(1, 5))
    def test_counts_equal_and_points_close(self, data, d, m):
        witness = np.array(data.draw(st.lists(_component, min_size=d, max_size=d)))
        norm = np.linalg.norm(witness)
        if norm < 1e-3:
            witness, norm = np.ones(d), np.sqrt(d)
        witness /= norm
        halfspaces = []
        for _ in range(m):
            h = np.array(data.draw(st.lists(_component, min_size=d, max_size=d)))
            if np.linalg.norm(h) < 1e-3:
                h = witness.copy()
            h = HalfSpace.from_vector(h)
            margin = float(h.normal @ witness)
            # keep the cone's opening off the boundary, so orbits stay short
            if abs(margin) < 0.05:
                h = HalfSpace.from_vector(h.normal + witness)
            elif margin < 0.0:
                h = HalfSpace(-h.normal)
            halfspaces.append(h)
        start = data.draw(st.lists(_component, min_size=d, max_size=d))
        schedule = data.draw(
            st.one_of(
                st.just(FoldingSchedule.round_robin()),
                st.integers(0, 2**32 - 1).map(FoldingSchedule.seeded_random),
                st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m).map(
                    FoldingSchedule.periodic
                ),
            )
        )
        budget = 5000
        points, steps, index = _numpy_orbit(start, halfspaces, schedule, budget)
        try:
            result = orbit(start, halfspaces, schedule, budget, witness=witness)
        except BudgetExceededError as exc:
            result = exc.best
        assert _counts(result) == (points.shape[0], steps, index)
        np.testing.assert_allclose(result.points, points, rtol=0.0, atol=1e-12)
