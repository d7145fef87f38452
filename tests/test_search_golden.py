"""Exhaustive search outcomes pinned to recorded values.

The expected (collisions, nodes explored, truncated, witness) tuples were
recorded with the search as it stood before its nodes were expanded on
plain floats, when states were numpy arrays and the exchange went through
numpy dot products.  The search, which always memoizes, must reproduce the
values with memo exactly: the depth-first order, the node count, truncation
and the witness all depend on the exchange arithmetic and on the memo key.
The values without memo are reproduced by the oracle search of
``test_search._unmemoized``.
"""

import numpy as np
import pytest

from pinnedballs import configs
from pinnedballs.errors import BudgetExceededError
from pinnedballs.geometry import full_contact_graph, normalize_system
from pinnedballs.search import exhaustive_max_collisions, sample_unit_state
from test_search import _unmemoized

DESK = {
    "chain4": lambda: configs.collinear_chain(4, 2),
    "triangle": configs.triangle,
    "square": configs.square,
    "rhombus": configs.rhombus,
}


def _cases():
    """The four desk families with one sampled state each, then the first 20
    random mixed configurations (4..8 balls, d = 2 or 3) with 5..10 contacts."""
    rng = np.random.default_rng(2026)
    cases = {}
    for name, make in DESK.items():
        base = make()
        state = sample_unit_state(base.n, base.dimension, rng)
        cases[name] = normalize_system(base, state)
    while len(cases) < 24:
        n, d = int(rng.integers(4, 9)), int(rng.integers(2, 4))
        config = configs.random_contact_configuration(n, d, rng, style="mixed")
        system = normalize_system(config, sample_unit_state(n, d, rng))
        if 5 <= len(full_contact_graph(system[0]).edges) <= 10:
            cases[f"random{len(cases) - 4}"] = system
    return cases


CASES = _cases()

#: name -> (with memo, without memo), each (collisions, nodes, truncated, witness)
#: under depth_cap=20, max_branch_edges=10, max_nodes=150.
EXPECTED = {
    "chain4": (
        (2, 5, False, ((0, 1), (2, 3))),
        (2, 5, False, ((0, 1), (2, 3))),
    ),
    "triangle": (
        (1, 2, False, ((1, 2),)),
        (1, 2, False, ((1, 2),)),
    ),
    "square": (
        (3, 13, False, ((0, 1), (0, 2), (2, 3))),
        (3, 16, False, ((0, 1), (0, 2), (2, 3))),
    ),
    "rhombus": (
        (1, 2, False, ((0, 3),)),
        (1, 2, False, ((0, 3),)),
    ),
    "random0": (
        (11, 163, True, (
            (0, 1), (1, 2), (1, 3), (0, 1), (1, 4), (1, 2), (1, 3), (3, 5),
            (4, 6), (1, 4), (1, 3),
        )),
        (11, 161, True, (
            (0, 1), (1, 2), (1, 3), (0, 1), (1, 4), (1, 2), (1, 3), (3, 5),
            (4, 6), (1, 4), (1, 3),
        )),
    ),
    "random1": (
        (7, 113, False, ((0, 2), (0, 4), (0, 5), (0, 1), (0, 2), (0, 5), (1, 2))),
        (7, 149, False, ((0, 2), (0, 4), (0, 5), (0, 1), (0, 2), (0, 5), (1, 2))),
    ),
    "random2": (
        (6, 67, False, ((0, 3), (0, 4), (2, 5), (0, 2), (2, 3), (2, 5))),
        (6, 107, False, ((0, 3), (0, 4), (2, 5), (0, 2), (2, 3), (2, 5))),
    ),
    "random3": (
        (11, 164, True, (
            (0, 1), (0, 2), (2, 4), (1, 2), (2, 3), (2, 5), (0, 2), (1, 2),
            (2, 3), (0, 2), (4, 6),
        )),
        (11, 166, True, (
            (0, 1), (0, 2), (2, 4), (1, 2), (2, 3), (2, 5), (0, 2), (1, 2),
            (2, 3), (0, 2), (4, 6),
        )),
    ),
    "random4": (
        (8, 159, True, ((0, 1), (0, 2), (2, 3), (1, 2), (3, 6), (3, 4), (4, 5), (4, 7))),
        (8, 163, True, ((0, 1), (0, 2), (2, 3), (1, 2), (3, 6), (3, 4), (4, 5), (4, 7))),
    ),
    "random5": (
        (5, 31, False, ((0, 2), (1, 2), (1, 4), (4, 5), (1, 5))),
        (5, 44, False, ((0, 2), (1, 2), (1, 4), (4, 5), (1, 5))),
    ),
    "random6": (
        (6, 114, False, ((0, 4), (0, 5), (1, 3), (0, 1), (0, 2), (2, 5))),
        (6, 153, True, ((0, 4), (0, 5), (1, 3), (0, 1), (0, 2), (2, 5))),
    ),
    "random7": (
        (5, 45, False, ((0, 1), (1, 5), (1, 6), (1, 7), (2, 5))),
        (5, 53, False, ((0, 1), (1, 5), (1, 6), (1, 7), (2, 5))),
    ),
    "random8": (
        (5, 50, False, ((0, 1), (0, 5), (3, 4), (1, 3), (0, 1))),
        (5, 74, False, ((0, 1), (0, 5), (3, 4), (1, 3), (0, 1))),
    ),
    "random9": (
        (11, 169, True, (
            (0, 2), (0, 4), (2, 5), (0, 2), (2, 3), (0, 2), (0, 4), (3, 5),
            (4, 6), (0, 4), (5, 7),
        )),
        (9, 165, True, (
            (0, 2), (0, 4), (2, 3), (0, 2), (2, 5), (4, 6), (0, 4), (4, 6),
            (5, 7),
        )),
    ),
    "random10": (
        (7, 154, True, ((2, 4), (2, 5), (2, 3), (3, 5), (0, 3), (0, 2), (3, 4))),
        (7, 156, True, ((2, 4), (2, 5), (2, 3), (3, 5), (0, 3), (0, 2), (3, 4))),
    ),
    "random11": (
        (1, 2, False, ((1, 4),)),
        (1, 2, False, ((1, 4),)),
    ),
    "random12": (
        (6, 78, False, ((2, 3), (0, 2), (1, 2), (2, 3), (5, 6), (3, 5))),
        (6, 154, True, ((2, 3), (0, 2), (1, 2), (2, 3), (5, 6), (3, 5))),
    ),
    "random13": (
        (4, 21, False, ((1, 3), (1, 4), (4, 5), (1, 4))),
        (4, 22, False, ((1, 3), (1, 4), (4, 5), (1, 4))),
    ),
    "random14": (
        (6, 77, False, ((0, 3), (1, 2), (3, 4), (2, 3), (0, 2), (3, 4))),
        (6, 110, False, ((0, 3), (1, 2), (3, 4), (2, 3), (0, 2), (3, 4))),
    ),
    "random15": (
        (9, 163, True, (
            (0, 1), (0, 2), (0, 4), (0, 3), (0, 1), (0, 4), (1, 2), (2, 3),
            (1, 2),
        )),
        (9, 163, True, (
            (0, 1), (0, 2), (0, 4), (0, 3), (0, 1), (0, 4), (1, 2), (2, 3),
            (1, 2),
        )),
    ),
    "random16": (
        (1, 2, False, ((1, 3),)),
        (1, 2, False, ((1, 3),)),
    ),
    "random17": (
        (7, 157, True, ((0, 2), (0, 4), (2, 3), (0, 2), (3, 7), (4, 6), (0, 4))),
        (7, 162, True, ((0, 2), (0, 4), (2, 3), (0, 2), (3, 7), (4, 6), (0, 4))),
    ),
    "random18": (
        (10, 167, True, (
            (0, 6), (0, 1), (1, 2), (1, 3), (2, 5), (3, 7), (1, 3), (3, 4),
            (1, 3), (0, 1),
        )),
        (10, 168, True, (
            (0, 6), (0, 1), (1, 2), (1, 3), (2, 5), (3, 7), (1, 3), (3, 4),
            (1, 3), (0, 1),
        )),
    ),
    "random19": (
        (1, 2, False, ((0, 1),)),
        (1, 2, False, ((0, 1),)),
    ),
}


@pytest.mark.parametrize("memoize", [True, False], ids=["memo", "no-memo"])
@pytest.mark.parametrize("name", list(EXPECTED))
def test_exhaustive_reproduces_recorded_outcome(name, memoize):
    config, state = CASES[name]
    if memoize:
        try:
            result = exhaustive_max_collisions(
                config, state, 20, max_branch_edges=10, max_nodes=150
            )
        except BudgetExceededError as exc:
            result = exc.best
        got = (result.collisions, result.nodes_explored, result.truncated, result.witness)
    else:
        found, witness, nodes, truncated = _unmemoized(config, state, 20, 150)
        got = (found, nodes, truncated, witness)
    assert got == EXPECTED[name][0 if memoize else 1]
