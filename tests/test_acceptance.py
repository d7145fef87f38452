"""Acceptance criteria C1-C10: the `verify` checks at full scale.

Each criterion runs its checks in order on one seeded generator, each check
with its keyword arguments in ``FULL_SCALE``, and prints one PASS line with
the checks' details and the elapsed time (visible with `pytest -s`); a failed
check or an exceeded time budget marks the criterion red.
"""

import math
import time

import numpy as np

from pinnedballs import configs, verify
from pinnedballs.geometry import validate_configuration

BENT_3 = [[0.0, 0.0], [2.0, 0.0], [2.0 + 2.0 * math.cos(1.0), 2.0 * math.sin(1.0)]]

#: The configurations of C9, searched before three random planar 4-ball ones.
BATTERY = [
    ("chain-2", configs.collinear_chain(2)),
    ("chain-3", configs.collinear_chain(3)),
    ("chain-4", configs.collinear_chain(4)),
    ("pair-2d", configs.touching_pair(d=2)),
    ("triangle", configs.triangle()),
    ("bent-3", validate_configuration(BENT_3)),
    ("rhombus", configs.rhombus()),
    ("square", configs.square()),
]

#: Keyword arguments of the checks at acceptance scale; the others have no scale.
FULL_SCALE = {
    "folding_collision_equivalence": dict(rounds=400, states_per_config=25, n_max=6),
    "conservation_and_monotonicity": dict(
        traces=1000, lengths=(50, 300), long_length=1000, n_max=6
    ),
    "orbit_stabilization": dict(families=1000),
    "adversarial_orbits": dict(sizes=(10, 100, 1000)),
    "certificates_vs_alpha": dict(points=7, max_size=5),
    "tree_alpha_floor": dict(rounds=200, n_max=8),
    "lattice_determinants": dict(rounds=1000, m_max=8),
    "quadratic_lower_bound": dict(limit=10_000),
    "bound_consistency": dict(n_max=100),
    "search_bound_sanity": dict(battery=BATTERY, random_configs=3, states=3, depth_cap=20),
    "decomposition": dict(rounds=1000, n_max=6),
}

#: criterion -> (seed, time budget in s, checks by name without the
#: ``check_`` prefix); a seed of None marks checks that draw nothing.
CRITERIA = {
    1: (101, 10, ["folding_collision_equivalence"]),
    2: (202, 30, ["conservation_and_monotonicity"]),
    3: (303, 60, ["orbit_stabilization"]),
    4: (None, 5, ["adversarial_orbits"]),
    5: (None, 60, ["alpha_desk_values", "certificates_vs_alpha"]),
    6: (606, 120, ["tree_alpha_floor"]),
    7: (707, 60, ["lattice_determinants", "convergents", "quadratic_lower_bound"]),
    8: (None, 5, ["bound_consistency"]),
    9: (909, 600, ["search_bound_sanity"]),
    10: (1010, 10, ["decomposition"]),
}


def _criterion(criterion):
    seed, budget, names = CRITERIA[criterion]

    def test():
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        results = [
            getattr(verify, f"check_{name}")(rng, **FULL_SCALE.get(name, {})) for name in names
        ]
        elapsed = time.perf_counter() - start
        for result in results:
            assert result.passed, f"{result.name}: {result.detail}"
        detail = "; ".join(result.detail for result in results)
        print(f"C{criterion} PASS {detail} [{elapsed:.2f}s < {budget}s]")
        assert elapsed < budget

    return test


test_c01_folding_collision_equivalence = _criterion(1)
test_c02_conservation_and_monotonicity = _criterion(2)
test_c03_orbit_finiteness = _criterion(3)
test_c04_unbounded_orbits = _criterion(4)
test_c05_alpha_exhaustive_correctness = _criterion(5)
test_c06_tree_bound_audit = _criterion(6)
test_c07_lattice_machinery = _criterion(7)
test_c08_bound_consistency = _criterion(8)
test_c09_end_to_end_inequality = _criterion(9)
test_c10_decomposition_invariants = _criterion(10)


def test_c05_rejects_a_certificate_inflated_by_1e_10(monkeypatch):
    # the certificate is the exact value rounded down, so an excess of 1e-10 over
    # the float alpha* is a fault; the check's old 1e-9 threshold let it pass
    exact = verify.lattice.exact_alpha_certificate

    def inflated(*args):
        value, data = exact(*args)
        return value + 1e-10, data

    assert verify.check_certificates_vs_alpha(np.random.default_rng(5)).passed
    monkeypatch.setattr(verify.lattice, "exact_alpha_certificate", inflated)
    result = verify.check_certificates_vs_alpha(np.random.default_rng(5))
    assert not result.passed, result.detail
    assert verify.CERTIFICATE_EXCESS < 1e-10
