"""Round-robin and seeded-random runs pinned to recorded values.

The expected (steps, collisions, stabilized, state hash) tuples were recorded
with ``run_schedule`` as it stood when a policy run tested stability with a
numpy mat-vec against the unit collision matrix of its touching pairs.  The
run must reproduce them exactly: the step at which it stops depends on the
stability test, and every state on the exchange arithmetic.  Each run must
also stop at the first state where the numpy reference ``_stable`` holds, and
two touching pairs pin the test on either side of STABILITY_MARGIN.
"""

import hashlib
import math

import numpy as np
import pytest

from pinnedballs import configs
from pinnedballs.dynamics import Schedule, run_schedule
from pinnedballs.foldings import STABILITY_MARGIN
from pinnedballs.geometry import ContactGraph, StateVector, full_contact_graph, normalize_system
from pinnedballs.search import sample_unit_state
from test_dynamics import _stable


def _system(seed):
    """A random configuration of 3..9 balls in d = 1 + seed % 3 dimensions (a
    tree in one dimension), its normalized state, and the full contact graph;
    for every fifth seed the graph also carries an edge whose balls do not
    touch, when the configuration has one."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(3, 10)), 1 + seed % 3
    config = configs.random_contact_configuration(
        n, d, rng, style="mixed" if d >= 2 else "tree"
    )
    config, state = normalize_system(config, sample_unit_state(n, d, rng))
    edges = list(full_contact_graph(config).edges)
    if seed % 5 == 4:
        edges += [
            (i, j) for i in range(n) for j in range(i + 1, n) if not config.touches(i, j)
        ][:1]
    return config, state, ContactGraph(n, edges)


def _schedule(kind, seed):
    return Schedule.round_robin() if kind == "round-robin" else Schedule.seeded_random(seed)


def _outcome(trace):
    digest = hashlib.sha256(trace.states[-1].tobytes()).hexdigest()[:16]
    return trace.steps, trace.collisions, trace.stabilized, digest


KINDS = ("round-robin", "seeded-random")

#: seed -> per kind of KINDS: (steps, collisions, stabilized, sha256 of the final state's bytes)
EXPECTED = {
    0: ((30, 20, True, '832c72a0d005d1bf'), (66, 20, True, '832c72a0d005d1bf')),
    1: ((4, 2, True, '4618c7051ef77523'), (5, 2, True, '8f874549a54dfdec')),
    2: ((14, 4, True, '9e6a05e4d50321a7'), (20, 4, True, '9e6a05e4d50321a7')),
    3: ((37, 14, True, 'cdcee89fc6f49497'), (70, 14, True, '4b8cf0d15d0418a3')),
    4: ((22, 5, True, '90cc4db3c5e8dff0'), (12, 4, True, '7944dfb1d71bbc03')),
    5: ((8, 6, True, '15dbc1116bd2d12b'), (36, 5, True, '339a5d73f178bb56')),
    6: ((8, 5, True, '9c6524377b24dcf4'), (16, 5, True, '9c6524377b24dcf4')),
    7: ((20, 11, True, '1416bce39ecb73a2'), (38, 7, True, 'dba7133553adad4b')),
    8: ((11, 6, True, 'b8d1640d81a55473'), (17, 7, True, '06534f91a62d7965')),
    9: ((16, 6, True, '29954331084e6cb0'), (24, 6, True, '29954331084e6cb0')),
    10: ((18, 7, True, '25b1faed8bb11a57'), (20, 7, True, '8e1991436a294052')),
    11: ((0, 0, True, 'e95fa670eea254bd'), (0, 0, True, 'e95fa670eea254bd')),
    12: ((27, 8, True, 'cc3699832f4fe32c'), (23, 8, True, 'cc3699832f4fe32c')),
    13: ((22, 11, True, '505806df37d71b09'), (59, 10, True, 'c3cf5bc162c8d13d')),
    14: ((7, 5, True, '910655e2e707a766'), (3, 3, True, 'f3776cd31abc09ac')),
    15: ((17, 14, True, '3ec1f7dd50911010'), (51, 14, True, '3ec1f7dd50911010')),
    16: ((11, 6, True, '3361e7ac74db79a5'), (31, 7, True, '840ef95bc8e28eac')),
    17: ((9, 4, True, 'df4b18e907e87939'), (22, 4, True, 'df4b18e907e87939')),
    18: ((31, 19, True, '09f29dbf770145e2'), (77, 19, True, '09f29dbf770145e2')),
    19: ((10, 5, True, '47df0970c4ffcab2'), (42, 5, True, '47df0970c4ffcab2')),
    20: ((15, 11, True, '3f795a44c39e2a66'), (49, 9, True, '77f68f7dbdf01faf')),
    21: ((5, 4, True, '149221dc0667de3d'), (13, 4, True, '149221dc0667de3d')),
    22: ((14, 8, True, '913cf09542d25a58'), (8, 5, True, '298da6fb4f07d9c6')),
    23: ((2, 2, True, '272118e58b92f333'), (2, 2, True, '272118e58b92f333')),
    24: ((9, 6, True, '0575b0f00ee142d8'), (17, 6, True, '0575b0f00ee142d8')),
    25: ((15, 6, True, '7b2b0075a0d2bc19'), (44, 6, True, '7b2b0075a0d2bc19')),
    26: ((21, 7, True, '8ea6198a4104e524'), (29, 7, True, '84c693cb7db1a860')),
    27: ((2, 1, True, 'd7450091ad526338'), (2, 1, True, 'd7450091ad526338')),
    28: ((15, 7, True, 'ef7b4e6c3ea5fa08'), (38, 8, True, '0294f4d95bbbcf7c')),
    29: ((22, 5, True, '24016f111d454f1d'), (35, 4, True, 'c8c0658e46a72358')),
    30: ((3, 3, True, '40ecdad8a0a4c83c'), (4, 3, True, '40ecdad8a0a4c83c')),
    31: ((6, 4, True, 'a9f257ac481292ba'), (20, 3, True, '5a3b8808b61d72b7')),
    32: ((20, 10, True, '32f5e6c2ce25d8cc'), (54, 11, True, '8dcccee12210fc98')),
    33: ((35, 19, True, '3e308148272d79ee'), (70, 19, True, '2462c80b7ef6ec0f')),
    34: ((2, 2, True, '3ab55df4e8adac31'), (8, 2, True, '3ab55df4e8adac31')),
    35: ((0, 0, True, 'd33d2d81c462c021'), (0, 0, True, 'd33d2d81c462c021')),
    36: ((9, 6, True, '5b10d4a27933dcbd'), (17, 6, True, '5b10d4a27933dcbd')),
    37: ((5, 4, True, '22710b83502957b1'), (7, 3, True, '046329b4dbe22d3c')),
    38: ((3, 1, True, 'bfe790174b2039cd'), (6, 1, True, 'bfe790174b2039cd')),
    39: ((30, 16, True, '76089fbbaad7189b'), (111, 16, True, 'd0549845b8d4fbd7')),
    40: ((15, 6, True, 'a1040ea975a1523b'), (43, 8, True, 'd5bd28622f78418e')),
    41: ((9, 6, True, '185cbacc946a9cef'), (7, 5, True, '06f8a7157f61f3cc')),
    42: ((2, 1, True, '71f8ee07307097e9'), (2, 1, True, '71f8ee07307097e9')),
    43: ((4, 3, True, 'd7295cd891c05e57'), (10, 4, True, '81c2ac6e2586c068')),
    44: ((3, 3, True, '0d4a748491613988'), (4, 3, True, 'd3ac7adecfa567a5')),
    45: ((48, 21, True, 'ba63dce72e24d439'), (75, 21, True, 'c64bce6c277a6c35')),
    46: ((9, 4, True, '9e874995d12a0328'), (26, 5, True, '1ba7efa714b44345')),
    47: ((2, 2, True, '7081ace46c200d53'), (2, 2, True, '7081ace46c200d53')),
    48: ((3, 3, True, 'c4fc9abdef6f2182'), (7, 3, True, 'c4fc9abdef6f2182')),
    49: ((2, 1, True, '5d73421e110afba9'), (2, 1, True, '5d73421e110afba9')),
    50: ((11, 5, True, '8acf5b17412e9137'), (25, 5, True, '9137ac719650b16a')),
    51: ((4, 2, True, '8a2e608eea32adaf'), (16, 2, True, '8a2e608eea32adaf')),
    52: ((23, 10, True, 'd7b6b54bea63a7ef'), (13, 7, True, '2a12387bce74a89f')),
    53: ((9, 3, True, '787a21fcd2b91217'), (7, 3, True, '787a21fcd2b91217')),
    54: ((2, 2, True, '78deffe8ee00c4de'), (13, 2, True, '78deffe8ee00c4de')),
    55: ((27, 12, True, 'bdb587c6b995f566'), (23, 9, True, '85f2bececb2f2646')),
    56: ((2, 1, True, '5c6c04835c796e41'), (1, 1, True, '5c6c04835c796e41')),
    57: ((2, 2, True, '71d2166026a1a60f'), (2, 2, True, '71d2166026a1a60f')),
    58: ((7, 4, True, '1f288de71b0570af'), (13, 4, True, 'ec044fb87b536c8e')),
    59: ((21, 6, True, '7b49a5add58be823'), (27, 7, True, '4c2bd8898a1d0d29')),
}


@pytest.mark.parametrize("seed", sorted(EXPECTED))
@pytest.mark.parametrize("kind", KINDS)
def test_policy_run_pinned(seed, kind):
    config, state, graph = _system(seed)
    trace = run_schedule(config, state, _schedule(kind, seed), graph=graph)
    assert _outcome(trace) == EXPECTED[seed][KINDS.index(kind)]
    # the run stops at the first distinct state that the reference calls stable
    touching = ContactGraph(config.n, [e for e in graph.edges if config.touches(*e)])
    distinct = [trace.states[0]] + [trace.states[t + 1] for t in np.flatnonzero(trace.changed)]
    assert trace.stabilized and _stable(config, touching, distinct[-1])
    assert not any(_stable(config, touching, v) for v in distinct[:-1])


def test_systems_cover_every_dimension_and_detached_edges():
    systems = [_system(seed) for seed in EXPECTED]
    assert {config.dimension for config, _, _ in systems} == {1, 2, 3}
    detached = [
        graph for config, _, graph in systems
        if any(not config.touches(*e) for e in graph.edges)
    ]
    assert len(detached) >= 5


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("margin, collisions", [(-0.5e-12, 0), (-2e-12, 1)])
def test_touching_pair_on_either_side_of_the_stability_margin(kind, margin, collisions):
    # z = (-1, 1) / sqrt(2) for the pair at 0 and 2, so z . v = -delta / sqrt(2)
    config = configs.touching_pair()
    delta = -margin * math.sqrt(2.0)
    state = StateVector.from_blocks([[delta / 2], [-delta / 2]])
    assert abs(float(np.array([-1.0, 1.0]) @ state.values) / math.sqrt(2.0) - margin) < 1e-27
    assert (margin >= STABILITY_MARGIN) == (collisions == 0)
    trace = run_schedule(config, state, _schedule(kind, 7))
    assert (trace.steps, trace.collisions, trace.stabilized) == (collisions, collisions, True)
    assert _stable(config, full_contact_graph(config), trace.states[-1])
