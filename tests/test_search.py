import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinnedballs import configs, search
from pinnedballs.bounds import max_collisions_bound, resolve_tau
from pinnedballs.dynamics import CHANGE_TOLERANCE, Schedule, collide, run_schedule
from pinnedballs.errors import (
    BudgetExceededError,
    NotNormalizedError,
    TooManyEdgesError,
)
from pinnedballs.foldings import _point_key
from pinnedballs.geometry import (
    CONTACT_DISTANCE,
    ContactGraph,
    StateVector,
    full_contact_graph,
    normalize_system,
    validate_configuration,
)
from pinnedballs.rigidity import alpha
from pinnedballs.search import (
    compare_with_bound,
    exhaustive_max_collisions,
    greedy_schedule,
    sample_unit_state,
    velocity_sweep,
)
from pinnedballs.verify import random_system


def _chain3_system():
    return normalize_system(
        configs.collinear_chain(3), StateVector.from_blocks([[1.0], [0.0], [-1.0]])
    )


class TestGreedy:
    def test_two_balls_single_collision(self):
        config, state = normalize_system(
            configs.touching_pair(), StateVector.from_blocks([[1.0], [-1.0]])
        )
        result = greedy_schedule(config, state)
        assert result.collisions == 1
        assert result.witness == ((0, 1),)

    def test_separating_state_stops_immediately(self):
        config, state = normalize_system(
            configs.touching_pair(), StateVector.from_blocks([[-1.0], [1.0]])
        )
        assert greedy_schedule(config, state).collisions == 0

    def test_chain_matches_exhaustive(self):
        config, state = _chain3_system()
        greedy = greedy_schedule(config, state)
        exhaustive = exhaustive_max_collisions(config, state)
        assert greedy.collisions == exhaustive.collisions == 3

    def test_sub_tolerance_exchange_collides_nowhere(self):
        # balls 1 and 2 approach at relative speed 1e-15, balls 2 and 3 separate
        config, _ = _chain3_system()
        w = -1.0 / math.sqrt(6.0)
        state = StateVector.from_blocks([[w + 1e-15], [w], [-2.0 * w - 1e-15]])
        assert collide(config, state, (0, 1)) is state
        assert run_schedule(config, state, Schedule.explicit([(0, 1)])).collisions == 0
        assert greedy_schedule(config, state).collisions == 0
        assert exhaustive_max_collisions(config, state).collisions == 0

    def test_negative_max_steps_rejected(self):
        config, state = _chain3_system()
        with pytest.raises(ValueError, match="max_steps.*-5"):
            greedy_schedule(config, state, max_steps=-5)

    def test_unnormalized_rejected(self):
        config = configs.touching_pair()
        with pytest.raises(NotNormalizedError):
            greedy_schedule(config, StateVector.from_blocks([[1.0], [-1.0]]))

    def test_random_policy_replays(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(1, 3))
            style = "mixed" if d >= 2 else "tree"
            config = configs.random_contact_configuration(n, d, rng, style=style)
            state = sample_unit_state(n, d, rng)
            config, state = normalize_system(config, state)
            result = greedy_schedule(
                config, state, policy="random", seed=int(rng.integers(2**32))
            )
            trace = run_schedule(config, state, Schedule.explicit(result.witness))
            assert trace.collisions == result.collisions

    def test_lexicographic_matches_greedy_schedule_kind(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 11))
            d = int(rng.integers(1, 4))
            style = "mixed" if d >= 2 else "tree"
            config = configs.random_contact_configuration(n, d, rng, style=style)
            config, state = normalize_system(config, sample_unit_state(n, d, rng))
            result = greedy_schedule(config, state)
            trace = run_schedule(config, state, Schedule.greedy())
            assert result.witness == trace.edges
            assert result.collisions == trace.collisions


def _non_touching_system():
    """A touching pair plus a third ball that the user graph joins to the
    second ball although they are 3 apart and approach each other."""
    config = validate_configuration([[-2.0], [0.0], [3.0]])
    state = StateVector.from_blocks([[1.0], [0.0], [-1.0]])
    config, state = normalize_system(config, state)
    return config, state, ContactGraph(3, [(0, 1), (1, 2)])


class TestNonTouchingGraphEdge:
    def test_greedy_skips_the_pair(self):
        config, state, graph = _non_touching_system()
        assert greedy_schedule(config, state, graph=graph).witness == ((0, 1),)
        random = greedy_schedule(config, state, policy="random", seed=1, graph=graph)
        assert random.witness == ((0, 1),)

    def test_exhaustive_skips_the_pair(self):
        config, state, graph = _non_touching_system()
        result = exhaustive_max_collisions(config, state, graph=graph)
        assert result.collisions == 1 and result.witness == ((0, 1),)


class TestExhaustive:
    def test_two_balls(self):
        config, state = normalize_system(
            configs.touching_pair(), StateVector.from_blocks([[1.0], [-1.0]])
        )
        result = exhaustive_max_collisions(config, state)
        assert result.collisions == 1

    def test_chain_regression_value(self):
        # pinned by running this exhaustive oracle ahead of the build
        config, state = _chain3_system()
        result = exhaustive_max_collisions(config, state)
        assert result.collisions == 3
        assert not result.truncated

    def test_witness_replays_exactly(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(1, 3))
            style = "mixed" if d >= 2 else "tree"
            config = configs.random_contact_configuration(n, d, rng, style=style)
            state = sample_unit_state(n, d, rng)
            config, state = normalize_system(config, state)
            result = exhaustive_max_collisions(config, state, depth_cap=16)
            trace = run_schedule(config, state, Schedule.explicit(result.witness))
            assert trace.collisions == result.collisions == len(result.witness)

    def test_conflated_memo_keeps_the_witness(self, rng, monkeypatch):
        # memo keys carry the depth and a later branch must beat the earlier
        # ones strictly, so a memo that conflates every state at one depth
        # returns the first (lexicographic greedy) path, never a false witness
        monkeypatch.setattr(search, "_block_key", lambda d: lambda block: b"")
        for _ in range(20):
            config, state = random_system(rng, n_max=5, d_max=2)
            result = exhaustive_max_collisions(config, state, max_branch_edges=10)
            greedy = greedy_schedule(config, state)
            assert (result.collisions, result.witness) == (greedy.collisions, greedy.witness)

    def test_replay_mismatch_raises(self, monkeypatch):
        # a replay that disagrees with the search is an error, not a result
        kernel = search._kernel

        def no_collision_replay(d):
            return kernel(d)._replace(run=lambda blocks, *args: (blocks, False))

        monkeypatch.setattr(search, "_kernel", no_collision_replay)
        config, state = _chain3_system()
        with pytest.raises(RuntimeError, match="3 found"):
            exhaustive_max_collisions(config, state)

    def test_depth_cap_raises_with_best(self):
        config, state = _chain3_system()
        with pytest.raises(BudgetExceededError) as exc:
            exhaustive_max_collisions(config, state, depth_cap=1)
        assert exc.value.best.collisions == 1
        assert exc.value.best.truncated

    @pytest.mark.parametrize("kwargs", [{"depth_cap": -3}, {"max_nodes": 0}])
    def test_malformed_budget_rejected(self, kwargs):
        config, state = _chain3_system()
        ((name, value),) = kwargs.items()
        with pytest.raises(ValueError, match=f"{name}.*{value}"):
            exhaustive_max_collisions(config, state, **kwargs)

    @pytest.mark.parametrize("method", ["exhaustive", "greedy"])
    def test_sweep_rejects_negative_depth_cap(self, method):
        config, _ = _chain3_system()
        with pytest.raises(ValueError, match="depth_cap.*-3"):
            velocity_sweep(config, 2, seed=1, method=method, depth_cap=-3)

    def test_edge_guard(self):
        config = configs.hexagonal_flower()
        state = sample_unit_state(config.n, config.dimension, np.random.default_rng(0))
        config, state = normalize_system(config, state)
        with pytest.raises(TooManyEdgesError):
            exhaustive_max_collisions(config, state)

    def test_memoization_changes_nothing(self, rng):
        for _ in range(10):
            config = configs.random_contact_configuration(4, 2, rng, style="mixed")
            state = sample_unit_state(4, 2, rng)
            config, state = normalize_system(config, state)
            a = exhaustive_max_collisions(config, state, memoize=True)
            b = exhaustive_max_collisions(config, state, memoize=False)
            assert a.collisions == b.collisions

    @pytest.mark.parametrize("family", ["chain", "triangle", "square", "rhombus"])
    def test_memoization_changes_nothing_on_desk_families(self, family):
        rng = np.random.default_rng(11)
        base = configs.collinear_chain(3) if family == "chain" else getattr(configs, family)()
        for _ in range(8):
            state = sample_unit_state(base.n, base.dimension, rng)
            config, state = normalize_system(base, state)
            a = exhaustive_max_collisions(config, state, memoize=True)
            b = exhaustive_max_collisions(config, state, memoize=False)
            assert (a.collisions, a.witness) == (b.collisions, b.witness)

    def test_bound_comparison(self):
        config, state = _chain3_system()
        result = exhaustive_max_collisions(config, state)
        report = max_collisions_bound(
            3, 1, alpha(config, collect_table=False).alpha, resolve_tau(1)[0]
        )
        compared = compare_with_bound(result, report)
        assert compared.bound.within
        assert compared.bound.log2_collisions == pytest.approx(math.log2(3))


class TestVelocitySweep:
    def test_single_sample_matches_direct_run(self):
        config = configs.collinear_chain(3)
        centered, _ = normalize_system(
            config, StateVector.from_blocks([[1.0], [0.0], [-1.0]])
        )
        sweep = velocity_sweep(centered, 1, seed=42)
        state = sample_unit_state(3, 1, np.random.default_rng(42))
        direct = exhaustive_max_collisions(centered, state)
        assert sweep.best == direct.collisions
        assert len(sweep.rows) == 1

    def test_monotone_in_sample_count(self):
        config, _ = _chain3_system()
        bests = [velocity_sweep(config, k, seed=7).best for k in (1, 2, 4, 8)]
        assert all(b >= a for a, b in zip(bests, bests[1:]))

    def test_sweep_dominates_single_greedy(self):
        config, state = _chain3_system()
        sweep = velocity_sweep(config, 8, seed=3, method="greedy")
        single = greedy_schedule(config, sample_unit_state(3, 1, np.random.default_rng(3)))
        assert sweep.best >= single.collisions


class TestStateKey:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(-1e6, 1e6),
                st.floats(-1e-11, 1e-11),
                st.sampled_from([0.0, -0.0, 5e-13, -5e-13, 1.5e-12, -2.5e-12]),
            ),
            min_size=3,
            max_size=30,
        ),
        st.integers(1, 3),
    )
    def test_matches_numpy_round(self, values, d):
        # only orbit's revisit key rounds: per point, to numpy's 12 decimals
        v = np.array(values[: len(values) - len(values) % d])
        pack = struct.Struct(f"{d}d").pack
        key = b"".join(_point_key(block, pack) for block in v.reshape(-1, d).tolist())
        assert key == np.round(v, 12).tobytes()

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(
        st.lists(
            st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-13, -5e-13])),
            min_size=3,
            max_size=30,
        ),
        st.integers(1, 3),
    )
    def test_search_key_is_the_raw_bytes(self, values, d):
        # the search's memo key joins the raw bytes of each ball block
        v = np.array(values[: len(values) - len(values) % d])
        key = search._block_key(d)
        assert b"".join(map(key, v.reshape(-1, d).tolist())) == v.tobytes()


def _flat_search(config, state0, depth_cap, graph, max_nodes, memoize):
    """The exhaustive search on one flat list of floats per state, with a
    whole-state numpy memo key and the node budget checked on entry to each
    call; returns (collisions, witness, nodes explored, truncated)."""
    d = config.dimension
    pairs = []
    for e in graph.edges:
        dx = config.centers[e[0]] - config.centers[e[1]]
        norm = np.linalg.norm(dx)
        if abs(float(norm) - CONTACT_DISTANCE) <= config.contact_tolerance:
            si, sj = (slice(k * d, (k + 1) * d) for k in e)
            pairs.append((e, si, sj, dx.tolist(), (dx / norm).tolist()))

    def children(vals):
        out = []
        for e, si, sj, dx, u in pairs:
            vi, vj = vals[si], vals[sj]
            approach = t = 0.0
            for a, b, c in zip(vi, vj, dx):
                approach += (a - b) * c
            if approach >= 0.0:
                continue
            for a, b, c in zip(vi, vj, u):
                t += (b - a) * c
            new_i, new_j = [a + t * c for a, c in zip(vi, u)], [b - t * c for b, c in zip(vj, u)]
            if max(abs(x - y) for x, y in zip(new_i + new_j, vi + vj)) > CHANGE_TOLERANCE:
                nxt = vals.copy()
                nxt[si], nxt[sj] = new_i, new_j
                out.append((e, nxt))
        return out

    nodes, truncated, memo = 0, False, {}

    def dfs(vals, depth):
        nonlocal nodes, truncated
        nodes += 1
        if nodes > max_nodes:
            truncated = True
            return 0, ()
        key = (np.array(vals).tobytes(), depth) if memoize else None
        if key is not None and key in memo:
            return memo[key]
        best = (0, ())
        if depth < depth_cap:
            for e, out in children(vals):
                extra, tail = dfs(out, depth + 1)
                if 1 + extra > best[0]:
                    best = (1 + extra, (e,) + tail)
        elif children(vals):
            truncated = True
        if key is not None:
            memo[key] = best
        return best

    found, witness = dfs(state0.values.tolist(), 0)
    return found, witness, nodes, truncated


class TestAgainstFlatSearch:
    """The per-ball search against the flat-list search it replaced."""

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 8),
        d=st.integers(1, 3),
        memoize=st.booleans(),
        depth_cap=st.sampled_from([0, 2, 5, 20]),
        detached=st.booleans(),
    )
    def test_same_outcome(self, seed, n, d, memoize, depth_cap, detached):
        rng = np.random.default_rng(seed)
        config = configs.random_contact_configuration(
            n, d, rng, style="mixed" if d >= 2 else "tree"
        )
        edges = list(full_contact_graph(config).edges)
        if detached:
            # a graph edge whose balls do not touch, when the configuration has one
            edges += [
                (i, j) for i in range(n) for j in range(i + 1, n) if not config.touches(i, j)
            ][:1]
        graph = ContactGraph(n, edges)
        states = [sample_unit_state(n, d, rng) for _ in range(4)]
        for state, max_nodes in itertools.product(states, (10, 150, 2000)):
            try:
                result = exhaustive_max_collisions(
                    config, state, depth_cap, graph=graph, max_branch_edges=len(edges),
                    max_nodes=max_nodes, memoize=memoize,
                )
            except BudgetExceededError as exc:
                result = exc.best
            expected = _flat_search(config, state, depth_cap, graph, max_nodes, memoize)
            outcome = (result.collisions, result.witness, result.nodes_explored, result.truncated)
            assert outcome == expected


def _deep_cases():
    """The first six mixed configurations (6..9 balls, d = 2 or 3) with 8..10
    contacts drawn from seed 5, each with one sampled state, normalized."""
    rng = np.random.default_rng(5)
    cases = []
    while len(cases) < 6:
        n, d = int(rng.integers(6, 10)), int(rng.integers(2, 4))
        config = configs.random_contact_configuration(n, d, rng, style="mixed")
        system = normalize_system(config, sample_unit_state(n, d, rng))
        if 8 <= len(full_contact_graph(system[0]).edges) <= 10:
            cases.append(system)
    return cases


DEEP_CASES = _deep_cases()

#: (with memo, without memo), each (collisions, nodes, truncated, witness), under
#: depth_cap=40, max_branch_edges=10, max_nodes=30_000: trees of up to 30,033
#: nodes, where the golden file stops at 150.
DEEP_EXPECTED = [
    (
        (4, 17, False, ((1, 2), (2, 3), (1, 2), (4, 7))),
        (4, 21, False, ((1, 2), (2, 3), (1, 2), (4, 7))),
    ),
    (
        (6, 57, False, ((0, 4), (1, 3), (1, 5), (5, 6), (1, 5), (1, 2))),
        (6, 110, False, ((0, 4), (1, 3), (1, 5), (5, 6), (1, 5), (1, 2))),
    ),
    (
        (8, 443, False, ((0, 1), (1, 5), (1, 4), (1, 5), (0, 1), (1, 5), (3, 6), (4, 7))),
        (8, 1452, False, ((0, 1), (1, 5), (1, 4), (1, 5), (0, 1), (1, 5), (3, 6), (4, 7))),
    ),
    (
        (13, 4260, False, (
            (1, 3), (0, 3), (0, 7), (0, 1), (1, 7), (3, 5), (0, 3), (0, 7),
            (0, 4), (0, 2), (1, 3), (1, 7), (2, 6),
        )),
        (13, 23308, False, (
            (1, 3), (0, 3), (0, 7), (0, 1), (1, 7), (3, 5), (0, 3), (0, 7),
            (0, 4), (0, 2), (1, 3), (1, 7), (2, 6),
        )),
    ),
    (
        (18, 30033, True, (
            (0, 2), (0, 1), (2, 5), (0, 2), (2, 4), (3, 5), (2, 5), (3, 6),
            (3, 4), (5, 7), (2, 5), (3, 5), (3, 4), (3, 7), (3, 4), (2, 3),
            (0, 2), (3, 7),
        )),
        (16, 30027, True, (
            (0, 2), (0, 1), (2, 4), (3, 5), (3, 6), (5, 7), (2, 5), (3, 5),
            (3, 4), (3, 5), (5, 7), (3, 7), (3, 4), (2, 3), (0, 2), (3, 7),
        )),
    ),
    (
        (3, 12, False, ((1, 4), (1, 3), (2, 4))),
        (3, 12, False, ((1, 4), (1, 3), (2, 4))),
    ),
]


class TestDeepSearchPin:
    """Node order on deep trees: every node's expansion, its memo key and the
    budget accounting decide these counts."""

    @pytest.mark.parametrize("memoize", [True, False])
    @pytest.mark.parametrize("case", range(len(DEEP_EXPECTED)))
    def test_recorded_outcome(self, case, memoize):
        config, state = DEEP_CASES[case]
        try:
            result = exhaustive_max_collisions(
                config, state, 40, max_branch_edges=10, max_nodes=30_000, memoize=memoize
            )
        except BudgetExceededError as exc:
            result = exc.best
        outcome = (result.collisions, result.nodes_explored, result.truncated, result.witness)
        assert outcome == DEEP_EXPECTED[case][not memoize]
