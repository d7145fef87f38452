import dataclasses
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinnedballs import configs, dynamics, search
from pinnedballs.dynamics import (
    CHANGE_TOLERANCE,
    Schedule,
    _kernel,
    _pair_table,
    _walk,
    collide,
    collide_as_folding,
    decompose_state,
    functional_value,
    run_schedule,
)
from pinnedballs.errors import NotTouchingError, ScheduleError
from pinnedballs.foldings import STABILITY_MARGIN, _point_key
from pinnedballs.geometry import (
    BallConfiguration,
    ContactGraph,
    StateVector,
    collision_direction,
    full_contact_graph,
    normalize_system,
    validate_configuration,
)
from pinnedballs.search import _child_moves, exhaustive_max_collisions, sample_unit_state
from pinnedballs.verify import TRACE_TOLERANCES, random_system, trace_deviations


def _state(blocks):
    return StateVector.from_blocks(blocks)


def _exchanges(blocks, pairs, tolerance):
    """Reference collision predicate and exchange, one loop over the components: the
    generated kernels of ``dynamics._kernel`` must yield the same bits."""
    for k, (i, j, dx, u) in enumerate(pairs):
        vi, vj = blocks[i], blocks[j]
        approach = t = 0.0
        for a, b, c in zip(vi, vj, dx):
            approach += (a - b) * c
        if approach >= -tolerance:
            continue
        for a, b, c in zip(vi, vj, u):
            t += (b - a) * c
        new_i, new_j = [a + t * c for a, c in zip(vi, u)], [b - t * c for b, c in zip(vj, u)]
        if (max(map(abs, map(float.__sub__, new_i, vi))) > CHANGE_TOLERANCE
                or max(map(abs, map(float.__sub__, new_j, vj))) > CHANGE_TOLERANCE):
            yield k, new_i, new_j


def _first_unstable(blocks, pairs, tolerance, bound):
    """Reference stability test of policy runs: the first pair whose margin
    (v_i - v_j) . u is below ``bound`` and whose approach fails the test of
    :func:`_exchanges`."""
    for k, (i, j, dx, u) in enumerate(pairs):
        margin = approach = 0.0
        for a, b, c in zip(blocks[i], blocks[j], u):
            margin += (a - b) * c
        if margin < bound:
            for a, b, c in zip(blocks[i], blocks[j], dx):
                approach += (a - b) * c
            if not approach >= -tolerance:
                return k
    return None


def _exchanged(blocks, pair, tolerance):
    """A new state after the exchange on ``pair`` by :func:`_exchanges`; None when
    ``pair`` is None or makes no collision."""
    found = pair and next(_exchanges(blocks, (pair,), tolerance), None)
    if not found:
        return None
    out = blocks.copy()
    out[pair[0]], out[pair[1]] = found[1:]
    return out


def _run(blocks, planned, table, tolerance, rows, starts, quiet=None, applied=None, stable=None):
    """Reference step loop of a run, one :func:`_exchanged` per step that is not known
    to be idle: the generated kernels' ``run`` must give the same blocks, rows, starts,
    applied edges and stop."""
    # edges whose exchange is known to leave the current state as it is
    idle = set()
    for t, e in enumerate(planned, 1):
        if applied is not None:
            applied.append(e)
        out = None if e in idle else _exchanged(blocks, table.get(e), tolerance)
        if out is None:
            idle.add(e)
            if len(idle) == quiet:
                break
            continue
        blocks = out
        rows.append(blocks)
        starts.append(t)
        idle.clear()
        # an unchanged state that was not stable stays not stable
        if stable is not None and stable(blocks):
            return blocks, True
    return blocks, False


class TestCollide:
    def test_head_on_exchange(self):
        config = configs.touching_pair()
        out = collide(config, _state([[1.0], [-1.0]]), (0, 1))
        np.testing.assert_array_equal(out.values, [-1.0, 1.0])

    def test_separating_pair_unchanged(self):
        config = configs.touching_pair()
        state = _state([[-1.0], [1.0]])
        out = collide(config, state, (0, 1))
        assert out is state

    def test_oblique_exchange(self):
        # u = (-1, 0): only the x components swap
        config = validate_configuration([[0.0, 0.0], [2.0, 0.0]])
        out = collide(config, _state([[1.0, 1.0], [0.0, 0.0]]), (0, 1))
        np.testing.assert_allclose(out.values, [0.0, 1.0, 1.0, 0.0], atol=1e-15)

    def test_non_touching_pair_is_noop(self):
        config = validate_configuration([[0.0], [2.0], [5.0]])
        state = _state([[1.0], [0.0], [-1.0]])
        assert collide(config, state, (0, 2)) is state

    def test_grazing_contact_is_noop(self):
        # relative velocity orthogonal to the line of centers
        config = validate_configuration([[0.0, 0.0], [2.0, 0.0]])
        state = _state([[0.0, 1.0], [0.0, -1.0]])
        assert collide(config, state, (0, 1)) is state

    def test_self_collision_rejected(self):
        config = configs.touching_pair()
        with pytest.raises(ValueError):
            collide(config, _state([[1.0], [-1.0]]), (1, 1))

    @pytest.mark.parametrize("tolerance", [math.nan, -5.0, -1e-300, math.inf])
    def test_bad_approach_tolerance_rejected(self, tolerance):
        # with a NaN or negative tolerance the separating pair would collide
        config = configs.touching_pair()
        with pytest.raises(ValueError, match="approach_tolerance"):
            collide(config, _state([[-1.0], [1.0]]), (0, 1), tolerance)


class TestCollideAsFolding:
    def test_matches_collide_on_examples(self):
        config = configs.touching_pair()
        for blocks in ([[1.0], [-1.0]], [[-1.0], [1.0]], [[0.5], [0.1]]):
            a = collide(config, _state(blocks), (0, 1))
            b = collide_as_folding(config, _state(blocks), (0, 1))
            np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)

    def test_boundary_state_fixed_by_both(self):
        config = configs.touching_pair()
        state = _state([[1.0], [1.0]])  # v . z = 0 exactly
        assert collide(config, state, (0, 1)) is state
        assert collide_as_folding(config, state, (0, 1)) is state

    def test_agreement_randomized(self, rng):
        worst = 0.0
        for _ in range(1000):
            config, state = random_system(rng)
            graph = full_contact_graph(config)
            edge = graph.edges[int(rng.integers(len(graph.edges)))]
            a = collide(config, state, edge)
            b = collide_as_folding(config, state, edge)
            worst = max(worst, float(np.max(np.abs(a.values - b.values))))
        assert worst <= 1e-12


class TestRunSchedule:
    def test_second_application_is_noop(self):
        config, state = normalize_system(
            configs.touching_pair(), _state([[1.0], [-1.0]])
        )
        trace = run_schedule(config, state, Schedule.explicit([(0, 1), (0, 1)]))
        assert trace.collisions == 1
        assert list(trace.changed) == [True, False]

    def test_empty_schedule(self):
        config, state = normalize_system(
            configs.touching_pair(), _state([[1.0], [-1.0]])
        )
        trace = run_schedule(config, state, Schedule.explicit([]))
        assert trace.collisions == 0
        assert trace.steps == 0

    def test_greedy_matches_exhaustive_on_chain(self):
        # the exhaustive oracle pins max collisions at 3 for this start
        config, state = normalize_system(
            configs.collinear_chain(3), _state([[1.0], [0.0], [-1.0]])
        )
        trace = run_schedule(config, state, Schedule.greedy())
        assert trace.collisions == 3
        assert trace.stabilized

    def test_no_schedule_builds_a_collision_matrix(self, monkeypatch):
        # stability is tested on the pair table, so no run needs the matrix
        config, state = normalize_system(
            configs.collinear_chain(3), _state([[1.0], [0.0], [-1.0]])
        )

        def refuse(*args):
            raise AssertionError("run_schedule built a collision matrix")

        monkeypatch.setattr(dynamics, "collision_matrix", refuse)
        run_schedule(config, state, Schedule.explicit([(0, 1)] * 3))
        for schedule in (Schedule.greedy(), Schedule.round_robin(), Schedule.seeded_random(3)):
            assert run_schedule(config, state, schedule).stabilized

    def test_foreign_edge_rejected(self):
        config, state = normalize_system(
            configs.collinear_chain(3), _state([[1.0], [0.0], [-1.0]])
        )
        with pytest.raises(ScheduleError):
            run_schedule(config, state, Schedule.explicit([(0, 2)]))
        # the whole schedule is checked, past max_steps too; the first foreign edge is named
        schedule = Schedule.explicit([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ScheduleError, match=r"edge \(2, 3\)"):
            run_schedule(config, state, schedule, max_steps=1, graph=ContactGraph(3, [(0, 1)]))

    def test_max_steps_truncates(self):
        config, state = normalize_system(
            configs.touching_pair(), _state([[1.0], [-1.0]])
        )
        trace = run_schedule(
            config, state, Schedule.explicit([(0, 1), (0, 1)]), max_steps=1
        )
        assert trace.steps == 1

    @pytest.mark.parametrize(
        "schedule",
        [
            Schedule.explicit([(0, 1), (0, 1)]),
            Schedule.round_robin(),
            Schedule.seeded_random(3),
            Schedule.greedy(),
        ],
        ids=lambda s: s.kind,
    )
    def test_negative_max_steps_rejected(self, schedule):
        config, state = normalize_system(
            configs.touching_pair(), _state([[1.0], [-1.0]])
        )
        with pytest.raises(ValueError, match="max_steps"):
            run_schedule(config, state, schedule, max_steps=-1)

    @pytest.mark.parametrize("tolerance", [math.nan, -5.0, -1e-300, math.inf])
    def test_bad_approach_tolerance_rejected(self, tolerance):
        # with a NaN or negative tolerance F would go 8 -> -8 -> 8 on this separating pair
        config = configs.touching_pair()
        for schedule in (Schedule.explicit([(0, 1)] * 3), Schedule.round_robin()):
            with pytest.raises(ValueError, match="approach_tolerance"):
                run_schedule(config, _state([[-1.0], [1.0]]), schedule, approach_tolerance=tolerance)

    def test_large_approach_tolerance_allowed(self):
        config = configs.touching_pair()
        trace = run_schedule(
            config, _state([[1.0], [-1.0]]), Schedule.explicit([(0, 1)]), approach_tolerance=1e300
        )
        assert trace.collisions == 0

    def test_round_robin_stabilizes(self, rng):
        for _ in range(30):
            config, state = random_system(rng)
            trace = run_schedule(
                config, state, Schedule.round_robin(), max_steps=1_000_000
            )
            assert trace.stabilized
            # stabilized means every pair is separating: one more pass is all no-ops
            again = run_schedule(
                config,
                trace.state(trace.steps),
                Schedule.explicit(full_contact_graph(config).edges),
            )
            assert again.collisions == 0

    def test_policy_stop_rules_on_a_margin_within_stability_margin(self):
        # margin (v_1 - v_2) . u / sqrt(2) = -1.4e-13 lies between STABILITY_MARGIN and 0:
        # greedy stops only once no pair collides, the other two policies once stable
        config, state = configs.touching_pair(), _state([[1e-13], [-1e-13]])
        greedy = run_schedule(config, state, Schedule.greedy())
        assert (greedy.steps, greedy.collisions, greedy.stabilized) == (1, 1, True)
        assert greedy.states[-1].tolist() == [-1e-13, 1e-13]
        for schedule in (Schedule.round_robin(), Schedule.seeded_random(3)):
            trace = run_schedule(config, state, schedule)
            assert (trace.steps, trace.collisions, trace.stabilized) == (0, 0, True)

    def test_policy_stop_rules_inside_the_tolerance_band(self):
        # the pair approaches, (v_1 - v_2) . (x_1 - x_2) = -0.04, but inside the band
        # of approach_tolerance 0.05, so it never collides: every policy stops at once
        config, state = configs.touching_pair(), _state([[0.01], [-0.01]])
        for schedule in (Schedule.round_robin(), Schedule.seeded_random(3), Schedule.greedy()):
            trace = run_schedule(config, state, schedule, approach_tolerance=0.05)
            assert (trace.steps, trace.collisions, trace.stabilized) == (0, 0, True)
            # at tolerance 0 the pair collides once, then separates
            trace = run_schedule(config, state, schedule)
            assert (trace.collisions, trace.stabilized) == (1, True)
            assert trace.states[-1].tolist() == [-0.01, 0.01]


class TestScheduleDistinctEdges:
    """An explicit schedule finds its distinct edges once, when it is built."""

    SQUARE_CONTACTS = [(0, 1), (0, 2), (1, 3), (2, 3)]

    def _square(self):
        config = configs.square()
        assert full_contact_graph(config).edges == tuple(self.SQUARE_CONTACTS)
        return config, _state([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("max_steps", [None, 12])
    def test_edge_after_the_run_goes_quiet_is_checked(self, max_steps):
        # the loop goes quiet long before the non-contact (1, 4), and with
        # max_steps=12 never reaches it; the run is refused all the same
        config, state = self._square()
        schedule = Schedule.explicit(self.SQUARE_CONTACTS * 5000 + [(0, 3)])
        with pytest.raises(ScheduleError, match=r"edge \(1, 4\) is not in the governing graph"):
            run_schedule(config, state, schedule, max_steps=max_steps)

    def test_stored_set(self):
        schedule = Schedule.explicit([(1, 0), (2, 3), (0, 1), (3, 2)])
        assert schedule.edges == ((0, 1), (2, 3), (0, 1), (2, 3))
        assert schedule.distinct_edges == {(0, 1), (2, 3)}
        for policy in (Schedule.round_robin(), Schedule.greedy(), Schedule.seeded_random(1)):
            assert policy.distinct_edges == frozenset()

    def test_equality_and_hash_ignore_the_set(self):
        a, b = Schedule.explicit([(1, 0), (2, 3)]), Schedule.explicit([(0, 1), (3, 2)])
        assert a == b and hash(a) == hash(b)
        assert a != Schedule.explicit([(2, 3), (0, 1)])
        assert "distinct_edges" not in repr(a)
        with pytest.raises(TypeError):
            Schedule("explicit", ((0, 1),), distinct_edges=frozenset())

    def test_each_distinct_pair_made_canonical_once(self):
        # the first pair of one ball raises, and an iterator of edges is read once
        with pytest.raises(ValueError, match=r"got \(2, 2\)"):
            Schedule.explicit([(0, 1), (2, 2), (1, 0), (3, 3)])
        schedule = Schedule("explicit", iter([(1, 0), (0, 1), (3, 2)]))
        assert schedule.edges == ((0, 1), (0, 1), (2, 3))

    def test_replace_recomputes_the_set(self):
        schedule = dataclasses.replace(Schedule.explicit([(0, 1)]), edges=((3, 2), (0, 1)))
        assert schedule.edges == ((2, 3), (0, 1))
        assert schedule.distinct_edges == {(0, 1), (2, 3)}


class TestSeededRandomDraws:
    """run_schedule draws seeded-random indices in blocks of _DRAW_BLOCK."""

    @pytest.mark.parametrize("count", [2, 7, 100, 2**40])
    @pytest.mark.parametrize("seed", [0, 1, 5, 2**31 - 1])
    def test_block_draws_equal_per_call_draws(self, count, seed):
        # numpy does not document this equality, so it is pinned here, across
        # block boundaries and with a last block capped at the draws left
        steps = 3 * dynamics._DRAW_BLOCK + 17
        per_call = np.random.default_rng(seed)
        expected = [int(per_call.integers(count)) for _ in range(steps)]
        blocked = np.random.default_rng(seed)
        drawn = []
        for start in range(0, steps, dynamics._DRAW_BLOCK):
            size = min(dynamics._DRAW_BLOCK, steps - start)
            drawn += blocked.integers(count, size=size).tolist()
        assert drawn == expected

    def test_long_run_follows_per_call_draws(self):
        # each ball of the row moves right faster than the next one: in one
        # dimension a collision swaps two velocities, so stabilizing takes one
        # collision per inversion, 780 > steps, and all max_steps indices are drawn
        n = 40
        config = configs.collinear_chain(n)
        state = _state([[float(n - 1 - 2 * k)] for k in range(n)])
        graph = full_contact_graph(config)
        steps = 2 * dynamics._DRAW_BLOCK + 99
        trace = run_schedule(config, state, Schedule.seeded_random(9), max_steps=steps)
        draws = np.random.default_rng(9)
        assert trace.edges == tuple(
            graph.edges[int(draws.integers(len(graph.edges)))] for _ in range(steps)
        )
        assert 0 < trace.collisions < n * (n - 1) // 2 and not trace.stabilized


class TestMonotoneFunctional:
    def test_two_ball_value_matches_pair_sum(self):
        config = BallConfiguration(1, np.array([[-1.0], [1.0]]))
        state = _state([[1 / math.sqrt(2)], [-1 / math.sqrt(2)]])
        value = functional_value(config, state.values)
        assert value == pytest.approx(-4 * math.sqrt(2))
        # direct evaluation of the double sum over ordered pairs
        direct = 0.0
        for i in range(2):
            for j in range(2):
                direct += float(
                    (state.block(j) - state.block(i)) @ (config.centers[j] - config.centers[i])
                )
        assert value == pytest.approx(direct, abs=1e-9)

    def test_zero_state(self):
        config = BallConfiguration(1, np.array([[-1.0], [1.0]]))
        assert functional_value(config, _state([[0.0], [0.0]]).values) == 0.0

    def test_bounded_by_four_n_squared(self, rng):
        for _ in range(100):
            config, state = random_system(rng)
            assert abs(functional_value(config, state.values)) <= 4.0 * config.n**2 + 1e-9

    def test_closed_form_matches_double_sum_uncentered(self, rng):
        # functional_value needs no centering; compare against the raw double sum
        for _ in range(20):
            config, state = random_system(rng)
            shifted = BallConfiguration(
                config.dimension, config.centers + 1.5, config.contact_tolerance
            )
            direct = 0.0
            for i in range(config.n):
                for j in range(config.n):
                    direct += float(
                        (state.block(j) - state.block(i))
                        @ (shifted.centers[j] - shifted.centers[i])
                    )
            assert functional_value(shifted, state.values) == pytest.approx(
                direct, abs=1e-9
            )


class TestTraceInvariants:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_conservation_monotonicity_and_jumps(self, seed):
        assert TRACE_TOLERANCES == (1e-12, 1e-12, 1e-9, 1e-9, 1e-9)
        rng = np.random.default_rng(seed)
        config, state = random_system(rng)
        graph = full_contact_graph(config)
        edges = [graph.edges[int(k)] for k in rng.integers(len(graph.edges), size=120)]
        trace = run_schedule(config, state, Schedule.explicit(edges), graph=graph)
        deviations = trace_deviations(config, trace)
        assert all(dev <= tol for dev, tol in zip(deviations, TRACE_TOLERANCES)), deviations


class TestDecomposeState:
    def test_direction_itself_projects_fully(self):
        config = configs.touching_pair()
        graph = full_contact_graph(config)
        z = collision_direction(config, (0, 1)).vector
        fixed, span = decompose_state(config, graph, StateVector(2, 1, z))
        np.testing.assert_allclose(span.values, z, atol=1e-14)
        np.testing.assert_allclose(fixed.values, 0.0, atol=1e-14)

    def test_orthogonal_state_has_no_span_part(self):
        config = configs.touching_pair()
        graph = full_contact_graph(config)
        state = _state([[1.0], [1.0]])  # orthogonal to z = (-1, 1)/sqrt2
        fixed, span = decompose_state(config, graph, state)
        np.testing.assert_allclose(span.values, 0.0, atol=1e-14)
        np.testing.assert_allclose(fixed.values, state.values, atol=1e-14)

    def test_collision_preserves_fixed_part_and_span_norm(self, rng):
        for _ in range(200):
            config, state = random_system(rng)
            graph = full_contact_graph(config)
            edge = graph.edges[int(rng.integers(len(graph.edges)))]
            fixed, span = decompose_state(config, graph, state)
            after = collide(config, state, edge)
            fixed2, span2 = decompose_state(config, graph, after)
            assert float(np.max(np.abs(fixed.values - fixed2.values))) <= 1e-12
            assert abs(
                np.linalg.norm(span.values) - np.linalg.norm(span2.values)
            ) <= 1e-12

    def test_non_touching_graph_edge_rejected(self):
        config = configs.collinear_chain(3)
        graph = ContactGraph(3, ((0, 1), (0, 2), (1, 2)))
        with pytest.raises(NotTouchingError) as exc:
            decompose_state(config, graph, _state([[1.0], [0.0], [-1.0]]))
        assert (exc.value.i, exc.value.j, exc.value.distance) == (0, 2, 4.0)


def _collide_replay(config, state, edges, tolerance=0.0):
    """Reference states: one dynamics.collide call per scheduled edge."""
    states = [state]
    for e in edges:
        states.append(collide(config, states[-1], e, tolerance))
    return np.array([s.values for s in states])


def _moved(before, after):
    return float(np.max(np.abs(after - before))) > CHANGE_TOLERANCE


def _stable(config, graph, values):
    return all(
        float(collision_direction(config, e).vector @ values) >= STABILITY_MARGIN
        for e in graph.edges
    )


class TestKernelAgainstCollide:
    """run_schedule's precomputed pair table against a plain loop over collide."""

    def _check_trace(self, config, state, graph, trace):
        expected = _collide_replay(config, state, trace.edges)
        assert np.array_equal(trace.states, expected)
        flags = [_moved(a, b) for a, b in zip(expected[:-1], expected[1:])]
        assert list(trace.changed) == flags
        for t, values in enumerate(trace.states):
            assert abs(trace.functional[t] - functional_value(config, values)) <= 1e-12
            assert abs(trace.energies[t] - float(values @ values)) <= 1e-12

    def test_explicit(self, rng):
        for _ in range(20):
            config, state = random_system(rng, n_max=10)
            graph = full_contact_graph(config)
            picks = rng.integers(len(graph.edges), size=300)
            edges = tuple(graph.edges[k] for k in picks)
            trace = run_schedule(config, state, Schedule.explicit(edges))
            assert trace.edges == edges and not trace.stabilized
            self._check_trace(config, state, graph, trace)

    def test_round_robin_and_seeded_random(self, rng):
        for k in range(20):
            config, state = random_system(rng, n_max=10)
            graph = full_contact_graph(config)
            seed = int(rng.integers(2**31))
            schedule = Schedule.round_robin() if k % 2 else Schedule.seeded_random(seed)
            trace = run_schedule(config, state, schedule, max_steps=5000)
            if k % 2:
                cycle = graph.edges * (trace.steps // len(graph.edges) + 1)
                assert trace.edges == cycle[: trace.steps]
            else:
                draws = np.random.default_rng(seed)
                assert trace.edges == tuple(
                    graph.edges[int(draws.integers(len(graph.edges)))]
                    for _ in range(trace.steps)
                )
            self._check_trace(config, state, graph, trace)
            # the run stops at its first stable state
            assert trace.stabilized and _stable(config, graph, trace.states[-1])
            assert not any(_stable(config, graph, v) for v in trace.states[:-1])

    def test_lexicographic_greedy(self, rng):
        for _ in range(20):
            config, state = random_system(rng, n_max=10)
            graph = full_contact_graph(config)
            trace = run_schedule(config, state, Schedule.greedy())
            current, edges = state, []
            while colliding := [
                e
                for e in graph.edges
                if _moved(current.values, collide(config, current, e).values)
            ]:
                edges.append(colliding[0])
                current = collide(config, current, colliding[0])
            assert trace.edges == tuple(edges) and trace.stabilized
            assert all(trace.changed)
            self._check_trace(config, state, graph, trace)

    def test_non_touching_graph_edge_is_identity(self):
        # balls 2 and 3 are 3 apart and approach each other, but never touch
        config = validate_configuration([[-2.0], [0.0], [3.0]])
        graph = ContactGraph(3, [(0, 1), (1, 2)])
        state = _state([[1.0], [0.0], [-1.0]])
        schedule = Schedule.explicit([(1, 2), (0, 1), (1, 2)])
        trace = run_schedule(config, state, schedule, graph=graph)
        assert list(trace.changed) == [False, True, False]
        np.testing.assert_array_equal(trace.states[1], state.values)
        np.testing.assert_array_equal(trace.states[3], trace.states[2])
        for schedule in (Schedule.round_robin(), Schedule.greedy()):
            trace = run_schedule(config, state, schedule, graph=graph)
            assert trace.stabilized and trace.collisions == 1
            np.testing.assert_array_equal(trace.states[-1], [0.0, 1.0, -1.0])


class TestKernelProperties:
    """The pair table, the walk and the search's moves against collide, exactly,
    and against collide_as_folding."""

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 7),
        d=st.integers(1, 3),
        tolerance=st.sampled_from([0.0, 1e-9, 0.05]),
    )
    def test_step_and_children_match_collide(self, seed, n, d, tolerance):
        rng = np.random.default_rng(seed)
        config = configs.random_contact_configuration(
            n, d, rng, style="mixed" if d >= 2 else "tree"
        )
        state = sample_unit_state(n, d, rng)
        graph = full_contact_graph(config)
        table, kernel = _pair_table(config, graph), _kernel(d)
        assert list(table) == [e for e in graph.edges if config.touches(*e)]
        for (i, j), pair in table.items():
            dx = config.centers[i] - config.centers[j]
            assert pair == (i, j, dx.tolist(), (dx / np.linalg.norm(dx)).tolist())
        # follow random collisions, so later checks see states the loops reach
        for _ in range(8):
            blocks = state.blocks().tolist()
            children = _children(table, blocks, tolerance)
            colliding = [e for e in graph.edges if collide(config, state, e, tolerance) is not state]
            assert list(children) == colliding
            assert _walk(kernel.exchanges, table, blocks, 1, tolerance)[0] == colliding[:1]
            for e in graph.edges:
                collided = collide(config, state, e, tolerance)
                expected = collided.blocks().tolist()
                rows, starts = [], []
                step, stabilized = kernel.run(blocks, (e,), table, tolerance, rows, starts)
                assert not stabilized
                if step is blocks:
                    assert collided.values is state.values
                    assert rows == starts == []
                else:
                    assert step == expected
                    assert rows == [step] and starts == [1]
                    # a child shares every block its exchange left alone
                    assert [k for k, b in enumerate(step) if b is not blocks[k]] == list(e)
                if _moved(state.values, np.ravel(expected)):
                    assert children[e] == expected
                else:
                    assert e not in children
                if tolerance == 0.0:
                    folded = collide_as_folding(config, state, e).values
                    assert float(np.max(np.abs(folded - np.ravel(expected)))) <= 1e-12
            assert blocks == state.blocks().tolist()
            if not children:
                break
            edges = list(children)
            state = state.with_values(np.ravel(children[edges[int(rng.integers(len(edges)))]]))


def _children(table, blocks, tolerance):
    """Edge -> next state for each pair of ``table`` that collides in ``blocks``,
    in graph order; at tolerance 0 the search's moves of a node with no parent
    must give the same blocks."""
    edges, out, exchanges = list(table), {}, _kernel(len(blocks[0])).exchanges
    for k, new_i, new_j in exchanges(blocks, table.values(), tolerance):
        i, j = edges[k]
        out[i, j] = blocks.copy()
        out[i, j][i], out[i, j][j] = new_i, new_j
    if tolerance == 0.0:
        fresh = _child_moves(
            exchanges, list(table.values()), {}, [None] * len(table), blocks, None, id
        )
        assert {e: list(move[:2]) for e, move in zip(edges, fresh) if move} == {
            (i, j): [child[i], child[j]] for (i, j), child in out.items()
        }
    return out


def _move_bits(moves):
    """Each entry of a moves list as the IEEE bytes of its two blocks and its two keys."""
    return [move and (np.array(move[:2]).tobytes(), *move[2:]) for move in moves]


class TestChildMoves:
    """Moves carried down random search paths against moves made afresh."""

    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 9),
        d=st.integers(2, 3),
        ties=st.integers(0, 3),
    )
    def test_child_moves_match_fresh_moves(self, seed, n, d, ties):
        rng = np.random.default_rng(seed)
        config = configs.random_contact_configuration(n, d, rng, style="mixed")
        graph = ContactGraph(n, full_contact_graph(config).edges[:10])
        table = _pair_table(config, graph)
        edges, pairs, near = list(table), list(table.values()), {}
        exchanges = _kernel(d).exchanges
        blocks = sample_unit_state(n, d, rng).blocks().tolist()
        for _ in range(ties):
            # equal velocities across a contact: an exact zero approach
            i, j = edges[int(rng.integers(len(edges)))]
            blocks[j] = blocks[i].copy()
        pack = struct.Struct(f"{d}d").pack

        def key(block):
            return _point_key(block, pack)

        moves = _child_moves(exchanges, pairs, near, [None] * len(edges), blocks, None, key)
        for _ in range(12):
            options = [m for m, move in enumerate(moves) if move]
            state = StateVector.from_blocks(blocks)
            # the search collides at approach tolerance 0
            assert [edges[m] for m in options] == [
                e for e in edges if collide(config, state, e) is not state
            ]
            if not options:
                break
            k = options[int(rng.integers(len(options)))]
            (i, j), blocks = edges[k], blocks.copy()
            blocks[i], blocks[j] = moves[k][:2]
            moves = _child_moves(exchanges, pairs, near, moves, blocks, k, key)
            fresh = _child_moves(exchanges, pairs, {}, [None] * len(edges), blocks, None, key)
            assert _move_bits(moves) == _move_bits(fresh)


#: Components that reach signed zeros, exchanges below CHANGE_TOLERANCE and
#: approaches inside a tolerance band of 0.05, besides ordinary values.
_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-15, -1e-15, 4e-15, -4e-15, 0.01, -0.01, 0.5, -1.0]),
    st.floats(-1e-13, 1e-13),
    st.floats(-4.0, 4.0),
)


class TestGeneratedKernel:
    """The kernel generated for each dimension against the reference loops, bit for bit."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(
        data=st.data(),
        d=st.integers(1, 6),
        n=st.integers(2, 5),
        tolerance=st.sampled_from([0.0, 1e-14, 0.05]),
        bound=st.sampled_from([STABILITY_MARGIN * 2**0.5, 0.0, 0.02]),
    )
    def test_matches_reference_loops(self, data, d, n, tolerance, bound):
        vector = st.lists(_COMPONENTS, min_size=d, max_size=d)
        blocks = data.draw(st.lists(vector, min_size=n, max_size=n))
        ends = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        pairs = data.draw(st.lists(st.tuples(ends, vector, vector), max_size=8))
        pairs = [(i, j, dx, u) for (i, j), dx, u in pairs]
        kernel, pack = _kernel(d), struct.Struct(f"{d}d").pack

        def bits(found):
            return [(k, pack(*new_i), pack(*new_j)) for k, new_i, new_j in found]

        assert bits(kernel.exchanges(blocks, pairs, tolerance)) == bits(
            _exchanges(blocks, pairs, tolerance)
        )
        assert kernel.first_unstable(blocks, pairs, tolerance, bound) == _first_unstable(
            blocks, pairs, tolerance, bound
        )
        # a run over pair indices, some of them missing from its table
        planned = data.draw(st.lists(st.integers(0, 8), max_size=12))
        quiet, policy = data.draw(st.sampled_from([None, 1, 3])), data.draw(st.booleans())

        def stable(blocks):
            return _first_unstable(blocks, pairs, tolerance, bound) is None

        def outcome(run):
            rows, starts, applied = [blocks], [0], [] if policy else None
            last, stabilized = run(
                blocks, planned, dict(enumerate(pairs)), tolerance, rows, starts, quiet,
                applied, stable if policy else None,
            )
            rows = [b"".join(pack(*b) for b in row) for row in rows + [last]]
            return rows, starts, applied, stabilized

        assert outcome(kernel.run) == outcome(_run)

    def test_signed_zero_and_empty_inputs(self):
        kernel = _kernel(2)
        assert list(kernel.exchanges([[0.0, -0.0]], [], 0.0)) == []
        assert kernel.first_unstable([[0.0, -0.0]], [], 0.0, 0.0) is None
        # an exact zero approach, of either sign, is no collision
        for zero in (0.0, -0.0):
            pair = (0, 1, [zero, 1.0], [zero, 1.0])
            assert list(kernel.exchanges([[1.0, 0.0], [-1.0, 0.0]], [pair], 0.0)) == []

    @pytest.mark.parametrize("a, b, u", [
        # v_i moves by 1.4e-14, one ulp of 64, and v_j by half that: one moved block is enough
        ([64.00000000000001, 1e-14], [63.99999999999999, 1000.0], [-0.6, 0.0]),
        ([0.0, 64.0], [-1.999999999999999e-14, 64.0], [-0.6, -0.6]),  # the other way round
    ])
    def test_either_block_moving_is_a_collision(self, a, b, u):
        pair, kernel = (0, 1, u, u), _kernel(2)
        found = list(kernel.exchanges([a, b], [pair], 0.0))
        assert len(found) == 1 and found == list(_exchanges([a, b], [pair], 0.0))
        rows, starts = [], []
        assert kernel.run([a, b], [(0, 1)], {(0, 1): pair}, 0.0, rows, starts) == (
            list(found[0][1:]), False
        )
        assert rows == [list(found[0][1:])] and starts == [1]

    def test_sums_in_component_order(self):
        # 1e16 - 1e16 - 1 is -1 summed left to right, 0 in any other order: the
        # approach, t and the margin each decide the outcome here
        blocks, ones = [[1e16, -1e16, -1.0], [0.0, 0.0, 0.0]], [1.0, 1.0, 1.0]
        pairs, kernel = [(0, 1, ones, ones)], _kernel(3)
        found = list(kernel.exchanges(blocks, pairs, 0.0))
        assert found == list(_exchanges(blocks, pairs, 0.0))
        assert found == [(0, [1e16, -1e16, 0.0], [-1.0, -1.0, -1.0])]
        assert kernel.first_unstable(blocks, pairs, 0.0, 0.0) == 0

    @pytest.mark.parametrize("d", [4, 5])
    def test_runs_and_search_in_higher_dimensions(self, d, monkeypatch):
        rng = np.random.default_rng(40 + d)
        config = configs.random_contact_configuration(6, d, rng, style="mixed")
        config, state = normalize_system(config, sample_unit_state(6, d, rng))
        graph = ContactGraph(6, full_contact_graph(config).edges[:6])
        schedules = (Schedule.round_robin(), Schedule.seeded_random(d), Schedule.greedy())

        def outcomes():
            traces = [run_schedule(config, state, s, graph=graph) for s in schedules]
            found = exhaustive_max_collisions(config, state, graph=graph)
            return [
                (t.states.tobytes(), t.edges, t.changed.tolist(), t.stabilized) for t in traces
            ] + [(found.collisions, found.witness, found.nodes_explored, found.truncated)]

        generated = outcomes()
        reference = dynamics._Kernel(_exchanges, _first_unstable, _run)
        monkeypatch.setattr(dynamics, "_kernel", lambda d: reference)
        monkeypatch.setattr(search, "_kernel", lambda d: reference)
        assert outcomes() == generated
        assert generated[-1][0] > 0


    @pytest.mark.parametrize("d", range(1, 7))
    def test_runs_match_the_reference_step_loop(self, d, monkeypatch):
        rng = np.random.default_rng(50 + d)
        config = configs.random_contact_configuration(5, d, rng, style="mixed")
        config, state = normalize_system(config, sample_unit_state(5, d, rng))
        apart = next(e for e in itertools.combinations(range(5), 2) if not config.touches(*e))
        graph = ContactGraph(5, [*full_contact_graph(config).edges, apart])
        picks = [graph.edges[k] for k in rng.integers(len(graph.edges), size=40)]
        runs = [
            (Schedule.explicit(picks * 10), None, 0.0),  # repeats, then idle to the end
            (Schedule.explicit(picks * 10), 5, 0.0),  # cut by max_steps
            (Schedule.explicit([apart] * 3 + picks), None, 0.3),
        ] + [
            (policy, max_steps, tolerance)
            for policy in (Schedule.round_robin(), Schedule.seeded_random(d))
            for max_steps in (3, 400)
            for tolerance in (0.0, 0.3)
        ]

        def outcomes():
            traces = [run_schedule(config, state, s, m, graph, tol) for s, m, tol in runs]
            return [(t.states.tobytes(), t.edges, t.changed.tolist(), t.stabilized) for t in traces]

        generated = outcomes()
        monkeypatch.setattr(
            dynamics, "_kernel", lambda d: dynamics._Kernel(_exchanges, _first_unstable, _run)
        )
        assert outcomes() == generated
        # the long run goes quiet in its first half, so its idle stop ends the stepping
        changed = generated[0][2]
        assert any(changed) and not any(changed[len(changed) // 2:])


class TestCollisionPredicate:
    """A step changes the state exactly when it counts as a collision."""

    def test_sub_tolerance_exchange_is_no_collision(self):
        # the pair approaches, but its exchange would move v by 1e-15 < CHANGE_TOLERANCE
        config, graph = configs.touching_pair(), ContactGraph(2, [(0, 1)])
        for speed, collides in ((1e-15, False), (1e-13, True)):
            state = _state([[speed], [0.0]])
            after = collide(config, state, (0, 1))
            assert (after is not state) == collides
            if collides:
                assert after.blocks().tolist() == [[0.0], [speed]]
            for schedule in (
                Schedule.explicit([(0, 1)] * 3), Schedule.round_robin(),
                Schedule.greedy(), Schedule.seeded_random(5),
            ):
                trace = run_schedule(config, state, schedule, max_steps=3, graph=graph)
                moved = np.any(trace.states[1:] != trace.states[:-1], axis=1)
                assert list(moved) == list(trace.changed)
                if schedule.kind == "explicit":
                    assert trace.collisions == collides
            walked = _walk(
                _kernel(1).exchanges, _pair_table(config, graph), state.blocks().tolist(), 3, 0.0
            )
            assert walked[0] == [(0, 1)] * collides

    def test_changed_flags_mark_state_changes(self, rng):
        for k in range(30):
            config, state = random_system(rng, n_max=8)
            graph = full_contact_graph(config)
            picks = tuple(graph.edges[m] for m in rng.integers(len(graph.edges), size=300))
            # at 3e-14 many exchanges move the state by less than CHANGE_TOLERANCE
            for scale in (1.0, 3e-14):
                start = state.with_values(state.values * scale)
                for schedule in (
                    Schedule.explicit(picks), Schedule.round_robin(),
                    Schedule.greedy(), Schedule.seeded_random(k),
                ):
                    trace = run_schedule(config, start, schedule, max_steps=2000)
                    moved = np.any(trace.states[1:] != trace.states[:-1], axis=1)
                    assert np.array_equal(moved, trace.changed)
                    expected = _collide_replay(config, start, trace.edges)
                    assert np.array_equal(trace.states, expected)


class TestChangePoints:
    """Explicit runs keep only distinct states and stop once every edge is idle."""

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 7),
        d=st.integers(1, 3),
        tolerance=st.sampled_from([0.0, 1e-9, 0.05]),
        length=st.integers(0, 3000),
        cut=st.sampled_from(["none", "zero", "below", "above"]),
        detached=st.booleans(),
    )
    def test_explicit_matches_collide_loop(self, seed, n, d, tolerance, length, cut, detached):
        rng = np.random.default_rng(seed)
        config = configs.random_contact_configuration(
            n, d, rng, style="mixed" if d >= 2 else "tree"
        )
        state = sample_unit_state(n, d, rng)
        edges = list(full_contact_graph(config).edges)
        if detached:
            # a graph edge whose balls do not touch, when the configuration has one
            edges += [
                (i, j) for i in range(n) for j in range(i + 1, n) if not config.touches(i, j)
            ][:1]
        graph = ContactGraph(n, edges)
        # a short random prefix, then whole passes over the graph: once the
        # state has settled, the rest of the schedule is an idle tail
        picks = [edges[k] for k in rng.integers(len(edges), size=min(length, 40))]
        schedule = Schedule.explicit((picks + edges * length)[:length])
        max_steps = {
            "none": None, "zero": 0, "below": length // 3, "above": length + 7
        }[cut]
        trace = run_schedule(
            config, state, schedule, max_steps=max_steps, graph=graph,
            approach_tolerance=tolerance,
        )
        assert trace.edges == schedule.edges[:max_steps] and not trace.stabilized
        expected = _collide_replay(config, state, trace.edges, tolerance)
        assert np.array_equal(trace.states, expected)
        flags = [_moved(a, b) for a, b in zip(expected[:-1], expected[1:])]
        assert list(trace.changed) == flags
        assert np.array_equal(trace.energies, np.einsum("ti,ti->t", expected, expected))
        f = functional_value(config, expected)
        scale = max(1.0, float(np.max(np.abs(f))))
        assert float(np.max(np.abs(trace.functional - f))) <= 1e-12 * scale

    def test_idle_tail_costs_no_exchanges(self, rng, monkeypatch):
        calls = 0
        pair_table = dynamics._pair_table

        class CountedTable(dict):
            def get(self, edge):
                nonlocal calls
                calls += 1
                return super().get(edge)

        # a run builds its pair table once; each step it tests looks its pair up once
        monkeypatch.setattr(dynamics, "_pair_table", lambda *args: CountedTable(pair_table(*args)))
        config, state = random_system(rng, n_max=6, d_max=2)
        graph = full_contact_graph(config)
        edges = (graph.edges * 100_000)[:100_000]
        trace = run_schedule(config, state, Schedule.explicit(edges))
        assert trace.steps == 100_000 and trace.collisions > 0
        assert trace.collisions <= calls <= (trace.collisions + 1) * len(graph.edges)
