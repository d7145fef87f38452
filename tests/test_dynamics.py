import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinnedballs import configs, dynamics
from pinnedballs.dynamics import (
    CHANGE_TOLERANCE,
    Schedule,
    _exchanged,
    _exchanges,
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
from pinnedballs.search import _child_moves, sample_unit_state
from pinnedballs.verify import TRACE_TOLERANCES, random_system, trace_deviations


def _state(blocks):
    return StateVector.from_blocks(blocks)


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
        # pairs approach by less than the tolerance, so no step collides and the
        # run never stabilizes: all max_steps indices are drawn
        config = configs.collinear_chain(3)
        state = _state([[0.01], [0.0], [-0.01]])
        graph = full_contact_graph(config)
        steps = 2 * dynamics._DRAW_BLOCK + 99
        trace = run_schedule(
            config, state, Schedule.seeded_random(9), max_steps=steps, approach_tolerance=0.05
        )
        draws = np.random.default_rng(9)
        assert trace.edges == tuple(
            graph.edges[int(draws.integers(len(graph.edges)))] for _ in range(steps)
        )
        assert trace.collisions == 0 and not trace.stabilized


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
        table = _pair_table(config, graph)
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
            assert _walk(table, blocks, 1, tolerance)[0] == colliding[:1]
            for e in graph.edges:
                collided = collide(config, state, e, tolerance)
                expected = collided.blocks().tolist()
                step = _exchanged(blocks, table[e], tolerance)
                if step is None:
                    assert collided.values is state.values
                else:
                    assert step == expected
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
    edges, out = list(table), {}
    for k, new_i, new_j in _exchanges(blocks, table.values(), tolerance):
        i, j = edges[k]
        out[i, j] = blocks.copy()
        out[i, j][i], out[i, j][j] = new_i, new_j
    if tolerance == 0.0:
        fresh = _child_moves(list(table.values()), {}, [None] * len(table), blocks, None, id)
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
        blocks = sample_unit_state(n, d, rng).blocks().tolist()
        for _ in range(ties):
            # equal velocities across a contact: an exact zero approach
            i, j = edges[int(rng.integers(len(edges)))]
            blocks[j] = blocks[i].copy()
        pack = struct.Struct(f"{d}d").pack

        def key(block):
            return _point_key(block, pack)

        moves = _child_moves(pairs, near, [None] * len(edges), blocks, None, key)
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
            moves = _child_moves(pairs, near, moves, blocks, k, key)
            fresh = _child_moves(pairs, {}, [None] * len(edges), blocks, None, key)
            assert _move_bits(moves) == _move_bits(fresh)


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
            walked = _walk(_pair_table(config, graph), state.blocks().tolist(), 3, 0.0)
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
        exchanges = dynamics._exchanges

        def counted(*args):
            nonlocal calls
            calls += 1
            return exchanges(*args)

        monkeypatch.setattr(dynamics, "_exchanges", counted)
        config, state = random_system(rng, n_max=6, d_max=2)
        graph = full_contact_graph(config)
        edges = (graph.edges * 100_000)[:100_000]
        trace = run_schedule(config, state, Schedule.explicit(edges))
        assert trace.steps == 100_000 and trace.collisions > 0
        assert calls <= (trace.collisions + 1) * len(graph.edges)
