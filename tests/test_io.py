import json
import math

import numpy as np
import pytest

from pinnedballs import configs, io
from pinnedballs.dynamics import Schedule, run_schedule
from pinnedballs.foldings import HalfSpace
from pinnedballs.geometry import StateVector, normalize_system


class TestConfigurationFiles:
    def test_round_trip_with_velocities(self, tmp_path):
        path = tmp_path / "config.json"
        config = configs.triangle()
        state = StateVector.from_blocks([[0.1, 0.2], [0.3, -0.4], [0.0, 0.5]])
        io.save_configuration(path, config, state)
        loaded, velocities = io.load_configuration(path)
        np.testing.assert_array_equal(loaded.centers, config.centers)
        np.testing.assert_array_equal(velocities.values, state.values)
        assert loaded.contact_tolerance == config.contact_tolerance

    def test_velocities_optional(self, tmp_path):
        path = tmp_path / "config.json"
        io.save_configuration(path, configs.touching_pair())
        _, velocities = io.load_configuration(path)
        assert velocities is None

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {"dimension": 1, "centers": [[0.0], [2.0]], "velocities": [[1.0]]}
            )
        )
        with pytest.raises(ValueError):
            io.load_configuration(path)

    @pytest.mark.parametrize("velocities", [[[1], [1, 2]], [[1, 2], [1]], [[1, 2]], []])
    def test_ragged_or_short_velocities_name_file_and_field(self, tmp_path, velocities):
        # before, ragged rows reached np.array, whose "inhomogeneous shape"
        # error named neither the file nor the field
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"centers": [[0, 0], [2, 0]], "velocities": velocities}))
        with pytest.raises(ValueError, match=r"config\.json: velocities rows of lengths .* do not"):
            io.load_configuration(path)

    @pytest.mark.parametrize(
        "field, payload",
        [
            ("dimension", {"dimension": True, "centers": [[0.0], [2.0]], "contact_tolerance": True}),
            ("contact_tolerance", {"centers": [[0.0], [2.0]], "contact_tolerance": True}),
            ("centers", {"centers": [[False], [True]]}),
            ("velocities", {"centers": [[0.0], [2.0]], "velocities": [[0.5], [False]]}),
            ("dimension", {"dimension": "1", "centers": [[0.0], [2.0]]}),
            ("contact_tolerance", {"centers": [[0.0], [2.0]], "contact_tolerance": "1e-9"}),
            ("centers", {"centers": [["0"], ["2"]]}),
            ("velocities", {"centers": [[0.0], [2.0]], "velocities": [["1"], ["-1"]]}),
            ("centers", {"centers": [[0.0], [None]]}),
            # a flat or over-nested list, or a bare number, where rows belong
            ("centers", {"centers": [0, 2]}),
            ("centers", {"centers": 5}),
            ("centers", {"centers": [[[0]], [[2]]]}),
            ("velocities", {"centers": [[0.0], [2.0]], "velocities": [0.5, 0.0]}),
        ],
    )
    def test_non_number_rejected(self, tmp_path, field, payload):
        # before, true and false loaded as the numbers 1 and 0, and float()
        # parsed numeric strings
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"'{field}' must hold JSON numbers only"):
            io.load_configuration(path)

    @pytest.mark.parametrize(
        "text", ['"centers"', '[["centers"]]', '{"dimension": 1}', '{"centers": null}']
    )
    def test_object_with_centers_required(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="need a JSON object with 'centers'"):
            io.load_configuration(path)

    def test_integers_still_load(self, tmp_path):
        path = tmp_path / "config.json"
        payload = {"centers": [[0], [2]], "velocities": [[1], [0]], "contact_tolerance": 0}
        path.write_text(json.dumps(payload))
        config, velocities = io.load_configuration(path)
        assert config.dimension == 1 and config.contact_tolerance == 0.0
        np.testing.assert_array_equal(config.centers, [[0.0], [2.0]])
        np.testing.assert_array_equal(velocities.values, [1.0, 0.0])


class TestScheduleFiles:
    def test_round_trip_is_one_based_on_disk(self, tmp_path):
        path = tmp_path / "schedule.json"
        io.save_schedule(path, [(0, 1), (1, 2)])
        assert json.loads(path.read_text()) == [[1, 2], [2, 3]]
        schedule = io.load_schedule(path)
        assert schedule.edges == ((0, 1), (1, 2))

    def test_zero_based_file_rejected(self, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text("[[0, 1]]")
        with pytest.raises(ValueError):
            io.load_schedule(path)

    @pytest.mark.parametrize(
        "entries", ["[[1.7, 2], [2, 3.9]]", "[[1, 2.0]]", "[[true, 2]]", '[["1", 2]]']
    )
    def test_non_integer_index_rejected(self, tmp_path, entries):
        # before, int() truncated 1.7 and 3.9 into the edges (1, 2), (2, 3)
        path = tmp_path / "schedule.json"
        path.write_text(entries)
        with pytest.raises(ValueError, match="must be integers"):
            io.load_schedule(path)


class TestTraceFiles:
    def test_trace_records_schema(self, tmp_path):
        config, state = normalize_system(
            configs.touching_pair(), StateVector.from_blocks([[1.0], [-1.0]])
        )
        trace = run_schedule(config, state, Schedule.explicit([(0, 1)]))
        path = tmp_path / "trace.jsonl"
        io.write_trace_jsonl(path, trace)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [list(r) for r in records] == [["t", "edge", "changed", "F", "energy"]]
        assert records == [
            {
                "t": 1,
                "edge": [1, 2],
                "changed": True,
                "F": pytest.approx(4 * math.sqrt(2)),
                "energy": pytest.approx(1.0),
            }
        ]

    def test_records_follow_the_trace(self, tmp_path):
        # step t applied edges[t - 1]; F and energy are those of states[t]
        config = configs.collinear_chain(3)
        state = StateVector.from_blocks([[1.0], [0.0], [-1.0]])
        trace = run_schedule(config, state, Schedule.explicit([(1, 2), (0, 1), (1, 2), (0, 1)]))
        path = tmp_path / "trace.jsonl"
        io.write_trace_jsonl(path, trace)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["t"] for r in records] == [1, 2, 3, 4]
        assert [r["edge"] for r in records] == io.one_based(trace.edges)
        assert [r["changed"] for r in records] == trace.changed.tolist()
        assert [r["F"] for r in records] == trace.functional[1:].tolist()
        assert [r["energy"] for r in records] == trace.energies[1:].tolist()


class TestHalfspaceFiles:
    def test_round_trip_normalizes(self, tmp_path):
        path = tmp_path / "halfspaces.json"
        path.write_text(json.dumps({"dimension": 2, "normals": [[3.0, 0.0], [0.0, 1.0]]}))
        halfspaces = io.load_halfspaces(path)
        np.testing.assert_allclose(halfspaces[0].normal, [1.0, 0.0])
        io.save_halfspaces(tmp_path / "out.json", halfspaces)
        again = io.load_halfspaces(tmp_path / "out.json")
        assert all(
            np.allclose(a.normal, b.normal) for a, b in zip(halfspaces, again)
        )

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "halfspaces.json"
        path.write_text(json.dumps({"dimension": 3, "normals": [[1.0, 0.0]]}))
        with pytest.raises(ValueError):
            io.load_halfspaces(path)
