import ctypes
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pinnedballs
from pinnedballs import configs
from pinnedballs.cli import main
from pinnedballs.foldings import adversarial_two_halfplanes
from pinnedballs.geometry import StateVector, full_contact_graph
from pinnedballs.io import save_configuration, save_halfspaces, save_schedule
from pinnedballs.lattice import lattice_alpha_lower_bound_log2


def _openblas(name):
    """The function ``name`` of the OpenBLAS that numpy bundles, or None where it has none."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        if (function := getattr(ctypes.CDLL(str(path)), name, None)) is not None:
            return function
    return None


@pytest.fixture(autouse=True)
def _restore_blas_threads():
    """``main`` runs OpenBLAS on one thread for the rest of the process; give the
    tests after each one here the thread count they had."""
    get = _openblas("scipy_openblas_get_num_threads64_")
    set_threads = _openblas("scipy_openblas_set_num_threads64_")
    if get is None or set_threads is None:
        yield
        return
    before = get()
    yield
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(before)


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def chain_config(tmp_path):
    return _write(
        tmp_path / "chain.json",
        {
            "dimension": 1,
            "centers": [[-2.0], [0.0], [2.0]],
            "velocities": [[0.7071067811865475], [0.0], [-0.7071067811865475]],
        },
    )


@pytest.fixture
def flower_config(tmp_path):
    path = tmp_path / "flower.json"
    save_configuration(str(path), configs.hexagonal_flower())
    return str(path)


#: Centers 1e300 apart, whose squared distance and F overflow the doubles.
FAR_SYSTEM = {"dimension": 1, "centers": [[0], [2], [1e300]], "velocities": [[1e10], [0], [1]]}


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_valid_configuration(self, capsys, chain_config):
        code, out, _ = _run(capsys, ["validate", chain_config])
        assert code == 0
        report = json.loads(out)
        assert report["valid"] and report["connected"]
        assert report["touching_pairs"] == [[1, 2], [2, 3]]
        assert report["manifest"]["command"] == "validate"

    def test_overlapping_configuration(self, capsys, tmp_path):
        path = _write(
            tmp_path / "bad.json",
            {"dimension": 2, "centers": [[0.0, 0.0], [1.0, 0.0]]},
        )
        code, out, err = _run(capsys, ["validate", path])
        assert code == 1
        assert "balls 1 and 2" in err

    def test_usage_error_exit_code(self, chain_config):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--mode", "bogus"])
        assert exc.value.code == 2


class TestSimulate:
    def test_trace_and_collision_count(self, capsys, chain_config, tmp_path):
        schedule = _write(tmp_path / "schedule.json", [[1, 2], [2, 3], [1, 2]])
        trace_path = str(tmp_path / "trace.jsonl")
        code, out, _ = _run(
            capsys, ["simulate", chain_config, schedule, "--trace", trace_path]
        )
        assert code == 0
        report = json.loads(out)
        assert report["collisions"] == 3
        records = [json.loads(line) for line in open(trace_path)]
        assert [r["t"] for r in records] == [1, 2, 3]
        assert records[0]["edge"] == [1, 2]
        assert all(r["changed"] for r in records)
        fs = [r["F"] for r in records]
        assert fs == sorted(fs)

    def test_foreign_edge_fails(self, capsys, chain_config, tmp_path):
        schedule = _write(tmp_path / "schedule.json", [[1, 3]])
        code, _, err = _run(capsys, ["simulate", chain_config, schedule])
        assert code == 1
        assert "not in the governing graph" in err

    def test_fractional_index_fails(self, capsys, chain_config, tmp_path):
        schedule = _write(tmp_path / "schedule.json", [[1.7, 2], [2, 3.9]])
        code, out, err = _run(capsys, ["simulate", chain_config, schedule])
        assert code == 1 and out == ""
        assert "must be integers" in err

    def test_negative_max_steps_fails(self, capsys, chain_config, tmp_path):
        schedule = _write(tmp_path / "schedule.json", [[1, 2], [2, 3]])
        code, out, err = _run(
            capsys, ["simulate", chain_config, schedule, "--max-steps", "-1"]
        )
        assert code == 1
        assert out == ""
        assert "max_steps" in err


class TestAlpha:
    def test_chain_alpha(self, capsys, chain_config):
        code, out, _ = _run(capsys, ["alpha", chain_config])
        assert code == 0
        report = json.loads(out)
        assert report["alpha"] == pytest.approx(math.sqrt(3.0) / 2.0)
        assert "candidates" not in report

    def test_verbose_includes_table(self, capsys, chain_config):
        code, out, _ = _run(capsys, ["alpha", chain_config, "--verbose"])
        report = json.loads(out)
        assert len(report["candidates"]) == report["n_candidates"] == 2

    def test_verbose_lists_every_candidate(self, capsys, flower_config, tmp_path):
        p13 = str(tmp_path / "p13.json")
        assert main(["lattice", "--radius", "3.5", "--save-config", p13]) == 0
        capsys.readouterr()
        for path, rows in [(flower_config, 132), (p13, 144)]:
            code, out, _ = _run(capsys, ["alpha", path, "--verbose"])
            report = json.loads(out)
            assert code == 0
            assert len(report["candidates"]) == report["n_candidates"] == rows
            first = min(report["candidates"], key=lambda row: row["value"])
            assert first["value"] == report["alpha"]
            assert first["edge"] == report["argmin_edge"]
            assert sorted(first["others"] + [first["edge"]]) == report["argmin_edges"]

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-9"])
    def test_malformed_zero_tolerance_fails(self, capsys, flower_config, tolerance):
        code, out, err = _run(capsys, ["alpha", flower_config, f"--zero-tolerance={tolerance}"])
        assert code == 1
        assert out == ""
        assert "zero_tolerance" in err

    @pytest.mark.parametrize(
        "argv", [["--budget", "0"], ["--budget", "66"], ["--budget", "9", "--verbose"]]
    )
    def test_budget(self, capsys, flower_config, argv):
        # the flower takes 66 cocircuits and one search node, with or without --verbose
        code, out, err = _run(capsys, ["alpha", flower_config, *argv])
        assert code == 1
        assert out == ""
        assert "budget" in err
        code, out, _ = _run(capsys, ["alpha", flower_config, "--budget", "67"])
        assert code == 0
        assert json.loads(out)["n_zero"] == 12


class TestBound:
    def test_general_example(self, capsys):
        code, out, _ = _run(
            capsys,
            ["bound", "--n", "2", "--d", "1", "--alpha", "1", "--tau", "value:2"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["log2_bound"] == pytest.approx(15.5)

    def test_alpha_from_config(self, capsys, chain_config):
        code, out, _ = _run(capsys, ["bound", "--alpha-from", chain_config])
        report = json.loads(out)
        assert report["alpha_source"] == "hyperplanes"
        assert report["alpha"] == pytest.approx(math.sqrt(3.0) / 2.0)

    def test_tree_and_lattice_modes(self, capsys):
        code, out, _ = _run(capsys, ["bound", "--mode", "tree", "--n", "4", "--d", "2"])
        assert code == 0
        assert json.loads(out)["alpha_source"] == "tree-bound-corrected"
        code, out, _ = _run(capsys, ["bound", "--mode", "lattice", "--n", "4"])
        assert code == 0
        assert json.loads(out)["exact_below_rounded"] is True

    def test_missing_alpha_is_domain_error(self, capsys):
        code, _, err = _run(capsys, ["bound", "--n", "2", "--d", "1"])
        assert code == 1
        assert "alpha" in err

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["--mode", "tree", "--d", "2"], "--n"),
            (["--mode", "tree", "--n", "4"], "--d"),
            (["--mode", "tree"], "--n and --d"),
            (["--mode", "lattice"], "--n"),
            (["--alpha", "1", "--n", "2"], "--d"),
        ],
    )
    def test_missing_size_flag_is_domain_error(self, capsys, argv, missing):
        # before, tree and lattice modes left a TypeError traceback and no error line
        code, out, err = _run(capsys, ["bound", *argv])
        assert code == 1 and out == ""
        mode = argv[1] if argv[0] == "--mode" else "general"
        assert err == f"error: {mode} mode needs {missing}\n"

    @pytest.mark.parametrize("tau", ["value:x", "value:1e3", "value:", "sideways"])
    @pytest.mark.parametrize("mode", [
        ["--n", "2", "--d", "1", "--alpha", "1"], ["--mode", "tree", "--n", "4", "--d", "2"],
    ])
    def test_malformed_tau_names_the_flag(self, capsys, tau, mode):
        # before, value:x printed int()'s "invalid literal for int() with base 10"
        code, out, err = _run(capsys, ["bound", *mode, "--tau", tau])
        assert code == 1 and out == ""
        assert err.startswith("error: --tau: ") and repr(tau) in err

    @pytest.mark.parametrize("argv", [
        ["--mode", "tree", "--n", "10", "--d", "700"],
        ["--n", "2", "--d", "1", "--alpha", "1", "--tau", "value:" + "9" * 400],
    ], ids=["tree-d700", "tau-400-digits"])
    def test_exponent_past_the_floats_is_domain_error(self, capsys, argv):
        # before, float(exponent) ended in an OverflowError traceback
        code, out, err = _run(capsys, ["bound", *argv])
        assert code == 1 and out == ""
        assert err.startswith("error: the bound's exponent tau*n/2 - 1 has ")

    @pytest.mark.parametrize("argv", [
        ["--mode", "lattice"], ["--mode", "tree", "--d", "2"],
    ], ids=["lattice", "tree"])
    def test_n_past_the_floats_is_domain_error(self, capsys, argv):
        # before, 8.0 * n and sqrt(2) / n ended in an OverflowError traceback
        code, out, err = _run(capsys, ["bound", *argv, "--n", "9" * 320])
        assert code == 1 and out == ""
        assert err == "error: n has 320 digits, too many for a float\n"

    @pytest.mark.parametrize("n, normal", [(126, True), (127, False), (133, False)])
    def test_lattice_floor_below_normal_floats(self, capsys, n, normal):
        # the floor is subnormal from n = 127 and 0.0 from n = 133, an alpha that
        # --alpha refuses: the report then gives it by its log2 alone
        code, out, _ = _run(capsys, ["bound", "--mode", "lattice", "--n", str(n)])
        assert code == 0
        report = json.loads(out)
        assert report["alpha_log2"] == lattice_alpha_lower_bound_log2(n)
        if normal:
            assert report["alpha"] == 2.0 ** report["alpha_log2"] >= sys.float_info.min
        else:
            assert report["alpha"] is None
        assert list(report)[-5:] == [
            "alpha_log2", "rounded_log2", "exact_below_rounded", "mode", "manifest"
        ]


class TestOrbitCommand:
    def test_round_robin_orbit(self, capsys, tmp_path):
        path = _write(
            tmp_path / "halfspaces.json",
            {"dimension": 2, "normals": [[1.0, 0.0], [0.0, 1.0]]},
        )
        code, out, _ = _run(
            capsys,
            [
                "orbit", path,
                "--start", "[-1.0, -1.0]",
                "--witness", "[0.7, 0.7]",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["stabilization_index"] is not None
        assert report["size"] <= 4

    def test_bad_witness(self, capsys, tmp_path):
        path = _write(
            tmp_path / "halfspaces.json", {"dimension": 2, "normals": [[1.0, 0.0]]}
        )
        code, _, err = _run(
            capsys,
            ["orbit", path, "--start", "[1.0, 0.0]", "--witness", "[-1.0, 0.0]"],
        )
        assert code == 1
        assert "margin" in err

    def test_periodic_word_out_of_range(self, capsys, tmp_path):
        path = _write(
            tmp_path / "halfspaces.json",
            {"dimension": 2, "normals": [[1.0, 0.0], [0.0, 1.0]]},
        )
        code, out, err = _run(
            capsys,
            [
                "orbit", path,
                "--start", "[-1.0, -1.0]",
                "--witness", "[0.7, 0.7]",
                "--policy", "periodic",
                "--word", "0,5",
            ],
        )
        assert code == 1
        assert out == ""
        assert "out of range" in err

    @pytest.mark.parametrize("word", [None, "0,,1", "0,a", "1.5"])
    def test_malformed_word_names_the_flag(self, capsys, tmp_path, word):
        # before, a missing --word printed int()'s "invalid literal for int() with base 10: ''"
        path = _write(
            tmp_path / "halfspaces.json",
            {"dimension": 2, "normals": [[1.0, 0.0], [0.0, 1.0]]},
        )
        argv = ["orbit", path, "--start", "[-1.0, -1.0]", "--witness", "[0.7, 0.7]",
                "--policy", "periodic"]
        code, out, err = _run(capsys, argv + (["--word", word] if word else []))
        assert code == 1 and out == ""
        assert err.startswith("error: --policy periodic needs --word") and repr(word or "") in err

    def test_budget_exceeded(self, capsys, tmp_path):
        halfspaces, start, _ = adversarial_two_halfplanes(50)
        path = str(tmp_path / "wedge.json")
        save_halfspaces(path, halfspaces)
        witness = (halfspaces[0].normal + halfspaces[1].normal).tolist()
        argv = [
            "orbit", path,
            "--start", json.dumps(start.tolist()),
            "--witness", json.dumps(witness),
            "--policy", "periodic",
            "--word", "0,1",
        ]
        code, out, err = _run(capsys, argv + ["--budget", "10"])
        assert code == 1
        assert out == ""
        assert "budget exhausted after 10 folds" in err
        assert _run(capsys, argv)[0] == 0

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_fails(self, capsys, tmp_path, budget):
        # before, both reported "orbit budget exhausted after 1 folds"
        path = _write(
            tmp_path / "halfspaces.json",
            {"dimension": 2, "normals": [[1.0, 0.0], [0.0, 1.0]]},
        )
        argv = ["orbit", path, "--start", "[-1, -1]", "--witness", "[0.7, 0.7]", "--budget", budget]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err == f"error: budget must be >= 1, got {budget}\n"

    def test_start_of_wrong_dimension(self, capsys, tmp_path):
        path = _write(
            tmp_path / "halfspaces.json",
            {"dimension": 2, "normals": [[1.0, 0.0], [0.0, 1.0]]},
        )
        code, out, err = _run(
            capsys,
            ["orbit", path, "--start", "[-1.0, -1.0, 5.0]", "--witness", "[0.7, 0.7]"],
        )
        assert code == 1
        assert out == ""
        assert "start of dimension 3, witness of 2" in err


class TestNonFiniteInput:
    """Malformed numbers fail with exit code 1 instead of being reported."""

    def test_nan_center(self, capsys, tmp_path):
        path = _write(
            tmp_path / "nan.json",
            {"dimension": 2, "centers": [[0.0, 0.0], [float("nan"), 0.0]]},
        )
        code, out, err = _run(capsys, ["validate", path])
        assert code == 1 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("tolerance", [3, "x"])
    def test_absurd_contact_tolerance(self, capsys, tmp_path, tolerance):
        path = _write(
            tmp_path / "tol.json",
            {"dimension": 1, "centers": [[0.0], [0.5]], "contact_tolerance": tolerance},
        )
        code, _, err = _run(capsys, ["validate", path])
        assert code == 1
        assert "contact_tolerance" in err

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"dimension": True, "centers": [[0.0], [2.0]], "contact_tolerance": True}, "dimension"),
            ({"dimension": 1, "centers": [[False], [True]]}, "centers"),
            ({"centers": [["0"], ["2"]], "velocities": [["1"], ["-1"]]}, "centers"),
            ({"centers": [[0.0], [2.0]], "velocities": [["1"], ["-1"]]}, "velocities"),
            ({"centers": [0, 2]}, "centers"),
            ({"centers": 5}, "centers"),
            ({"centers": [[[0]], [[2]]]}, "centers"),
        ],
    )
    def test_non_number_fails(self, capsys, tmp_path, payload, field):
        # before, validate exited 0 and printed "dimension": true, and string
        # coordinates loaded as numbers
        path = _write(tmp_path / "bool.json", payload)
        code, out, err = _run(capsys, ["validate", path])
        assert code == 1 and out == ""
        assert f"'{field}' must hold JSON numbers only" in err

    def test_infinite_velocity(self, capsys, tmp_path):
        path = _write(
            tmp_path / "inf.json",
            {
                "dimension": 1,
                "centers": [[-1.0], [1.0]],
                "velocities": [[float("inf")], [0.0]],
            },
        )
        schedule = _write(tmp_path / "schedule.json", [[1, 2]])
        code, out, err = _run(capsys, ["simulate", path, schedule])
        assert code == 1 and out == ""
        assert "finite" in err

    def test_velocities_with_infinite_energy(self, capsys, tmp_path):
        # before, simulate exited 0 and printed "energy": Infinity and "F": NaN
        path = _write(
            tmp_path / "huge.json",
            {"dimension": 1, "centers": [[-1], [1]], "velocities": [[1e308], [-1e308]]},
        )
        schedule = _write(tmp_path / "schedule.json", [[1, 2], [1, 2]])
        code, out, err = _run(capsys, ["simulate", path, schedule])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "huge.json: velocities have an energy" in err

    def test_report_with_a_non_finite_value_is_refused(self, capsys, tmp_path):
        # finite velocities and centers whose F overflows: the report is not
        # printed with -Infinity in it, which is not JSON
        path = _write(tmp_path / "far.json", FAR_SYSTEM)
        schedule = _write(tmp_path / "schedule.json", [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["simulate", path, schedule])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "not JSON compliant" in err

    @pytest.mark.parametrize("edges", [[[1, 2]], []])
    def test_trace_with_a_non_finite_value_is_not_written(self, capsys, tmp_path, edges):
        # before, the trace held "F": -Infinity and stayed behind when the report failed
        path = _write(tmp_path / "far.json", FAR_SYSTEM)
        schedule, trace = _write(tmp_path / "schedule.json", edges), tmp_path / "trace.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["simulate", path, schedule, "--trace", str(trace)])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "not JSON compliant" in err
        assert not trace.exists()

    @pytest.mark.parametrize("command", ["validate", "alpha"])
    def test_far_apart_centers_warn_nothing(self, capsys, tmp_path, command):
        # the distance 1e300 squares past the doubles and reads as inf, with no
        # RuntimeWarning on the way; simulate on the same file is the two tests above
        path = _write(tmp_path / "far.json", FAR_SYSTEM)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, [command, path])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["touching_pairs" if command == "validate" else "argmin_edges"] == [[1, 2]]

    @pytest.mark.parametrize("command", ["search", "simulate"])
    def test_far_apart_centers_refuse_centering(self, capsys, tmp_path, command):
        # centering rounds balls 1 and 2 onto one point; before, search and
        # simulate --normalize reported that they overlap
        path = _write(tmp_path / "far.json", FAR_SYSTEM)
        one = _write(tmp_path / "one.json", [[1, 2]])
        argv = {
            "search": ["search", path, "--method", "greedy", "--seed", "1"],
            "simulate": ["simulate", path, one, "--normalize"],
        }[command]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: centering ") and "balls 1 and 2" in err

    def test_orbit_past_the_rounding_range_warns_nothing(self, capsys, tmp_path):
        # a point past 1.8e296 is keyed by np.round, whose x * 1e12 overflows
        path = _write(tmp_path / "hs.json", {"dimension": 2, "normals": [[1, 0]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(
                capsys, ["orbit", path, "--start", "[-1e300, 0]", "--witness", "[1, 0]"]
            )
        assert code == 0 and err == ""
        assert json.loads(out)["points"] == [[-1e300, 0.0], [1e300, 0.0]]

    @pytest.mark.parametrize(
        "normal, start, witness",
        [("[1, 0]", "[-1.5e308, 0]", "[1, 0]"), ("[0, 1]", "[0, -1.5e308]", "[0, 1]")],
    )
    def test_orbit_fold_that_overflows(self, capsys, tmp_path, normal, start, witness):
        # before, the first order exited 0 with "final": [Infinity, NaN] and the
        # second failed on "cannot convert float NaN to integer"
        path = _write(tmp_path / "hs.json", {"dimension": 2, "normals": [json.loads(normal)]})
        with np.errstate(over="ignore"):
            code, out, err = _run(capsys, ["orbit", path, "--start", start, "--witness", witness])
        assert code == 1 and out == ""
        assert err.startswith("error: orbit fold 1 left the finite doubles")

    def test_nan_normal(self, capsys, tmp_path):
        path = _write(
            tmp_path / "halfspaces.json",
            {"dimension": 2, "normals": [[float("nan"), 0.0]]},
        )
        code, _, err = _run(
            capsys, ["orbit", path, "--start", "[1, 0]", "--witness", "[1, 0]"]
        )
        assert code == 1
        assert "finite" in err

    @pytest.mark.parametrize(
        "start, witness", [("[NaN, 0]", "[0.7, 0.7]"), ("[-1, -1]", "[Infinity, 0.7]")]
    )
    def test_non_finite_orbit_point(self, capsys, tmp_path, start, witness):
        path = _write(
            tmp_path / "halfspaces.json",
            {"dimension": 2, "normals": [[1.0, 0.0], [0.0, 1.0]]},
        )
        code, _, err = _run(
            capsys, ["orbit", path, "--start", start, "--witness", witness]
        )
        assert code == 1
        assert "finite" in err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1.0, 0.0], "need a JSON object with 'dimension' and 'normals'"),
            (5, "need a JSON object with 'dimension' and 'normals'"),
            ({"dimension": 2, "normals": 5}, "'normals' must hold JSON numbers only"),
            ({"dimension": 2, "normals": [1.0, 0.0]}, "'normals' must hold JSON numbers only"),
            ({"dimension": 2, "normals": [[True, 0.0]]}, "'normals' must hold JSON numbers only"),
            ({"dimension": 2, "normals": [["1", 0.0]]}, "'normals' must hold JSON numbers only"),
            ({"dimension": True, "normals": [[1.0, 0.0]]}, "'dimension' must hold JSON numbers only"),
        ],
    )
    def test_malformed_halfspaces(self, capsys, tmp_path, payload, message):
        # before, a bool or string normal ran as a number, and a non-object
        # file or a flat normals list left a traceback
        path = _write(tmp_path / "halfspaces.json", payload)
        code, out, err = _run(
            capsys, ["orbit", path, "--start", "[-1, -1]", "--witness", "[0.7, 0.7]"]
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "start, witness",
        [("[true, 1]", "[0.7, 0.7]"), ('["1", 0]', "[0.7, 0.7]"), ("[-1, -1]", "[[0.7], [0.7]]")],
    )
    def test_non_number_orbit_point(self, capsys, tmp_path, start, witness):
        path = _write(
            tmp_path / "halfspaces.json",
            {"dimension": 2, "normals": [[1.0, 0.0], [0.0, 1.0]]},
        )
        code, _, err = _run(
            capsys, ["orbit", path, "--start", start, "--witness", witness]
        )
        assert code == 1
        assert "must hold JSON numbers only" in err


class TestNotJson:
    """Input that is not JSON exits 1 with an error naming its file or flag."""

    @pytest.mark.parametrize("content", [b"not json", b"\xff\xfe{"])
    def test_configuration_file(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = _run(capsys, ["validate", str(path)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: not valid JSON: ")

    def test_schedule_file(self, capsys, chain_config, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text("[[1, 2],")
        code, out, err = _run(capsys, ["simulate", chain_config, str(path)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: not valid JSON: ")

    @pytest.mark.parametrize("start, witness, flag", [
        ("not json", "[1, 0]", "--start"), ("[1, 0]", "[1, 0", "--witness"),
    ])
    def test_orbit_point(self, capsys, tmp_path, start, witness, flag):
        path = _write(tmp_path / "halfspaces.json", {"dimension": 2, "normals": [[1.0, 0.0]]})
        code, out, err = _run(capsys, ["orbit", path, "--start", start, "--witness", witness])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {flag}: not valid JSON: ")


class TestNegativeSeed:
    """A negative --seed is a domain error naming the flag, before numpy sees it."""

    def test_orbit(self, capsys, tmp_path):
        path = _write(tmp_path / "halfspaces.json", {"dimension": 2, "normals": [[1.0, 0.0]]})
        argv = ["orbit", path, "--start", "[-1, 0]", "--witness", "[1, 0]",
                "--policy", "seeded-random", "--seed", "-1"]
        assert _run(capsys, argv) == (1, "", "error: --seed must be non-negative, got -1\n")

    def test_search_sweep(self, capsys, chain_config):
        argv = ["search", chain_config, "--method", "sweep", "--seed", "-1"]
        assert _run(capsys, argv) == (1, "", "error: --seed must be non-negative, got -1\n")

    def test_verify(self, capsys):
        argv = ["verify", "--quick", "--seed", "-1"]
        assert _run(capsys, argv) == (1, "", "error: --seed must be non-negative, got -1\n")

    def test_orbit_that_draws_nothing(self, capsys, tmp_path):
        path = _write(tmp_path / "halfspaces.json", {"dimension": 2, "normals": [[1.0, 0.0]]})
        argv = ["orbit", path, "--start", "[-1, 0]", "--witness", "[1, 0]", "--seed", "-1"]
        assert _run(capsys, argv) == (1, "", "error: --seed must be non-negative, got -1\n")

    def test_search_that_draws_nothing(self, capsys, tmp_path):
        # the file supplies the velocities, so no start state is drawn
        path = _write(
            tmp_path / "pair.json", {"centers": [[0.0], [2.0]], "velocities": [[1.0], [-1.0]]}
        )
        argv = ["search", path, "--seed", "-1"]
        assert _run(capsys, argv) == (1, "", "error: --seed must be non-negative, got -1\n")


class TestLatticeCommand:
    def test_hexagonal_patch(self, capsys, tmp_path):
        out_cfg = str(tmp_path / "lattice.json")
        code, out, _ = _run(
            capsys, ["lattice", "--radius", "2.1", "--save-config", out_cfg]
        )
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 7
        assert len(report["touching_pairs"]) == 12
        saved = json.loads(open(out_cfg).read())
        assert len(saved["centers"]) == 7

    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_non_finite_radius_fails(self, capsys, radius):
        code, out, err = _run(capsys, ["lattice", "--radius", radius])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "finite" in err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: ``method`` raises BrokenPipeError."""

    def __init__(self, method):
        super().__init__()
        setattr(self, method, self._broken)

    def _broken(self, *args):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """A closed stdout ends the command with 141, as SIGPIPE does, and no error line."""

    @pytest.mark.parametrize("method", ["write", "flush"])
    def test_in_process(self, capsys, monkeypatch, method):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(method))
        code = main(["lattice", "--radius", "6"])
        assert code == 141
        assert capsys.readouterr().err == ""

    def test_nothing_reported_at_exit(self):
        # buffered, the report fits in stdout's buffer and is first written by
        # the interpreter's exit flush, which printed "Exception ignored" before
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(pinnedballs.__file__).resolve().parent.parent)
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pinnedballs.cli", "lattice", "--radius", "2"],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_closed_trace_pipe_is_an_error(self, tmp_path):
        # only a closed stdout ends with 141; a --trace pipe whose reader went
        # away (as with --trace >(head -c 100)) is an I/O error, exit 1
        config = configs.square()
        state = StateVector.from_blocks([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        save_configuration(tmp_path / "square.json", config, state)
        save_schedule(tmp_path / "long.json", full_contact_graph(config).edges * 5000)
        env = dict(os.environ, PYTHONPATH=str(Path(pinnedballs.__file__).resolve().parent.parent))
        read, write = os.pipe()
        child = subprocess.Popen(
            [sys.executable, "-m", "pinnedballs.cli", "simulate", str(tmp_path / "square.json"),
             str(tmp_path / "long.json"), "--trace", f"/dev/fd/{write}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, pass_fds=(write,),
        )
        os.close(write)
        try:
            assert os.read(read, 100)  # the trace has begun; its 20,000 lines fill the pipe
        finally:
            os.close(read)
        out, err = child.communicate(timeout=120)
        assert (child.returncode, out) == (1, b"")
        assert err.startswith(b"error: ") and b"Broken pipe" in err


class TestSearchCommand:
    def test_exhaustive_with_bound(self, capsys, chain_config):
        code, out, _ = _run(
            capsys, ["search", chain_config, "--with-bound", "--seed", "5"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["collisions"] == 3
        assert report["bound"]["within"] is True
        assert report["bound"]["alpha_source"] == "hyperplanes"
        # the file supplies the velocities, so the seed had no effect
        assert report["manifest"]["seed"] is None

    def test_seed_recorded_when_start_is_drawn(self, capsys, tmp_path):
        path = _write(
            tmp_path / "bare.json", {"dimension": 1, "centers": [[-2.0], [0.0], [2.0]]}
        )
        code, out, _ = _run(capsys, ["search", path, "--method", "greedy", "--seed", "5"])
        assert code == 0
        assert json.loads(out)["manifest"]["seed"] == 5

    def test_sweep_seed_recorded_when_generated(self, capsys, chain_config):
        code, out, _ = _run(
            capsys, ["search", chain_config, "--method", "sweep", "--samples", "2"]
        )
        assert code == 0
        report = json.loads(out)
        assert isinstance(report["manifest"]["seed"], int)

    @pytest.mark.parametrize("method", ["exhaustive", "greedy", "sweep"])
    def test_negative_depth_cap_rejected(self, capsys, chain_config, method):
        argv = ["search", chain_config, "--method", method, "--depth-cap", "-3", "--seed", "1"]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert "--depth-cap" in err and "-3" in err

    def test_reproducible_with_seed(self, capsys, chain_config):
        _, out1, _ = _run(
            capsys,
            ["search", chain_config, "--method", "sweep", "--samples", "3", "--seed", "9"],
        )
        _, out2, _ = _run(
            capsys,
            ["search", chain_config, "--method", "sweep", "--samples", "3", "--seed", "9"],
        )
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("manifest")
        r2.pop("manifest")
        assert r1 == r2


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys, tmp_path):
        out_path = str(tmp_path / "verify.json")
        code = main(["--output", out_path, "verify", "--quick", "--seed", "11"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS" in captured.out
        report = json.loads(open(out_path).read())
        assert report["failures"] == 0


#: Prints OpenBLAS's thread count before and after ``{action}``, or "absent"
#: when numpy's BLAS has no scipy-openblas thread symbols.
_BLAS_PROBE = """
import ctypes, pathlib, sys
import numpy as np
libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
probes = [getattr(ctypes.CDLL(str(p)), "scipy_openblas_get_num_threads64_", None)
          for p in libs.glob("libscipy_openblas*")]
get = next((f for f in probes if f is not None), None)
if get is None:
    print("absent")
    sys.exit()
before = get()
{action}
print(before, get())
"""


class TestBlasThreads:
    """The CLI runs BLAS on one thread; importing the library leaves it alone."""

    def _probe(self, action):
        env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        # two threads where the machine has them, so a change shows
        env["OPENBLAS_NUM_THREADS"] = "2"
        env["PYTHONPATH"] = str(Path(pinnedballs.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE.format(action=action)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        if done.stdout.split() == ["absent"]:
            pytest.skip("numpy's BLAS has no scipy-openblas thread symbols")
        before, after = map(int, done.stdout.split())
        return before, after

    def test_import_keeps_thread_count(self):
        before, after = self._probe("import pinnedballs")
        assert after == before

    def test_cli_runs_one_thread(self, chain_config, tmp_path):
        argv = ["--output", str(tmp_path / "out.json"), "validate", chain_config]
        _, after = self._probe(f"from pinnedballs.cli import main; main({argv!r})")
        assert after == 1


#: Imports the package, then its CLI, with neither loading mpmath, and runs
#: ``verify --quick`` with mpmath blocked from import.
_WITHOUT_MPMATH = """
import sys
import pinnedballs
assert "mpmath" not in sys.modules, "import pinnedballs loaded mpmath"
import pinnedballs.cli
assert "mpmath" not in sys.modules, "import pinnedballs.cli loaded mpmath"
sys.modules["mpmath"] = None
sys.exit(pinnedballs.cli.main(["verify", "--quick"]))
"""


def test_runtime_needs_no_mpmath():
    env = dict(os.environ, PYTHONPATH=str(Path(pinnedballs.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_MPMATH],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("PASS ") == 15
