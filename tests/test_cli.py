"""CLI surface: file formats, subcommands, exit codes."""

import json
import math

import pytest

from reachvenn import experiment, io, pipeline
from reachvenn.bounds import BoundsSolver
from reachvenn.cli import main
from reachvenn.core import ReachDataset, SubsetMask, enumerate_masks
from reachvenn.synth import independent_truth, true_dataset

from conftest import face_solve_limit, random_consistent_dataset, triangle_dataset


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    io.save_dataset(triangle_dataset(), path)
    return path


@pytest.fixture
def basics_file(tmp_path):
    """The basic points of an independent P=3 truth: no spare point."""
    truth = independent_truth(3, 0.2, 1000.0)
    masks = [m for m in enumerate_masks(3) if m.popcount in (1, 3)]
    path = tmp_path / "basics.json"
    io.save_dataset(true_dataset(truth, masks), path)
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIoRoundTrip:
    def test_dataset_round_trip(self, tmp_path, rng):
        ds, _ = random_consistent_dataset(rng, 3, extra=2, universe=1000.0)
        path = tmp_path / "ds.json"
        io.save_dataset(ds, path)
        loaded = io.load_dataset(path)
        assert loaded.num_bgs == ds.num_bgs
        assert loaded.universe_size == ds.universe_size
        assert loaded.masks() == ds.masks()

    def test_subset_length_validated(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"num_bgs": 3, "observations": [{"subset": "10", "reach": 1.0}]}
            )
        )
        with pytest.raises(ValueError, match="num_bgs"):
            io.load_dataset(path)

    def test_ground_truth_round_trip(self, tmp_path):
        truth = independent_truth(3, 0.2, 1000.0)
        path = tmp_path / "truth.json"
        io.save_ground_truth(truth, path)
        alloc = io.load_allocation(path)
        assert alloc.values.tolist() == truth.allocation.values.tolist()
        # A truth file doubles as a dataset holding the basic observations.
        ds = io.load_dataset(path)
        ds.check_basic_points()
        assert ds.reach_of(SubsetMask.full(3)) == pytest.approx(488.0)


class TestCheck:
    def test_consistent_exit_zero(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "check", triangle_file)
        assert code == 0
        assert "consistent" in out.splitlines()[0]

    def test_inconsistent_claim_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        io.save_dataset(triangle_dataset(claim=3500), path)
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 2
        assert out.splitlines()[0] == "inconsistent"

    def test_repair_output_passes_check(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        fixed = tmp_path / "fixed.json"
        io.save_dataset(triangle_dataset(claim=3500), bad)
        code, _, _ = run_cli(capsys, "check", bad, "--repair", fixed)
        assert code == 2
        code, _, _ = run_cli(capsys, "check", fixed)
        assert code == 0


class TestBounds:
    def test_triangle_target(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "bounds", triangle_file, "--target", "101")
        assert code == 0
        payload = json.loads(out)
        assert payload["bounds"]["101"]["lower"] == pytest.approx(5000.0, abs=1e-3)
        assert payload["bounds"]["101"]["upper"] == pytest.approx(6000.0, abs=1e-3)

    def test_all_targets_observed_degenerate(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "bounds", triangle_file, "--all")
        payload = json.loads(out)
        assert len(payload["bounds"]) == 7
        observed = payload["bounds"]["011"]
        assert observed["upper"] - observed["lower"] <= 1e-3

    def test_missing_target_flag_is_usage_error(self, capsys, triangle_file):
        code, _, err = run_cli(capsys, "bounds", triangle_file)
        assert code == 64

    def test_unbounded_targets_report_their_cap(self, capsys, tmp_path):
        # Only "10" is observed and no universe is declared: the masks that
        # reach BG 2 have no finite maximum, so their upper bound is the cap.
        path = tmp_path / "one.json"
        io.save_dataset(ReachDataset.from_pairs(2, [("10", 3.0)]), path)
        code, out, _ = run_cli(capsys, "bounds", path, "--all")
        assert code == 0
        payload = json.loads(out)["bounds"]
        assert "upper_capped" not in payload["10"]
        assert payload["01"]["upper_capped"] is True
        assert payload["11"]["upper_capped"] is True

    def test_inconsistent_dataset_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        io.save_dataset(triangle_dataset(claim=3500), path)
        code, _, err = run_cli(capsys, "bounds", path, "--target", "110")
        assert code == 2
        assert "repair" in err


class TestCurve:
    def test_free_mode_csv(self, capsys, tmp_path):
        truth = independent_truth(5, 0.2, 500000.0)
        masks = [m for m in enumerate_masks(5) if m.popcount in (1, 5)]
        path = tmp_path / "five.json"
        io.save_dataset(true_dataset(truth, masks), path)
        code, out, _ = run_cli(capsys, "curve", path, "--order", "1,2,3,4,5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "prefix_length,subset,lower,upper"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "11000"

    def test_traces_add_pinned_column(self, capsys, tmp_path):
        truth = independent_truth(4, 0.2, 1000.0)
        masks = [m for m in enumerate_masks(4) if m.popcount in (1, 4)]
        path = tmp_path / "four.json"
        io.save_dataset(true_dataset(truth, masks), path)
        code, out, _ = run_cli(capsys, "curve", path, "--order", "1,2,3,4", "--mode", "upper")
        lines = out.strip().splitlines()
        assert lines[0].endswith(",pinned")
        assert len(lines[1].split(",")) == 5


class TestFitPredict:
    def test_fit_writes_loadable_model(self, capsys, tmp_path, rng):
        ds, _ = random_consistent_dataset(rng, 3, extra=2, universe=1000.0)
        data = tmp_path / "ds.json"
        model_path = tmp_path / "model.json"
        io.save_dataset(ds, data)
        code, out, _ = run_cli(capsys, "fit", data, "--d", "inf", "--out", model_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == "inf"
        model = io.load_model(model_path)
        assert math.isinf(model.d)
        assert model.training_residual <= 1e-9

    def test_predict_observed_subset_matches(self, capsys, tmp_path, rng):
        ds, _ = random_consistent_dataset(rng, 3, extra=2, universe=1000.0)
        data = tmp_path / "ds.json"
        io.save_dataset(ds, data)
        target = ds.masks()[0].to_string()
        code, out, _ = run_cli(capsys, "predict", data, "--target", target, "--d", "inf")
        payload = json.loads(out)
        assert code == 0
        assert payload["point"] == pytest.approx(ds.reach_of(ds.masks()[0]), abs=1e-3)

    def test_predict_with_auto_d_reports_grid_value(self, capsys, tmp_path, rng):
        ds, _ = random_consistent_dataset(rng, 4, extra=3, universe=1000.0)
        data = tmp_path / "ds.json"
        io.save_dataset(ds, data)
        code, out, _ = run_cli(capsys, "predict", data, "--target", "1100")
        payload = json.loads(out)
        assert payload["d_policy"] == "cross_validated"
        from reachvenn.pipeline import d_grid

        assert payload["d"] in d_grid()

    def test_alpha_unavailable_on_basics_only(self, capsys, basics_file):
        code, out, _ = run_cli(
            capsys, "predict", basics_file, "--target", "110", "--alpha", "90"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["interval_alpha"] is None
        assert "unavailable" in payload["alpha_note"]
        assert payload["d_policy"] == "default_inf"

    def test_alpha_interval_with_spare_points(self, capsys, triangle_file):
        code, out, _ = run_cli(
            capsys, "predict", triangle_file, "--target", "110", "--alpha", "90"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 90.0
        inner, outer = payload["interval_alpha"], payload["interval_100"]
        assert outer["lower"] <= inner["lower"] <= inner["upper"] <= outer["upper"]

    @pytest.mark.parametrize("alpha", ["150", "nan", "inf", "0"])
    @pytest.mark.parametrize("spare_points", [False, True])
    def test_alpha_out_of_range_is_usage_error(
        self, capsys, triangle_file, basics_file, spare_points, alpha
    ):
        # The triangle has a spare point; the basics alone have none, so
        # they never reach the error bar that used to reject alpha.
        data = triangle_file if spare_points else basics_file
        code, out, err = run_cli(
            capsys, "predict", data, "--target", "110", "--alpha", alpha
        )
        assert code == 64
        assert out == ""
        assert "alpha must lie in (0, 100]" in err

    def test_saved_model_round_trip_via_predict(self, capsys, tmp_path, rng):
        ds, _ = random_consistent_dataset(rng, 3, extra=2, universe=1000.0)
        data = tmp_path / "ds.json"
        model_path = tmp_path / "model.json"
        io.save_dataset(ds, data)
        run_cli(capsys, "fit", data, "--d", "2.5", "--out", model_path)
        code, out, _ = run_cli(
            capsys, "predict", data, "--target", "110", "--model", model_path
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["d_policy"] == "loaded"
        assert payload["d"] == 2.5

    def test_d_one_is_fitted_saved_and_loaded_as_one(self, capsys, tmp_path, triangle_file):
        model_path = tmp_path / "m.json"
        code, out, _ = run_cli(capsys, "fit", triangle_file, "--d", "1", "--out", model_path)
        assert code == 0
        assert '"d": 1.0,' in out
        target = ["predict", triangle_file, "--target", "101"]
        code, out, _ = run_cli(capsys, *target, "--model", model_path)
        assert code == 0
        loaded = json.loads(out)
        code, out, _ = run_cli(capsys, *target, "--d", "1")
        assert code == 0
        fitted = json.loads(out)
        assert loaded["d"] == fitted["d"] == 1.0
        assert loaded["point"] == fitted["point"]
        assert loaded["interval_100"] == fitted["interval_100"]

    def test_saved_model_on_inconsistent_data_is_repaired(self, capsys, tmp_path):
        data = tmp_path / "noisy.json"
        model_path = tmp_path / "model.json"
        io.save_dataset(triangle_dataset(claim=3500), data)
        code, out, _ = run_cli(capsys, "fit", data, "--d", "2", "--out", model_path)
        assert code == 0 and json.loads(out)["repaired"]
        code, out, _ = run_cli(
            capsys, "predict", data, "--target", "110", "--model", model_path
        )
        assert code == 0
        loaded = json.loads(out)
        assert loaded["repaired"] is True
        code, out, _ = run_cli(capsys, "predict", data, "--target", "110", "--d", "2")
        fitted = json.loads(out)
        assert code == 0
        assert loaded["point"] == fitted["point"]
        assert loaded["interval_100"] == fitted["interval_100"]

    def test_saved_model_with_other_num_bgs_is_usage_error(
        self, capsys, tmp_path, rng, triangle_file
    ):
        small, _ = random_consistent_dataset(rng, 2, extra=1, universe=1000.0)
        small_path = tmp_path / "small.json"
        model_path = tmp_path / "model.json"
        io.save_dataset(small, small_path)
        run_cli(capsys, "fit", small_path, "--d", "inf", "--out", model_path)
        code, _, err = run_cli(
            capsys, "predict", triangle_file, "--target", "101", "--model", model_path
        )
        assert code == 64
        assert "num_bgs" in err

    @pytest.mark.parametrize("flag", [["--alpha", "90"], ["--d", "3"], ["--d", "auto"]])
    def test_saved_model_rejects_fitting_flags(self, capsys, tmp_path, flag):
        data = tmp_path / "ds.json"
        model_path = tmp_path / "model.json"
        io.save_dataset(triangle_dataset(), data)
        run_cli(capsys, "fit", data, "--d", "2", "--out", model_path)
        code, out, err = run_cli(
            capsys, "predict", data, "--target", "101", "--model", model_path, *flag
        )
        assert code == 64
        assert out == ""
        assert "--model" in err

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_nan_d_is_usage_error(self, capsys, triangle_file, command):
        target = ["--target", "101"] if command == "predict" else []
        code, out, err = run_cli(capsys, command, triangle_file, *target, "--d", "nan")
        assert code == 64
        assert out == ""
        assert "d must be at least 1" in err

    def test_solver_that_stops_early_exits_three(self, capsys, monkeypatch, triangle_file):
        face_solve_limit(monkeypatch, 1)
        code, out, err = run_cli(capsys, "fit", triangle_file, "--d", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("error: simplex_lstsq")
        assert "Traceback" not in err

    def test_failed_allocation_exits_three(self, capsys, monkeypatch, triangle_file):
        # Stands in for numpy's allocation error, a MemoryError, without
        # asking for the memory.
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 6.7 GiB for an array")

        monkeypatch.setattr(pipeline, "build_segment_matrix", no_memory)
        code, out, err = run_cli(
            capsys, "predict", triangle_file, "--target", "101", "--alpha", "90"
        )
        assert code == 3
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 6.7 GiB for an array\n"

    @pytest.mark.parametrize("argv", [("predict", "--target", "11"), ("fit",)])
    def test_universe_past_the_float_range_is_unavailable(self, capsys, tmp_path, argv):
        # The independent universe of these basics is 2e308.
        path = tmp_path / "big.json"
        io.save_dataset(
            ReachDataset.from_pairs(2, [("10", 1e308), ("01", 1e308), ("11", 1.5e308)]),
            path,
        )
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == 3
        assert out == ""
        assert err == "error: no finite independent universe: it exceeds the float range\n"
        assert "Traceback" not in err

    def test_basics_whose_universe_is_the_union_are_unavailable(self, capsys, tmp_path):
        path = tmp_path / "basics.json"
        io.save_dataset(
            ReachDataset.from_pairs(2, [("10", 10.0), ("01", 5.0), ("11", 10.0)]), path
        )
        code, out, err = run_cli(capsys, "predict", path, "--target", "11")
        assert code == 3
        assert out == ""
        assert err == "error: no finite independent universe\n"


class TestSelect:
    def test_selection_log_and_budget_overrun(self, capsys, tmp_path):
        truth = independent_truth(5, 0.2, 500000.0)
        masks = [m for m in enumerate_masks(5) if m.popcount in (1, 5)]
        data = tmp_path / "ds.json"
        truth_path = tmp_path / "truth.json"
        io.save_dataset(true_dataset(truth, masks), data)
        io.save_ground_truth(truth, truth_path)
        exclude = "11000,11100,11110"
        code, out, _ = run_cli(
            capsys,
            "select",
            data,
            "--budget",
            "30",
            "--truth",
            truth_path,
            "--exclude",
            exclude,
            "--track",
            "11110",
        )
        payload = json.loads(out)
        assert code == 0
        assert len(payload["rounds"]) == 22  # candidates exhausted before 30
        assert "exhausted" in payload["warning"]
        first = payload["rounds"][0]
        assert SubsetMask.from_string(first["selected"]).popcount == 3
        # Tracked interval never widens.
        widths = [
            r["tracked"]["11110"]["upper"] - r["tracked"]["11110"]["lower"]
            for r in payload["rounds"]
        ]
        for before, after in zip(widths, widths[1:]):
            assert after <= before + 1e-3

    def test_chosen_lists_the_observed_masks_in_canonical_order(self, capsys, tmp_path):
        truth = independent_truth(4, 0.2, 1000.0)
        masks = [m for m in enumerate_masks(4) if m.popcount in (1, 2, 4)]
        observed = masks[::-1]
        data = tmp_path / "ds.json"
        truth_path = tmp_path / "truth.json"
        io.save_dataset(true_dataset(truth, observed), data)
        io.save_ground_truth(truth, truth_path)
        code, out, _ = run_cli(capsys, "select", data, "--budget", "2", "--truth", truth_path)
        payload = json.loads(out)
        assert code == 0
        assert payload["chosen"] == [m.to_string() for m in masks] + [
            r["selected"] for r in payload["rounds"]
        ]
        assert len(payload["rounds"]) == 2


class TestExperimentCommand:
    def test_small_run_report(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "experiment",
            "--generator",
            "dirichlet",
            "--alpha",
            "2.0",
            "--p",
            "4",
            "--replicates",
            "2",
            "--seed",
            "7",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["error_count"] == 2 * (2**4 - 10)
        assert payload["generator"]["kind"] == "dirichlet"
        assert 0 <= payload["q90"] < 10

    def test_out_file_holds_full_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "experiment",
            "--generator",
            "ci",
            "--p",
            "4",
            "--replicates",
            "1",
            "--seed",
            "3",
            "--out",
            out_path,
        )
        assert code == 0
        stdout_payload = json.loads(out)
        assert "errors" not in stdout_payload
        file_payload = json.loads(out_path.read_text())
        assert len(file_payload["errors"]) == 1

    def test_infinite_q90_is_strict_json(self, capsys, tmp_path):
        # At alpha = 1e-300 some clean truths are zero and their errors infinite.
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "experiment", "--generator", "dirichlet", "--p", "4",
            "--replicates", "3", "--alpha", "1e-300", "--out", out_path,
        )
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(out, parse_constant=reject)
        assert payload["q90"] == "inf"
        report = json.loads(out_path.read_text(), parse_constant=reject)
        assert report["q90"] == "inf"
        assert "inf" in [e for row in report["errors"] for e in row]

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--universe", "inf", "universe_size"),
            ("--alpha", "nan", "alpha"),
            ("--beta-a", "nan", "reach_beta_a"),
            ("--beta-a", "0", "reach_beta_a"),
            ("--beta-b", "-1", "reach_beta_b"),
        ],
    )
    def test_bad_generator_parameter_is_usage_error(self, capsys, flag, value, field):
        code, out, err = run_cli(
            capsys, "experiment", "--generator", "ci", "--p", "4", "--replicates", "1",
            flag, value,
        )
        assert code == 64
        assert out == ""
        assert f"{field} must be positive and finite" in err

    def test_too_many_bgs_rejected_before_any_truth_is_drawn(self, capsys, monkeypatch):
        def generate(spec):
            raise AssertionError("a ground truth was drawn")

        monkeypatch.setattr(experiment, "generate", generate)
        code, out, err = run_cli(
            capsys, "experiment", "--generator", "ci", "--p", "21", "--replicates", "1"
        )
        assert code == 64
        assert out == ""
        assert "num_bgs must be in [2, 20]" in err

    def test_zero_replicates_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "experiment", "--generator", "ci", "--p", "4", "--replicates", "0"
        )
        assert code == 64
        assert out == ""
        assert err == "error: need at least one replicate\n"

    def test_zero_workers_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "experiment", "--generator", "ci", "--p", "4", "--workers", "0"
        )
        assert code == 64
        assert out == ""
        assert "worker" in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 64

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent/file.json")
        assert code == 64
        assert "error" in err

    def test_dataset_that_is_a_json_array(self, capsys, tmp_path):
        path = tmp_path / "array.json"
        path.write_text('[{"subset": "10", "reach": 1.0}]')
        code, _, err = run_cli(capsys, "check", path)
        assert code == 64
        assert "JSON object" in err

    @pytest.mark.parametrize("argv", [("check",), ("bounds", "--all")])
    def test_dataset_with_an_empty_observation_list(self, capsys, tmp_path, argv):
        path = tmp_path / "empty.json"
        path.write_text('{"num_bgs": 2, "observations": []}')
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == 64
        assert out == ""
        assert err == "error: dataset has no observations\n"

    def test_truth_file_of_another_bg_count(
        self, capsys, monkeypatch, tmp_path, triangle_file
    ):
        # The truth is checked against the dataset before any round runs, so
        # a budget of 0 fails too and no bounds solver is built.
        def refuse(self, dataset):
            raise AssertionError("a bounds solver was built")

        monkeypatch.setattr(BoundsSolver, "__init__", refuse)
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(json.dumps({"num_bgs": 4, "allocation": [1.0] * 16}))
        for budget in ("1", "0"):
            code, out, err = run_cli(
                capsys, "select", triangle_file, "--budget", budget, "--truth", truth_path
            )
            assert code == 64
            assert out == ""
            assert err == "error: truth has 4 BGs, dataset 3\n"

    def test_dataset_without_observations(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"num_bgs": 2}')
        code, _, err = run_cli(capsys, "check", path)
        assert code == 64
        assert "observations" in err

    @pytest.mark.parametrize(
        "document, named",
        [
            ({"num_bgs": 2, "observations": [{"reach": 1.0}]}, "subset"),
            ({"num_bgs": 2, "observations": 5}, "observations"),
        ],
    )
    def test_malformed_dataset(self, capsys, tmp_path, document, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code, _, err = run_cli(capsys, "bounds", path, "--all")
        assert code == 64
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "document, named",
        [
            ({"num_bgs": None, "observations": [{"subset": "10", "reach": 1.0}]}, "num_bgs"),
            ({"num_bgs": 2.5, "observations": [{"subset": "10", "reach": 1.0}]}, "num_bgs"),
            ({"num_bgs": 2, "observations": [{"subset": "10", "reach": None}]}, "reach"),
            (
                {
                    "num_bgs": 2,
                    "universe_size": {"value": 5.0},
                    "observations": [{"subset": "10", "reach": 1.0}],
                },
                "universe_size",
            ),
            ({"num_bgs": 3, "observations": [{"subset": 100, "reach": 1.0}]}, "subset"),
            ({"num_bgs": 2, "observations": [{"subset": None, "reach": 1.0}]}, "subset"),
            ({"num_bgs": 2, "observations": [{"subset": "10", "reach": 10**400}]}, "reach"),
            (
                {
                    "num_bgs": 2,
                    "universe_size": 10**400,
                    "observations": [{"subset": "10", "reach": 1.0}],
                },
                "universe_size",
            ),
        ],
    )
    def test_malformed_value(self, capsys, tmp_path, document, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(capsys, "bounds", path, "--all")
        assert code == 64
        assert out == ""
        assert f"{named} must be" in err
        assert "Traceback" not in err

    def test_truth_file_without_allocation(self, capsys, triangle_file):
        code, out, err = run_cli(
            capsys, "select", triangle_file, "--budget", "1", "--truth", triangle_file
        )
        assert code == 64
        assert out == ""
        assert "allocation" in err

    def test_truth_file_with_null_num_bgs(self, capsys, tmp_path, triangle_file):
        truth_path = tmp_path / "truth.json"
        truth_path.write_text('{"num_bgs": null, "allocation": [0, 1, 1, 1, 1, 1, 1, 1]}')
        code, out, err = run_cli(
            capsys, "select", triangle_file, "--budget", "1", "--truth", truth_path
        )
        assert code == 64
        assert out == ""
        assert "num_bgs must be" in err

    @pytest.mark.parametrize(
        "allocation",
        [
            "[1, true, 1, 1, 1, 1, 1, 1]",
            "[null, 1, 1, 1, 1, 1, 1, 1]",
            "[1, NaN, 1, 1, 1, 1, 1, 1]",
            "[1, 1, 1, 1, 1, 1, 1, Infinity]",
        ],
    )
    def test_truth_file_with_malformed_allocation(self, capsys, tmp_path, allocation):
        # The P=3 basics: singles 3.0 each, union 6.0.
        data = tmp_path / "b3.json"
        pairs = [("100", 3.0), ("010", 3.0), ("001", 3.0), ("111", 6.0)]
        io.save_dataset(ReachDataset.from_pairs(3, pairs), data)
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(f'{{"num_bgs": 3, "allocation": {allocation}}}')
        code, out, err = run_cli(
            capsys, "select", data, "--budget", "1", "--truth", truth_path
        )
        assert code == 64
        assert out == ""
        assert err.startswith("error: allocation")
        assert "Traceback" not in err

    def test_model_without_d(self, capsys, tmp_path, triangle_file):
        model_path = tmp_path / "model.json"
        model_path.write_text('{"num_bgs": 3}')
        code, out, err = run_cli(
            capsys, "predict", triangle_file, "--target", "101", "--model", model_path
        )
        assert code == 64
        assert out == ""
        assert "lacks d," in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("d", None),
            ("num_bgs", 3.5),
            ("universe_size", "1000"),
            ("training_residual", None),
            ("weights", None),
            ("single_bg_proportions", [0.1, None, 0.2]),
        ],
    )
    def test_model_with_malformed_value(self, capsys, tmp_path, triangle_file, field, value):
        model_path = tmp_path / "model.json"
        code, _, _ = run_cli(capsys, "fit", triangle_file, "--d", "2", "--out", model_path)
        assert code == 0
        payload = json.loads(model_path.read_text())
        payload[field] = value
        model_path.write_text(json.dumps(payload))
        code, out, err = run_cli(
            capsys, "predict", triangle_file, "--target", "101", "--model", model_path
        )
        assert code == 64
        assert out == ""
        assert err.startswith(f"error: {field} must be")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, index, value",
        [
            ("d", None, math.nan),
            ("d", None, 0.5),
            ("universe_size", None, math.nan),
            ("universe_size", None, -1000.0),
            ("universe_size", None, math.inf),
            ("single_bg_proportions", 1, 3.0),
            ("single_bg_proportions", 0, math.nan),
            ("weights", 2, math.nan),
            ("training_residual", None, math.nan),
        ],
    )
    def test_model_with_bad_value(
        self, capsys, tmp_path, triangle_file, field, index, value
    ):
        model_path = tmp_path / "model.json"
        code, _, _ = run_cli(capsys, "fit", triangle_file, "--d", "2", "--out", model_path)
        assert code == 0
        payload = json.loads(model_path.read_text())
        if index is None:
            payload[field] = value
        else:
            payload[field][index] = value
        model_path.write_text(json.dumps(payload))
        code, out, err = run_cli(
            capsys, "predict", triangle_file, "--target", "101", "--model", model_path
        )
        assert code == 64
        assert out == ""
        assert err.startswith(f"error: {field} must")
        assert "Traceback" not in err

    def test_model_with_mismatched_dimensions(self, capsys, tmp_path):
        data = tmp_path / "basics.json"
        io.save_dataset(
            ReachDataset.from_pairs(2, [("10", 3.0), ("01", 3.0), ("11", 5.0)]), data
        )
        model_path = tmp_path / "model.json"
        model_path.write_text(
            json.dumps(
                {
                    "num_bgs": 2,
                    "d": 2.0,
                    "universe_size": 10.0,
                    "single_bg_proportions": [0.3, 0.3],
                    "weights": [0.0, 0.2, 0.2],
                    "training_residual": 0.0,
                }
            )
        )
        code, out, err = run_cli(
            capsys, "predict", data, "--target", "11", "--model", model_path
        )
        assert code == 64
        assert out == ""
        assert err == "error: model dimensions do not match num_bgs\n"

    # The BG-count rule runs before anything sized by 2**num_bgs is built:
    # at 10**6 that size alone would not fit in memory.
    @pytest.mark.parametrize("num_bgs", [21, 10**6])
    def test_model_with_out_of_range_num_bgs(
        self, capsys, tmp_path, triangle_file, num_bgs
    ):
        model_path = tmp_path / "model.json"
        code, _, _ = run_cli(capsys, "fit", triangle_file, "--d", "2", "--out", model_path)
        assert code == 0
        payload = json.loads(model_path.read_text())
        payload["num_bgs"] = num_bgs
        model_path.write_text(json.dumps(payload))
        code, out, err = run_cli(
            capsys, "predict", triangle_file, "--target", "101", "--model", model_path
        )
        assert code == 64
        assert out == ""
        assert err == f"error: num_bgs must be in [2, 20], got {num_bgs}\n"

    @pytest.mark.parametrize("num_bgs", [21, 10**6])
    def test_truth_file_with_out_of_range_num_bgs(
        self, capsys, tmp_path, triangle_file, num_bgs
    ):
        truth_path = tmp_path / "truth.json"
        truth_path.write_text(
            f'{{"num_bgs": {num_bgs}, "allocation": [0, 1, 1, 1, 1, 1, 1, 1]}}'
        )
        code, out, err = run_cli(
            capsys, "select", triangle_file, "--budget", "1", "--truth", truth_path
        )
        assert code == 64
        assert out == ""
        assert err == f"error: num_bgs must be in [2, 20], got {num_bgs}\n"

    # json.load raises RecursionError, a RuntimeError, on a document nested
    # this deep; such a file is malformed all the same.
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "{deep}"),
            ("predict", "{dataset}", "--target", "101", "--model", "{deep}"),
            ("select", "{dataset}", "--budget", "1", "--truth", "{deep}"),
        ],
        ids=["dataset", "model", "truth"],
    )
    def test_deeply_nested_json(self, capsys, tmp_path, triangle_file, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        argv = [arg.format(deep=deep, dataset=triangle_file) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 64
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["bounds", "predict"])
    @pytest.mark.parametrize(
        "target, message",
        [("100", "does not have 2 characters"), ("00", "not a non-empty subset of 2 BGs")],
    )
    def test_malformed_target(self, capsys, tmp_path, command, target, message):
        path = tmp_path / "basics.json"
        io.save_dataset(
            ReachDataset.from_pairs(2, [("10", 3.0), ("01", 3.0), ("11", 5.0)]), path
        )
        code, out, err = run_cli(capsys, command, path, "--target", target)
        assert code == 64
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--exclude", "--track"])
    def test_malformed_mask_list(self, capsys, tmp_path, triangle_file, flag):
        truth_path = tmp_path / "truth.json"
        io.save_ground_truth(independent_truth(3, 0.2, 1000.0), truth_path)
        code, out, err = run_cli(
            capsys, "select", triangle_file, "--budget", "1", "--truth", truth_path,
            flag, "110,10",
        )
        assert code == 64
        assert out == ""
        assert err == "error: subset '10' does not have 3 characters (num_bgs=3)\n"

    def test_negative_budget(self, capsys, tmp_path):
        truth_path = tmp_path / "truth.json"
        io.save_ground_truth(independent_truth(3, 0.2, 1000.0), truth_path)
        code, out, err = run_cli(
            capsys, "select", truth_path, "--budget", "-2", "--truth", truth_path
        )
        assert code == 64
        assert out == ""
        assert err.startswith("error: budget must be non-negative")
        assert "Traceback" not in err
        code, out, _ = run_cli(
            capsys, "select", truth_path, "--budget", "0", "--truth", truth_path
        )
        assert code == 0
        assert json.loads(out)["rounds"] == []
