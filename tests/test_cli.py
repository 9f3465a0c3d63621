import json

import numpy as np
import pytest

from survix.cli import main
from survix.core import InteractionExplanation, SurvivalDataset
from survix.models import model_to_json
from survix.simulate import simulate_dataset
from survix.validation import benchmark_model


def run(args):
    return main([str(a) for a in args])


class TestSimulateCommand:
    def test_writes_dataset_and_metadata(self, tmp_path):
        code = run(["simulate", "--scenario", 1, "--n", 200, "--seed", 7,
                    "--out", tmp_path])
        assert code == 0
        data = SurvivalDataset.from_csv(tmp_path / "dataset.csv")
        assert data.n == 200
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["scenario"] == 1 and meta["seed"] == 7
        assert 0 <= meta["censoring_rate"] <= 1
        assert (tmp_path / "simulate_manifest.json").exists()

    def test_rho_recorded(self, tmp_path):
        run(["simulate", "--scenario", 1, "--n", 50, "--rho", 0.9,
             "--out", tmp_path])
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["rho"] == 0.9

    def test_split_files(self, tmp_path):
        run(["simulate", "--scenario", 1, "--n", 100, "--split",
             "--out", tmp_path])
        train = SurvivalDataset.from_csv(tmp_path / "train.csv")
        test = SurvivalDataset.from_csv(tmp_path / "test.csv")
        assert train.n == 80 and test.n == 20

    def test_bad_scenario_is_usage_error(self, tmp_path, capsys):
        assert run(["simulate", "--scenario", 11, "--out", tmp_path]) == 1


class TestExplainCommand:
    def test_exact_on_dataset_index(self, tmp_path):
        run(["simulate", "--scenario", 2, "--n", 120, "--out", tmp_path])
        code = run(["explain", "--scenario", 2, "--data",
                    tmp_path / "dataset.csv", "--instance", 3,
                    "--target", "hazard", "--order", 2, "--timepoints", 9,
                    "--svg", "--smooth", "--out", tmp_path])
        assert code == 0
        expl = InteractionExplanation.from_json(tmp_path / "explanation.json")
        assert expl.order == 2
        assert (tmp_path / "explanation.csv").exists()
        assert (tmp_path / "explanation_smoothed.csv").exists()
        svg = (tmp_path / "explanation.svg").read_text()
        assert svg.count("<polyline") == len(expl.values)

    def test_literal_instance(self, tmp_path):
        code = run(["explain", "--scenario", 1, "--n", 80,
                    "--instance=-1.265,2.4162,-0.6436", "--target",
                    "loghazard", "--timepoints", 5, "--out", tmp_path])
        assert code == 0

    def test_regression_reports_design_rank(self, tmp_path, capsys):
        # p=9 model so a 300-coalition budget is a genuine sampled regression
        model = benchmark_model(p=9)
        model_to_json(model, tmp_path / "model.json")
        data, _ = simulate_dataset(model, n=60, seed=5)
        data.to_csv(tmp_path / "data.csv")
        code = run(["explain", "--model-file", tmp_path / "model.json",
                    "--data", tmp_path / "data.csv", "--instance", 0,
                    "--target", "hazard", "--method", "regression",
                    "--budget", 300, "--timepoints", 5, "--out", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "design rank" in out

    def test_order1_differs_from_order2_individual_effects(self, tmp_path):
        # aggregation reassigns interaction mass, so order-1 values are not
        # the order-2 individual effects on a scenario with interactions
        args = ["explain", "--scenario", 3, "--n", 150, "--instance", 0,
                "--target", "hazard", "--timepoints", 7]
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        run(args + ["--order", 1, "--out", d1])
        run(args + ["--order", 2, "--out", d2])
        e1 = InteractionExplanation.from_json(d1 / "explanation.json")
        e2 = InteractionExplanation.from_json(d2 / "explanation.json")
        diff = max(
            float(np.max(np.abs(e1.values[key] - e2.values[key])))
            for key in e1.values
        )
        assert diff > 1e-6

    def test_conditional_imputation_runs(self, tmp_path):
        code = run(["explain", "--scenario", "dep_demo", "--n", 100,
                    "--instance", 1, "--target", "loghazard",
                    "--imputation", "conditional", "--n-samples", 200,
                    "--timepoints", 5, "--out", tmp_path])
        assert code == 0

    @pytest.mark.parametrize("order", [0, 4])
    def test_order_outside_the_scenarios_p_is_usage_error(self, tmp_path, capsys,
                                                          order):
        code = run(["explain", "--scenario", 1, "--order", order, "--out", tmp_path])
        assert code == 1
        assert "--order must lie in 1..3" in capsys.readouterr().err

    def test_unknown_scenario_from_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scenario": 11}))
        assert run(["explain", "--config", config, "--out", tmp_path]) == 1
        assert "unknown scenario 11" in capsys.readouterr().err

    def test_missing_data_file_is_computation_error(self, tmp_path):
        code = run(["explain", "--scenario", 1, "--data",
                    tmp_path / "absent.csv", "--instance", 0,
                    "--target", "hazard", "--out", tmp_path])
        assert code == 2


class TestValidateCommand:
    def test_identities_suite_passes(self, tmp_path, capsys):
        code = run(["validate", "--only", "identities", "--out", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        report = (tmp_path / "validate_report.csv").read_text().splitlines()
        assert report[0] == "suite,check,passed,value,threshold"

    def test_thm5_suite_has_marginal_and_conditional_checks(self, tmp_path,
                                                            capsys):
        code = run(["validate", "--only", "thm5", "--out", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "marginal_inert_feature_zero" in out
        assert "conditional_inert_feature_nonzero" in out

    def test_tampered_tolerance_fails_controlled(self, tmp_path, capsys):
        code = run(["validate", "--tol", 1e-300, "--out", tmp_path])
        assert code == 3
        out = capsys.readouterr().out
        assert "[FAIL]" in out


class TestBenchmarkCommand:
    def test_csv_layout_and_reproducibility(self, tmp_path):
        args = ["benchmark", "--budgets", "64,128", "--reps", 2, "--seed", 3,
                "--timepoints", 3]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", d1]) == 0
        assert run(args + ["--out", d2]) == 0
        b1 = (d1 / "benchmark.csv").read_bytes()
        b2 = (d2 / "benchmark.csv").read_bytes()
        assert b1 == b2
        lines = b1.decode().splitlines()
        assert lines[0] == "method,budget,run,mse"
        assert len(lines) == 1 + 3 * 2 * 2

    def test_budget_beyond_enumeration_rejected(self, tmp_path):
        code = run(["benchmark", "--budgets", "64,5000", "--p", 10,
                    "--reps", 1, "--out", tmp_path])
        assert code == 1

    @pytest.mark.parametrize("args, message", [
        (["--order", 0], "--order must lie in 1..10"),
        (["--order", 11], "--order must lie in 1..10"),
        (["--p", 4, "--order", 5, "--budgets", 8], "--order must lie in 1..4"),
        (["--p", 0], "--p must be >= 1"),
    ])
    def test_order_outside_one_to_p_is_usage_error(self, tmp_path, capsys, args,
                                                    message):
        assert run(["benchmark", "--reps", 1, *args, "--out", tmp_path]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["simulate", "explain", "validate", "benchmark"])
    def test_threads_is_a_benchmark_option(self, tmp_path, sub):
        # the option is gone: every subcommand rejects it as a usage error
        assert run([sub, "--threads", 2, "--out", tmp_path]) == 1


class TestConfigPrecedence:
    def test_flags_beat_config_beat_defaults(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": 60, "seed": 9}))
        run(["simulate", "--scenario", 1, "--config", config, "--n", 40,
             "--out", tmp_path])
        data = SurvivalDataset.from_csv(tmp_path / "dataset.csv")
        assert data.n == 40  # flag wins over config
        manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert manifest["options"]["seed"] == 9  # config wins over default
        assert manifest["options"]["n"] == 40
