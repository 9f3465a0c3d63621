import json
import re

import numpy as np
import pytest

from survix import validation
from survix.approximators import estimators
from survix.cli import _build_parser, main
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
    def test_method_choices_are_exact_and_the_estimators(self):
        _, commands = _build_parser()
        [action] = [a for a in commands["explain"]._actions if a.dest == "method"]
        assert action.choices == ["exact", *estimators()]

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
        assert re.search(r"design rank \d+ \(basis \d+, condition [0-9.e+]+, unstable=", out)

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

    @pytest.mark.parametrize("order", [0, 5])
    def test_order_outside_the_model_files_p_is_usage_error(self, tmp_path, capsys,
                                                            order):
        model_to_json(benchmark_model(p=4), tmp_path / "model.json")
        simulate_dataset(benchmark_model(p=4), n=20, seed=1)[0].to_csv(tmp_path / "data.csv")
        code = run(["explain", "--model-file", tmp_path / "model.json",
                    "--data", tmp_path / "data.csv", "--instance", 0,
                    "--order", order, "--out", tmp_path])
        assert code == 1
        assert "--order must lie in 1..4" in capsys.readouterr().err
        assert not (tmp_path / "explain_manifest.json").exists()

    def test_budget_below_the_scenarios_floor_is_usage_error(self, tmp_path, capsys):
        # regression's floor at order 2 over the scenario's 3 features is 6
        code = run(["explain", "--scenario", 1, "--method", "regression",
                    "--budget", 3, "--out", tmp_path])
        assert code == 1
        assert "--budget must be >= 6 for regression at order 2" in capsys.readouterr().err

    @pytest.mark.parametrize("method, budget, least", [("regression", 5, 6), ("mc", 1, 2)])
    def test_budget_below_the_model_files_floor_is_usage_error(self, tmp_path, capsys,
                                                               method, budget, least):
        model_to_json(benchmark_model(p=4), tmp_path / "model.json")
        simulate_dataset(benchmark_model(p=4), n=20, seed=1)[0].to_csv(tmp_path / "data.csv")
        code = run(["explain", "--model-file", tmp_path / "model.json",
                    "--data", tmp_path / "data.csv", "--instance", 0,
                    "--method", method, "--budget", budget, "--out", tmp_path])
        assert code == 1
        assert f"--budget must be >= {least} for {method}" in capsys.readouterr().err
        assert not (tmp_path / "explain_manifest.json").exists()

    @pytest.mark.parametrize("args, message", [
        (["--instance", "1,2"], "--instance needs 3 finite values, got '1,2'"),
        (["--instance", "a,b,c"], "--instance needs 3 finite values, got 'a,b,c'"),
        (["--instance", 5000], "--instance 5000 is no row index 0..99"),
        (["--background-size", -3], "--background-size must be >= 0"),
        (["--imputation", "conditional", "--n-samples", 0], "--n-samples must be >= 1"),
    ], ids=["instance-count", "instance-values", "instance-index", "background-size",
            "n-samples"])
    def test_an_invalid_option_is_a_usage_error_that_writes_no_manifest(
            self, tmp_path, capsys, args, message):
        model_to_json(benchmark_model(p=3), tmp_path / "model.json")
        simulate_dataset(benchmark_model(p=3), n=100, seed=1)[0].to_csv(tmp_path / "data.csv")
        # neither the output directory nor its missing parent is created
        code = run(["explain", "--model-file", tmp_path / "model.json",
                    "--data", tmp_path / "data.csv", *args,
                    "--out", tmp_path / "new" / "out"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_a_late_usage_error_leaves_no_new_directory_and_an_old_one_untouched(
            self, tmp_path, capsys):
        args = ["explain", "--scenario", 1, "--instance", "1,2", "--out"]
        assert run([*args, tmp_path / "new"]) == 1
        assert "--instance needs 3 finite values, got '1,2'" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "kept.txt").write_text("kept")
        assert run([*args, tmp_path / "old"]) == 1
        assert [f.name for f in (tmp_path / "old").iterdir()] == ["kept.txt"]
        assert (tmp_path / "old" / "kept.txt").read_text() == "kept"

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_an_out_path_at_or_under_a_file_is_usage_error(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("kept")
        assert run(["explain", "--scenario", 1, "--instance", 0,
                    "--out", tmp_path / out]) == 1
        assert f"--out {tmp_path / out} is no directory" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "kept"

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

    def test_tolerance_reaches_only_the_suites_that_classify(self, tmp_path):
        code = run(["validate", "--only", "thm1,identities", "--tol", 1e-3,
                    "--out", tmp_path])
        assert code == 0
        report = (tmp_path / "validate_report.csv").read_text().splitlines()[1:]
        assert {line.split(",")[0] for line in report} == {"thm1", "identities"}

    def test_tampered_tolerance_fails_controlled(self, tmp_path, capsys):
        code = run(["validate", "--tol", 1e-300, "--out", tmp_path])
        assert code == 3
        out = capsys.readouterr().out
        assert "[FAIL]" in out

    def test_zero_tolerance_is_applied(self, tmp_path, capsys):
        code = run(["validate", "--only", "thm1", "--tol", 0, "--out", tmp_path])
        assert code == 3
        assert "[FAIL]" in capsys.readouterr().out

    def test_negative_tolerance_is_usage_error(self, tmp_path, capsys):
        assert run(["validate", "--tol", -1, "--out", tmp_path]) == 1
        assert "--tol must be >= 0" in capsys.readouterr().err


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

    def test_budget_below_the_regression_floor_is_usage_error(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr(validation, "estimate", lambda *a: pytest.fail("an estimate ran"))
        code = run(["benchmark", "--budgets", "4,64", "--reps", 1, "--out", tmp_path])
        assert code == 1
        assert "regression needs budget >= 2*(order+1)" in capsys.readouterr().err

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
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, sub):
        assert run([sub, "--seed", -1, "--out", tmp_path]) == 1
        assert f"survix {sub}: error: --seed must be >= 0" in capsys.readouterr().err

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

    @pytest.mark.parametrize("key, value, message", [
        ("imputation", "bogus", "argument --imputation: invalid choice: 'bogus'"),
        ("method", "bogus", "argument --method: invalid choice: 'bogus'"),
        ("target", "bogus", "argument --target: invalid choice: 'bogus'"),
        ("order", "two", "argument --order: invalid int value: 'two'"),
    ])
    def test_a_bad_config_value_is_the_flags_usage_error(self, tmp_path, capsys,
                                                          key, value, message):
        # a config value is parsed as its flag, so it fails the flag's checks
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        assert run(["explain", "--config", config, "--out", tmp_path]) == 1
        assert message in capsys.readouterr().err
        assert run(["explain", f"--{key}", value, "--out", tmp_path]) == 1
        assert message in capsys.readouterr().err

    def test_config_keys_of_other_subcommands_are_skipped(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": 30, "budgets": "8", "out": "elsewhere",
                                      "split": False, "rho": None}))
        assert run(["simulate", "--config", config, "--out", tmp_path]) == 0
        assert SurvivalDataset.from_csv(tmp_path / "dataset.csv").n == 30
        assert not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("content", ["[1, 2]", "{not json"])
    def test_an_unreadable_config_is_a_usage_error(self, tmp_path, capsys, content):
        config = tmp_path / "cfg.json"
        config.write_text(content)
        assert run(["simulate", "--config", config, "--out", tmp_path]) == 1
        assert "--config" in capsys.readouterr().err
        assert run(["simulate", "--config", tmp_path / "absent.json",
                    "--out", tmp_path]) == 1


class TestManifestReplay:
    """A run replayed with ``--config <its manifest>`` writes the same bytes."""

    def _replay(self, tmp_path, args, outputs):
        sub = args[0]
        first, second = tmp_path / f"{sub}_first", tmp_path / f"{sub}_replay"
        assert run(args + ["--out", first]) == 0
        manifest = first / f"{sub}_manifest.json"
        assert run([sub, "--config", manifest, "--out", second]) == 0
        replayed = json.loads((second / f"{sub}_manifest.json").read_text())
        assert replayed["options"] == json.loads(manifest.read_text())["options"]
        for name in outputs:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_simulate(self, tmp_path):
        self._replay(tmp_path, ["simulate", "--scenario", 9, "--n", 90, "--seed", 4,
                                "--rho", 0.3, "--t-max", 50.5, "--split"],
                     ["dataset.csv", "metadata.json", "train.csv", "test.csv"])

    def test_explain_a_literal_instance_of_a_dataset(self, tmp_path):
        run(["simulate", "--scenario", 2, "--n", 60, "--out", tmp_path])
        self._replay(tmp_path, ["explain", "--scenario", 2,
                                "--data", tmp_path / "dataset.csv",
                                "--instance=-1.265,2.416,-0.644", "--target", "hazard",
                                "--timepoints", 13, "--smooth", "--svg"],
                     ["explanation.csv", "explanation.json",
                      "explanation_smoothed.csv", "explanation.svg"])

    def test_explain_a_conditional_estimate(self, tmp_path):
        self._replay(tmp_path, ["explain", "--scenario", "dep_demo", "--n", 80,
                                "--instance", 2, "--imputation", "conditional",
                                "--n-samples", 50, "--method", "permutation",
                                "--budget", 6, "--timepoints", 5, "--seed", 11],
                     ["explanation.csv", "explanation.json"])

    def test_validate(self, tmp_path):
        self._replay(tmp_path, ["validate", "--only", "identities", "--seed", 5],
                     ["validate_report.csv"])

    def test_benchmark(self, tmp_path):
        self._replay(tmp_path, ["benchmark", "--budgets", "16,32", "--reps", 2,
                                "--p", 5, "--timepoints", 3, "--order", 1,
                                "--seed", 3],
                     ["benchmark.csv"])
