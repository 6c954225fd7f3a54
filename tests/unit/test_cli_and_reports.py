"""Unit tests for the CLI and the experiment report structure."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.experiments import DRIVERS
from repro.experiments.report import ExperimentReport


class TestExperimentReport:
    def test_rows_and_rendering(self):
        report = ExperimentReport(experiment_id="EX", title="demo", claim="something holds")
        report.add_row(n=10, value=0.5)
        report.add_row(n=20, value=0.25)
        report.add_note("a remark")
        text = report.render()
        assert "EX: demo" in text
        assert "paper claim: something holds" in text
        assert "note: a remark" in text
        assert report.columns() == ["n", "value"]
        assert [row["n"] for row in report.rows] == [10, 20]

    def test_empty_report_rejected_at_render(self):
        report = ExperimentReport(experiment_id="EX", title="demo", claim="c")
        with pytest.raises(ExperimentError):
            report.render()


class TestDriverRegistry:
    def test_all_twelve_experiments_registered(self):
        assert sorted(DRIVERS, key=lambda key: int(key[1:])) == [f"E{i}" for i in range(1, 13)]

    def test_every_driver_exposes_run(self):
        for driver in DRIVERS.values():
            assert callable(driver.run)
            assert driver.__doc__


class TestCli:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["broadcast", "--n", "50", "--epsilon", "0.3"])
        assert args.command == "broadcast" and args.n == 50
        args = parser.parse_args(["majority", "--set-size", "10"])
        assert args.command == "majority" and args.set_size == 10
        args = parser.parse_args(["experiment", "E10"])
        assert args.experiment_id == "E10"

    def test_broadcast_command_runs_and_reports_success(self, capsys):
        exit_code = main(["broadcast", "--n", "250", "--epsilon", "0.3", "--seed", "3"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "success" in captured and "rounds" in captured

    def test_majority_command_runs(self, capsys):
        exit_code = main(
            ["majority", "--n", "250", "--epsilon", "0.3", "--set-size", "80", "--bias", "0.25"]
        )
        assert exit_code == 0
        assert "majority-consensus" in capsys.readouterr().out

    def test_experiment_command_prints_report(self, capsys):
        exit_code = main(["experiment", "E10"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "E10" in out and "Lemma 2.11" in out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out and "E11:" in out
        # The listing comes from the registry: titles and parameters.
        assert "parameters:" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "E99"])

    def test_batch_runs_a_stage_level_experiment_from_the_cli(self, capsys):
        exit_code = main(
            ["experiment", "E4", "--batch", "--trials", "2",
             "--set", "n=250", "--set", "epsilons=(0.3,)"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "x0_bound_rate" in out

    def test_jobs_is_the_one_parallelism_flag(self, capsys, tmp_path):
        """--jobs N >= 2 runs on a local pool of N workers; the manifest shows it."""
        import json

        toy = ["experiment", "E8", "--batch", "--trials", "2", "--set", "n=150",
               "--set", "set_sizes=(40, 60)", "--set", "biases=(0.4,)"]
        assert main([*toy, "--jobs", "2", "--save", str(tmp_path / "pooled")]) == 0
        pooled = capsys.readouterr().out
        assert main(toy) == 0
        assert capsys.readouterr().out == pooled
        manifest = json.loads((tmp_path / "pooled" / "manifest.json").read_text())
        assert manifest["execution"]["backend"] == {"name": "local", "workers": 2, "tasks": 2}
        for gone in ("--backend", "--workers-endpoint", "--workers-authkey"):
            with pytest.raises(SystemExit):
                main([*toy, gone, "x"])

    def test_negative_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "E10", "--jobs", "-1"])
        assert "non-negative" in capsys.readouterr().err

    def test_trials_override_rejected_where_not_declared(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "E10", "--trials", "2"])
        assert "no 'trials' parameter" in capsys.readouterr().err

    def test_set_rejects_unknown_parameters(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "E10", "--set", "bogus=1"])
        assert "settable parameters are" in capsys.readouterr().err

    def test_set_rejects_reserved_names_with_the_same_message(self, capsys):
        # "config" is run_experiment's own keyword; it must fail like any
        # other undeclared parameter, not crash with a keyword collision.
        with pytest.raises(SystemExit):
            main(["experiment", "E10", "--set", "config=1"])
        assert "settable parameters are" in capsys.readouterr().err

    def test_set_rejects_malformed_overrides(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "E10", "--set", "epsilon"])
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_set_and_seed_flow_into_the_run(self, capsys):
        exit_code = main(
            [
                "experiment",
                "E10",
                "--seed",
                "7",
                "--set",
                "deltas=(0.01, 0.1)",
                "--set",
                "monte_carlo_reps=2000",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "E10" in out and "0.010" in out
