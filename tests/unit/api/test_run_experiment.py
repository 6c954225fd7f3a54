"""Tests for run_experiment: artifacts, validation and per-run backends."""

from __future__ import annotations

import threading

import pytest

import repro
from repro.api import ExecutionConfig, run_experiment
from repro.errors import ExperimentError
from repro.exec.backends import InProcessBackend
from repro.store.fingerprint import code_version


class TestRunExperiment:
    def test_returns_a_populated_artifact(self):
        artifact = run_experiment("E10", deltas=(0.01, 0.1), monte_carlo_reps=2000)
        assert artifact.spec_id == "E10"
        assert artifact.report.experiment_id == "E10" and artifact.report.rows
        assert artifact.version == code_version()
        assert artifact.version.startswith(repro.__version__ + "+k")
        assert artifact.wall_time_seconds > 0
        assert artifact.parameters["monte_carlo_reps"] == 2000
        assert artifact.parameters["base_seed"] == 1010  # spec default resolved in
        # E10 vectorises its Monte-Carlo in-process: it dispatches no task.
        assert artifact.execution["backend"] == {"name": "in-process", "tasks": 0}

    def test_config_overrides_are_recorded_in_parameters(self):
        artifact = run_experiment(
            "E11",
            config=ExecutionConfig(trials=2, base_seed=77),
            n=120,
            epsilon=0.35,
        )
        assert artifact.parameters["trials"] == 2
        assert artifact.parameters["base_seed"] == 77
        assert artifact.execution["trials"] == 2 and artifact.execution["base_seed"] == 77

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("E99")

    def test_unknown_parameter_override_lists_the_valid_ones(self):
        with pytest.raises(ExperimentError, match="settable parameters are"):
            run_experiment("E10", sample_count=5)

    def test_conflicting_trials_specifications_rejected(self):
        with pytest.raises(ExperimentError, match="pass it once"):
            run_experiment("E11", config=ExecutionConfig(trials=2), trials=3)

    def test_accepts_an_already_resolved_plan(self):
        plan = ExecutionConfig(batch=True).resolve("E10")
        artifact = run_experiment("E10", config=plan, deltas=(0.01, 0.1), monte_carlo_reps=2000)
        assert artifact.execution["batch"] is True

    def test_plan_for_another_experiment_rejected(self):
        plan = ExecutionConfig(batch=True).resolve("E8")
        with pytest.raises(ExperimentError, match="resolved for E8"):
            run_experiment("E10", config=plan)


    def test_manifest_shows_when_jobs_dispatched_nothing(self):
        artifact = run_experiment(
            "E10",
            config=ExecutionConfig(batch=True, backend="local", backend_options={"workers": 2}),
            deltas=(0.01,),
            monte_carlo_reps=500,
        )
        assert artifact.execution["backend"] == {"name": "local", "workers": 2, "tasks": 0}

    def test_serial_sweep_is_one_task_per_trial(self):
        artifact = run_experiment("E1", sizes=(64, 96), epsilon=0.3, trials=3)
        assert artifact.execution["backend"] == {"name": "in-process", "tasks": 6}


class TestConcurrentRuns:
    def test_two_threads_each_install_their_own_backend(self, monkeypatch):
        """Concurrent runs naming a backend must not collide (service workers do this)."""
        barrier = threading.Barrier(2, timeout=60)
        submit = InProcessBackend.submit

        def submit_when_both_runs_hold_a_backend(self, tasks):
            barrier.wait()
            return submit(self, tasks)

        monkeypatch.setattr(InProcessBackend, "submit", submit_when_both_runs_hold_a_backend)
        artifacts, errors = [None, None], []

        def run(slot):
            try:
                artifacts[slot] = run_experiment(
                    "E1",
                    config=ExecutionConfig(backend="in-process"),
                    sizes=(64, 96),
                    epsilon=0.3,
                    trials=1,
                )
            except BaseException as error:  # surfaced by the assertion below
                errors.append(error)
                barrier.abort()

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        first, second = artifacts
        assert first.report.rows == second.report.rows
        assert first.execution["backend"] == second.execution["backend"] == {
            "name": "in-process",
            "tasks": 2,
        }
