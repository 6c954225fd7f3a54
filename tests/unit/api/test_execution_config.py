"""Unit tests for ExecutionConfig resolution into ExecutionPlans."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import ExecutionConfig, ExecutionPlan, backend_for_jobs, get_spec, resolve_run_options
from repro.errors import ExperimentError


class TestResolution:
    def test_default_config_is_in_process(self):
        plan = ExecutionConfig().resolve("E1")
        assert not plan.batch and plan.backend == "in-process"
        assert plan.spec is get_spec("E1")

    def test_config_has_seven_fields(self):
        assert [field.name for field in dataclasses.fields(ExecutionConfig)] == [
            "batch",
            "base_seed",
            "trials",
            "backend",
            "backend_options",
            "store_path",
            "cache",
        ]

    def test_trials_override_requires_a_trials_parameter(self):
        assert ExecutionConfig(trials=7).resolve("E1").trials == 7
        with pytest.raises(ExperimentError, match="no 'trials' parameter"):
            ExecutionConfig(trials=7).resolve("E10")

    def test_config_is_frozen(self):
        config = ExecutionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.batch = True  # type: ignore[misc]

    def test_describe_summarises_the_plan(self):
        summary = ExecutionConfig(batch=True, trials=3, base_seed=9).resolve("E8").describe()
        assert summary == {
            "batch": True,
            "trials": 3,
            "base_seed": 9,
            "store": None,
        }

    def test_store_path_flows_into_the_plan_and_describe(self, tmp_path):
        plan = ExecutionConfig(store_path=tmp_path / "store").resolve("E8")
        assert plan.store_path == tmp_path / "store" and plan.cache
        assert plan.describe()["store"] == {"path": str(tmp_path / "store"), "cache": True}
        bypass = ExecutionConfig(store_path=str(tmp_path / "store"), cache=False).resolve("E8")
        assert bypass.describe()["store"]["cache"] is False

    def test_store_path_pointing_at_a_file_is_rejected(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        with pytest.raises(ExperimentError, match="not a directory"):
            ExecutionConfig(store_path=target).resolve("E8")


class TestTypeChecks:
    """Execution inputs may come from an untrusted JSON body: type-check them."""

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_batch_must_be_a_bool(self, value):
        with pytest.raises(ExperimentError, match="batch must be true or false"):
            ExecutionConfig(batch=value).resolve("E1")  # type: ignore[arg-type]

    @pytest.mark.parametrize("value", ["3", 2.0, True, 0, -1])
    def test_trials_must_be_a_positive_integer(self, value):
        with pytest.raises(ExperimentError, match="trials must be a positive integer"):
            ExecutionConfig(trials=value).resolve("E1")  # type: ignore[arg-type]

    @pytest.mark.parametrize("value", ["7", 7.5, False])
    def test_base_seed_must_be_an_integer(self, value):
        with pytest.raises(ExperimentError, match="base_seed must be an integer"):
            ExecutionConfig(base_seed=value).resolve("E1")  # type: ignore[arg-type]

    @pytest.mark.parametrize("value", ["2", 1.5, -1, True])
    def test_workers_must_be_a_non_negative_integer(self, value):
        with pytest.raises(ExperimentError, match="workers must be a non-negative integer"):
            ExecutionConfig(backend="local", backend_options={"workers": value}).resolve("E1")

    def test_numpy_integers_are_integers(self):
        plan = ExecutionConfig(
            trials=np.int64(3),
            base_seed=np.int32(5),
            backend="local",
            backend_options={"workers": np.int64(2)},
        ).resolve("E1")
        assert plan.trials == 3 and type(plan.trials) is int
        assert plan.base_seed == 5 and type(plan.base_seed) is int


class TestForService:
    """A service request's body may set only the experiment-shaping options."""

    @pytest.mark.parametrize("key", ["store_path", "cache", "jobs"])
    def test_request_may_not_set(self, tmp_path, key):
        with pytest.raises(ExperimentError, match=f"unknown execution option\\(s\\) {key};"):
            ExecutionConfig.for_service(tmp_path, {key: 2})

    def test_the_service_store_is_always_consulted(self, tmp_path):
        config = ExecutionConfig.for_service(
            tmp_path, {"batch": True, "backend": "local", "backend_options": {"workers": 2}}
        )
        assert config.store_path == tmp_path and config.cache is True
        assert config.batch and config.backend == "local"
        assert config.backend_options == {"workers": 2}


class TestBackendResolution:
    def test_default_backend_is_in_process(self):
        from repro.exec.backends import InProcessBackend

        plan = ExecutionConfig().resolve("E1")
        assert isinstance(plan.create_backend(), InProcessBackend)

    def test_unknown_backend_is_rejected_naming_the_valid_ones(self):
        with pytest.raises(ExperimentError, match="registered backends: in-process, local$"):
            ExecutionConfig(backend="threads").resolve("E1")
        with pytest.raises(ExperimentError, match="unknown execution backend None"):
            ExecutionConfig(backend=None).resolve("E1")  # type: ignore[arg-type]

    def test_unknown_backend_option_is_rejected(self):
        with pytest.raises(ExperimentError, match="chunk_size"):
            ExecutionConfig(backend="local", backend_options={"chunk_size": 3}).resolve("E1")

    def test_in_process_backend_takes_no_options(self):
        with pytest.raises(ExperimentError, match="no option"):
            ExecutionConfig(backend_options={"workers": 2}).resolve("E1")

    def test_create_backend_builds_the_named_backend(self):
        from repro.exec.backends import LocalPoolBackend, default_jobs

        local = ExecutionConfig(backend="local", backend_options={"workers": 2}).resolve(
            "E1"
        ).create_backend()
        assert isinstance(local, LocalPoolBackend) and local.workers == 2
        all_cpus = ExecutionConfig(backend="local").resolve("E1").create_backend()
        assert all_cpus.workers == default_jobs()


class TestBackendForJobs:
    """``--jobs N`` is the one parallelism flag; this is its mapping."""

    @pytest.mark.parametrize("jobs", [None, 1])
    def test_unset_and_one_mean_in_process(self, jobs):
        assert backend_for_jobs(jobs) == {"backend": "in-process", "backend_options": None}

    @pytest.mark.parametrize("jobs", [0, 2, 5])
    def test_zero_and_many_mean_a_local_pool(self, jobs):
        assert backend_for_jobs(jobs) == {"backend": "local", "backend_options": {"workers": jobs}}

    def test_negative_jobs_rejected(self):
        with pytest.raises(ExperimentError, match="non-negative"):
            backend_for_jobs(-2)


class TestFromEnv:
    def test_unset_means_in_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_JOBS", raising=False)
        config = ExecutionConfig.from_env("REPRO_TEST_JOBS")
        assert config.backend == "in-process" and config.backend_options is None

    def test_set_value_selects_a_local_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_JOBS", " 3 ")
        config = ExecutionConfig.from_env("REPRO_TEST_JOBS", batch=True)
        assert config.backend == "local" and config.backend_options == {"workers": 3}
        assert config.batch

    @pytest.mark.parametrize("raw", ["two", "-1", "1.5"])
    def test_bad_value_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_JOBS", raw)
        with pytest.raises(ExperimentError, match=f"REPRO_TEST_JOBS .*got '{raw}'"):
            ExecutionConfig.from_env("REPRO_TEST_JOBS")

    def test_backend_variables_are_gone(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_JOBS", raising=False)
        monkeypatch.setenv("REPRO_BACKEND", "local")
        monkeypatch.setenv("REPRO_WORKERS", "4")
        config = ExecutionConfig.from_env("REPRO_TEST_JOBS")
        assert config.backend == "in-process" and config.backend_options is None

    def test_repro_store_selects_the_run_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_JOBS", raising=False)
        monkeypatch.setenv("REPRO_STORE", " runs/store ")
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        config = ExecutionConfig.from_env("REPRO_TEST_JOBS")
        assert config.store_path == "runs/store" and config.cache

    def test_repro_cache_falsy_values_disable_the_lookup(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_JOBS", raising=False)
        monkeypatch.delenv("REPRO_STORE", raising=False)
        for raw in ("0", "false", "No", "OFF"):
            monkeypatch.setenv("REPRO_CACHE", raw)
            assert not ExecutionConfig.from_env("REPRO_TEST_JOBS").cache
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert ExecutionConfig.from_env("REPRO_TEST_JOBS").cache
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert ExecutionConfig.from_env("REPRO_TEST_JOBS").cache


class TestResolveRunOptions:
    def test_resolved_plan_passes_through_unchanged(self):
        plan = ExecutionConfig(batch=True).resolve("E1")
        assert resolve_run_options("E1", config=plan) is plan

    def test_plan_for_another_experiment_is_rejected(self):
        plan = ExecutionConfig(batch=True).resolve("E2")
        with pytest.raises(ExperimentError, match="resolved for E2"):
            resolve_run_options("E1", config=plan)

    def test_unexpected_config_type_is_rejected(self):
        with pytest.raises(ExperimentError, match="ExecutionConfig or ExecutionPlan"):
            resolve_run_options("E1", config=object())  # type: ignore[arg-type]

    def test_no_config_resolves_the_defaults(self):
        plan = resolve_run_options("E8")
        assert isinstance(plan, ExecutionPlan)
        assert not plan.batch and plan.backend == "in-process"
