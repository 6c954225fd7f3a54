"""Drift pins for the experiment registry.

The registry (:mod:`repro.api.spec`) *declares* the parameter defaults so
that nothing needs to introspect driver signatures at runtime.  These tests are the other half of that contract: they introspect
the signatures *here, once, in the test suite* and fail if a declared
default ever disagrees with a driver's actual ``run`` signature — or if the
README experiment table stops matching the registry.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

from repro.api import (
    REGISTRY,
    experiment_ids,
    get_spec,
    iter_specs,
    sweep_point_names,
)
from repro.errors import ExperimentError
from repro.experiments import DRIVERS

#: The one run() keyword owned by the execution layer, not declared as a parameter.
EXECUTION_KWARGS = {"config"}

README = Path(__file__).resolve().parents[3] / "README.md"


class TestRegistryShape:
    def test_all_twelve_experiments_registered(self):
        assert experiment_ids() == [f"E{i}" for i in range(1, 13)]

    def test_registry_matches_legacy_drivers_dict(self):
        assert set(REGISTRY) == set(DRIVERS)
        for experiment_id, spec in REGISTRY.items():
            assert spec.driver() is DRIVERS[experiment_id]

    def test_specs_carry_title_claim_and_parameters(self):
        for spec in iter_specs():
            assert spec.title and spec.claim
            assert spec.parameters, f"{spec.experiment_id} declares no parameters"
            assert "base_seed" in spec.parameter_names

    def test_get_spec_passes_spec_through_and_rejects_unknown_ids(self):
        spec = get_spec("E3")
        assert get_spec(spec) is spec
        with pytest.raises(ExperimentError, match="unknown experiment"):
            get_spec("E99")

    def test_canonical_point_naming_helper_exposed(self):
        from repro.analysis.sweeps import sweep_point_names as analysis_helper

        assert sweep_point_names is analysis_helper


@pytest.mark.parametrize("experiment_id", [f"E{i}" for i in range(1, 13)])
class TestSpecsCannotDriftFromDrivers:
    """Every spec matches its driver's ``run`` signature."""

    def test_execution_reaches_the_driver_only_through_config(self, experiment_id):
        parameters = inspect.signature(REGISTRY[experiment_id].driver().run).parameters
        assert "config" in parameters, "every driver must accept config="
        assert not {"runner", "batch", "point_jobs"} & set(parameters)

    def test_declared_parameters_match_run_signature(self, experiment_id):
        spec = REGISTRY[experiment_id]
        parameters = inspect.signature(spec.driver().run).parameters
        declared = [(p.name, p.default) for p in spec.parameters]
        actual = [
            (name, parameter.default)
            for name, parameter in parameters.items()
            if name not in EXECUTION_KWARGS
        ]
        assert declared == actual


class TestReadmeTableMatchesRegistry:
    """README's E1–E12 table is checked against the registry, row by row."""

    def _table_rows(self):
        rows = re.findall(r"^\|\s*(E\d+)\s*\|\s*`([a-z0-9_]+)`", README.read_text(), re.MULTILINE)
        assert rows, "README.md no longer contains the experiment table"
        return rows

    def test_readme_lists_every_registered_experiment_once(self):
        ids = [experiment_id for experiment_id, _ in self._table_rows()]
        assert ids == experiment_ids()

    def test_readme_module_names_match_registry(self):
        for experiment_id, stem in self._table_rows():
            assert REGISTRY[experiment_id].module == f"repro.experiments.{stem}"

