"""Unit tests for the run-fingerprint contract (repro.store.fingerprint).

The fingerprint is the cache address: two requests must hash identically
exactly when the determinism contract says their results are bit-identical.
These tests pin both directions — canonicalization invariances (dict key
order, tuple-vs-list, non-finite floats, default-vs-explicit overrides,
backend changes) must collapse to one fingerprint, while
semantic changes (parameters, version, the ``batch`` flag) must not.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import __version__
from repro.api import ExecutionConfig, experiment_ids, resolve_run_inputs, run_experiment
from repro.errors import ExperimentError
from repro.store import (
    EXCLUDED_PLAN_FIELDS,
    FINGERPRINT_FIELDS,
    RunStore,
    canonical_json,
    load_run,
    run_fingerprint,
    save_run,
)
from repro.store.fingerprint import KERNEL_EPOCH, code_version

PARAMS = {"n": 100, "epsilon": 0.3, "sizes": (10, 20)}


class TestCanonicalization:
    def test_dict_key_order_is_irrelevant(self):
        shuffled = {"sizes": (10, 20), "n": 100, "epsilon": 0.3}
        assert run_fingerprint("E1", "1.0.0", PARAMS) == run_fingerprint(
            "E1", "1.0.0", shuffled
        )

    def test_tuples_and_lists_hash_identically(self):
        as_list = dict(PARAMS, sizes=[10, 20])
        assert run_fingerprint("E1", "1.0.0", PARAMS) == run_fingerprint(
            "E1", "1.0.0", as_list
        )

    def test_nonfinite_values_are_canonical_and_strict_json(self):
        weird = {"a": float("nan"), "b": float("inf"), "c": -float("inf")}
        first = run_fingerprint("E1", "1.0.0", weird)
        second = run_fingerprint("E1", "1.0.0", dict(reversed(list(weird.items()))))
        assert first == second
        # The canonical encoding itself must be strict JSON (no NaN tokens).
        encoded = canonical_json(weird)
        assert "NaN" not in encoded and "Infinity" not in encoded

    def test_numpy_scalars_hash_like_python_scalars(self):
        import numpy as np

        assert run_fingerprint("E1", "1.0.0", {"n": np.int64(100)}) == run_fingerprint(
            "E1", "1.0.0", {"n": 100}
        )

    def test_fingerprint_is_a_sha256_hex_digest(self):
        fingerprint = run_fingerprint("E1", "1.0.0", PARAMS)
        assert len(fingerprint) == 64 and int(fingerprint, 16) >= 0


class TestSemanticSensitivity:
    def test_parameters_version_spec_and_batch_all_matter(self):
        base = run_fingerprint("E1", "1.0.0", PARAMS)
        assert run_fingerprint("E2", "1.0.0", PARAMS) != base
        assert run_fingerprint("E1", "1.0.1", PARAMS) != base
        assert run_fingerprint("E1", "1.0.0", dict(PARAMS, n=101)) != base
        assert run_fingerprint("E1", "1.0.0", PARAMS, batch=True) != base

    def test_contract_constants_name_the_ins_and_outs(self):
        assert "execution.batch" in FINGERPRINT_FIELDS
        assert EXCLUDED_PLAN_FIELDS == ("backend", "store", "cache")


class TestResolvedRunInvariance:
    """Fingerprints computed through run_experiment's resolution layer."""

    E1_TOY = {"sizes": (250, 400), "epsilon": 0.3, "trials": 1}

    def test_default_and_explicit_override_collapse_to_one_fingerprint(self, tmp_path):
        # trials passed as a parameter override vs. on the ExecutionConfig:
        # both resolve to the same parameters, hence the same fingerprint.
        store = tmp_path / "store"
        via_param = run_experiment(
            "E1", config=ExecutionConfig(store_path=store), **self.E1_TOY
        )
        via_config = run_experiment(
            "E1",
            config=ExecutionConfig(store_path=store, trials=1),
            sizes=(250, 400),
            epsilon=0.3,
        )
        assert via_param.fingerprint == via_config.fingerprint
        assert via_config.execution["cache"] == "hit"

    def test_backend_does_not_change_the_fingerprint(self, tmp_path):
        store = tmp_path / "store"
        serial = run_experiment(
            "E1", config=ExecutionConfig(store_path=store), **self.E1_TOY
        )
        parallel = run_experiment(
            "E1",
            config=ExecutionConfig(
                store_path=store, backend="local", backend_options={"workers": 2}
            ),
            **self.E1_TOY,
        )
        assert serial.fingerprint == parallel.fingerprint
        assert serial.execution["cache"] == "miss"
        assert parallel.execution["cache"] == "hit"

    def test_cross_backend_hit_serves_the_golden_digest(self, tmp_path):
        """A run stored serially must satisfy a local-pool request — and the
        served report must still match the pinned E8 golden digest."""
        sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
        from _golden_grid import grid_digest

        e8_toy = dict(n=60, epsilon=0.3, set_sizes=(10,), biases=(0.2,), trials=2, base_seed=5)
        reference = grid_digest("E8", False, e8_toy)

        store = tmp_path / "store"
        cold = run_experiment("E8", config=ExecutionConfig(store_path=store), **e8_toy)
        assert cold.execution["cache"] == "miss"
        pooled = ExecutionConfig(store_path=store, backend="local", backend_options={"workers": 2})
        digest = grid_digest("E8", False, e8_toy, config=pooled)
        assert digest == reference
        warm = run_experiment("E8", config=pooled, **e8_toy)
        assert warm.execution["cache"] == "hit"

    def test_rejects_non_mapping_parameters(self):
        with pytest.raises((ExperimentError, TypeError, ValueError)):
            run_fingerprint("E1", "1.0.0", 42)

    def test_version_pins_the_code(self):
        # The live code version participates, so upgrading repro, bumping
        # KERNEL_EPOCH or changing numpy's minor release invalidates every
        # stored run by construction.
        a = run_experiment("E1", **self.E1_TOY)
        assert a.version == code_version()
        assert a.fingerprint == run_fingerprint("E1", code_version(), a.parameters)
        assert not math.isnan(a.wall_time_seconds)

    def test_code_version_names_package_epoch_and_numpy(self):
        numpy_major_minor = ".".join(np.__version__.split(".")[:2])
        assert code_version() == f"{__version__}+k{KERNEL_EPOCH}.np{numpy_major_minor}"

    def test_pre_epoch_manifest_verifies_but_is_not_served(self, tmp_path):
        # A run stored before the epoch recorded the bare package version;
        # load_run verifies it from that field, and a request today misses it.
        old = run_experiment("E1", **self.E1_TOY)
        old.version = __version__
        old.fingerprint = run_fingerprint("E1", __version__, old.parameters)
        assert load_run(save_run(old, tmp_path / "saved")).version == __version__
        store = tmp_path / "store"
        RunStore(store).put(old)
        fresh = run_experiment("E1", config=ExecutionConfig(store_path=store), **self.E1_TOY)
        assert fresh.execution["cache"] == "miss"
        assert fresh.fingerprint != old.fingerprint


class TestEverySpecFingerprint:
    """The fingerprint contract holds for every registered experiment."""

    @pytest.mark.parametrize("experiment_id", experiment_ids())
    def test_backend_is_excluded(self, experiment_id):
        pooled = ExecutionConfig(backend="local", backend_options={"workers": 2})
        assert (
            resolve_run_inputs(experiment_id, config=pooled).fingerprint
            == resolve_run_inputs(experiment_id).fingerprint
        )

    @pytest.mark.parametrize("experiment_id", experiment_ids())
    def test_batch_is_covered(self, experiment_id):
        assert (
            resolve_run_inputs(experiment_id, config=ExecutionConfig(batch=True)).fingerprint
            != resolve_run_inputs(experiment_id).fingerprint
        )


#: The ``KERNEL_EPOCH`` the fingerprint pins were taken at.
PINNED_AT_EPOCH = 2


class TestFingerprintsArePinned:
    """Fingerprints re-pinned at code version ``1.0.0+k2.np2.4``.

    Removing execution settings must not move a single cache address: every
    artifact stored at one code version keeps hitting.  Only a new code
    version moves them (at ``1.0.0``, before the kernel epoch, the two pins
    were ``4e6f348d...`` and ``14b41f65...``; at ``1.0.0+k1.np2.4`` they were
    ``ca0dae52...`` and ``068a28c8...``).
    """

    def test_pins_were_taken_at_the_current_kernel_epoch(self):
        assert PINNED_AT_EPOCH == KERNEL_EPOCH, "re-pin and bump KERNEL_EPOCH"

    def test_e1_batch_fingerprint_is_unchanged(self):
        resolved = resolve_run_inputs("E1", config=ExecutionConfig(batch=True))
        assert resolved.fingerprint == (
            "1b68893d411491c2aee8f85ddfb8e7900401b53474f5d96306040565645c7fc1"
        )

    def test_e8_default_fingerprint_is_unchanged(self):
        assert resolve_run_inputs("E8").fingerprint == (
            "569104f2421842b44e40d5e1be791f70675f70e597e2ed535c73809abdef9273"
        )

    def test_manifest_with_the_old_execution_keys_loads_and_hits(self, tmp_path):
        e1_toy = {"sizes": (64, 96), "epsilon": 0.3, "trials": 1}
        artifact = run_experiment("E1", **e1_toy)
        # The execution summary an older release recorded for `--jobs 2`.
        artifact.execution = {
            "jobs": 2,
            "batch": False,
            "runner": "ParallelTrialRunner",
            "point_jobs": None,
            "trials": None,
            "base_seed": None,
            "backend": None,
            "store": None,
            "notes": [],
        }
        loaded = load_run(save_run(artifact, tmp_path / "saved"))
        assert loaded.execution["runner"] == "ParallelTrialRunner"
        assert loaded.fingerprint == artifact.fingerprint

        store = tmp_path / "store"
        RunStore(store).put(artifact)
        hit = run_experiment("E1", config=ExecutionConfig(store_path=store), **e1_toy)
        assert hit.execution["cache"] == "hit"
        assert hit.execution["point_jobs"] is None and hit.execution["jobs"] == 2
        assert hit.report.render() == artifact.report.render()
