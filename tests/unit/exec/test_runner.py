"""Unit tests for trial seeds and trial dispatch: equal results on every backend."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_trials
from repro.analysis.sweeps import run_sweep
from repro.errors import ExperimentError
from repro.exec.backends import LocalPoolBackend, use_backend
from repro.exec.runner import trial_seed, trial_seeds
from repro.substrate.rng import derive_seed, spawn_generator


def _cheap_trial(seed, trial_index):
    """Deterministic module-level trial function (picklable for the pool)."""
    rng = spawn_generator(seed, "trial")
    draws = rng.random(16)
    return {
        "seed_echo": seed,
        "index_echo": trial_index,
        "mean_draw": float(draws.mean()),
        "heads": bool(draws[0] < 0.5),
    }


def _bad_trial(seed, trial_index):
    """A trial function that violates the mapping contract."""
    return [seed, trial_index]


def _sweep_trial(point, seed, index):
    """Deterministic module-level sweep trial (picklable through _PointBoundTrial)."""
    rng = spawn_generator(seed, "sweep")
    return {"value": float(rng.random()) * point["scale"], "index": index}


class TestSeedDerivation:
    def test_trial_seed_matches_historical_derivation(self):
        """Every path must use the same seeds run_trials always derived."""
        assert trial_seed(7, "E1", 3) == derive_seed(7, "E1", 3)

    def test_trial_seeds_vector_matches_scalar(self):
        assert trial_seeds(11, "X", 5) == [trial_seed(11, "X", i) for i in range(5)]


class TestRunTrials:
    def test_result_structure_and_seeds(self):
        result = run_trials("exp", _cheap_trial, 4, base_seed=9, config={"k": 1})
        assert result.num_trials == 4
        assert result.config == {"k": 1}
        for index, trial in enumerate(result.trials):
            assert trial.trial_index == index
            assert trial.seed == trial_seed(9, "exp", index)
            assert trial["seed_echo"] == trial.seed

    def test_rejects_zero_trials(self):
        with pytest.raises(ExperimentError):
            run_trials("exp", _cheap_trial, 0)

    def test_rejects_non_mapping_measurements(self):
        with pytest.raises(ExperimentError, match="must return a mapping"):
            run_trials("exp", _bad_trial, 1)


class TestPooledTrials:
    def test_identical_results_to_in_process(self):
        """The acceptance criterion: equal ExperimentResults for equal seeds."""
        serial = run_trials("par", _cheap_trial, 8, base_seed=4, config={"a": 2})
        with LocalPoolBackend(workers=3) as backend, use_backend(backend):
            parallel = run_trials("par", _cheap_trial, 8, base_seed=4, config={"a": 2})
        assert backend.tasks == 8, "expected one pool task per trial"
        assert serial.to_dict() == parallel.to_dict()

    def test_unpicklable_trial_runs_in_process_with_equal_results(self):
        captured = 3

        def closure_trial(seed, trial_index):
            return {"value": (seed + trial_index) % captured}

        with LocalPoolBackend(workers=2) as backend, use_backend(backend):
            parallel = run_trials("fb", closure_trial, 5, base_seed=1)
        assert backend.tasks == 0, "an unpicklable trial must not reach the pool"
        serial = run_trials("fb", closure_trial, 5, base_seed=1)
        assert serial.to_dict() == parallel.to_dict()

    def test_more_workers_than_trials_is_fine(self):
        with LocalPoolBackend(workers=64) as backend, use_backend(backend):
            result = run_trials("few", _cheap_trial, 2, base_seed=6)
        assert result.to_dict() == run_trials("few", _cheap_trial, 2, base_seed=6).to_dict()

    def test_bad_measurements_are_rejected_in_the_parent(self):
        with LocalPoolBackend(workers=2) as backend, use_backend(backend):
            with pytest.raises(ExperimentError, match="must return a mapping"):
                run_trials("bad", _bad_trial, 4, base_seed=0)

    def test_run_sweep_submits_every_trial_of_every_point_at_once(self):
        points = [{"scale": 1.0}, {"scale": 2.5}]
        serial = run_sweep("sw", points, _sweep_trial, trials_per_point=3, base_seed=8)
        backend = LocalPoolBackend(workers=2)
        with backend, use_backend(backend):
            parallel = run_sweep("sw", points, _sweep_trial, trials_per_point=3, base_seed=8)
        assert backend.tasks == 6 and backend.last_chunksize == 1
        assert serial.to_dict() == parallel.to_dict()
