"""Unit tests for repro.analysis.experiments, .sweeps, .tables and persistence."""

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentResult, TrialResult, run_trials
from repro.store import (
    load_result,
    load_sweep,
    save_result,
    save_sweep,
    to_jsonable,
)
from repro.analysis.sweeps import (
    SweepPoint,
    SweepResult,
    parameter_grid,
    run_sweep,
    sweep_point_names,
)
from repro.analysis.tables import format_cell, render_kv, render_table
from repro.errors import ExperimentError, ParameterError


def _double_trial(point, seed, index):
    """Module-level sweep trial (picklable, for the point-parallel tests)."""
    return {"double": point["x"] * 2.0, "ok": True, "seed": seed}


def _seed_echo_trial(point, seed, index):
    """Module-level sweep trial echoing its seed (for the collision tests)."""
    return {"seed": seed, "index": index}


class TestRunTrials:
    def test_collects_all_trials_with_distinct_seeds(self):
        seen_seeds = []

        def trial(seed, index):
            seen_seeds.append(seed)
            return {"value": index * 2.0, "flag": index % 2 == 0}

        result = run_trials("demo", trial, num_trials=5, base_seed=9)
        assert result.num_trials == 5
        assert len(set(seen_seeds)) == 5
        assert result.values("value") == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert result.rate("flag") == pytest.approx(3 / 5)
        assert result.mean("value") == pytest.approx(4.0)

    def test_seeds_are_reproducible(self):
        def trial(seed, index):
            return {"seed": seed}

        first = run_trials("demo", trial, num_trials=3, base_seed=1)
        second = run_trials("demo", trial, num_trials=3, base_seed=1)
        assert first.values("seed") == second.values("seed")

    def test_missing_measurement_raises(self):
        result = run_trials("demo", lambda seed, index: {"a": 1.0}, num_trials=2)
        with pytest.raises(ExperimentError):
            result.values("b")

    def test_non_mapping_return_rejected(self):
        with pytest.raises(ExperimentError):
            run_trials("demo", lambda seed, index: 42, num_trials=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(ExperimentError):
            run_trials("demo", lambda seed, index: {}, num_trials=0)

    def test_round_trip_through_dict(self):
        result = run_trials("demo", lambda seed, index: {"x": float(index)}, num_trials=3)
        clone = ExperimentResult.from_dict(result.to_dict())
        assert clone.name == "demo"
        assert clone.values("x") == result.values("x")

    def test_trial_result_accessors(self):
        trial = TrialResult(trial_index=0, seed=1, measurements={"a": 3})
        assert trial["a"] == 3
        assert trial.get("missing", "default") == "default"


class TestSweeps:
    def test_parameter_grid_is_cartesian_product(self):
        grid = parameter_grid(n=[1, 2], eps=[0.1, 0.2, 0.3])
        assert len(grid) == 6
        assert {"n": 2, "eps": 0.3} in grid

    def test_parameter_grid_requires_axes(self):
        with pytest.raises(ExperimentError):
            parameter_grid()

    def test_run_sweep_collects_per_point_results(self):
        def trial(point, seed, index):
            return {"double": point["x"] * 2.0, "ok": True}

        sweep = run_sweep("demo", [{"x": 1}, {"x": 5}], trial, trials_per_point=3, base_seed=4)
        assert len(sweep) == 2
        xs, doubles = sweep.series("x", "double")
        assert xs == [1, 5]
        assert doubles == [2.0, 10.0]
        xs, rates = sweep.rates("x", "ok")
        assert rates == [1.0, 1.0]

    def test_series_with_unknown_parameter_raises(self):
        sweep = run_sweep("demo", [{"x": 1}], lambda p, s, i: {"y": 1.0}, trials_per_point=1)
        with pytest.raises(ExperimentError, match="has no parameter 'missing'"):
            sweep.series("missing", "y")

    def test_rates_with_unknown_parameter_raises(self):
        """``rates`` guards a missing parameter exactly like ``series`` does
        (it used to leak a raw ``KeyError``)."""
        sweep = run_sweep("demo", [{"x": 1}], lambda p, s, i: {"ok": True}, trials_per_point=1)
        with pytest.raises(ExperimentError, match="has no parameter 'missing'"):
            sweep.rates("missing", "ok")

    def test_run_sweep_on_a_pool_bit_identical(self, on_local_pool):
        """A pooled sweep returns the same sweep as the in-process one."""
        serial = run_sweep(
            "demo", [{"x": 1}, {"x": 5}], _double_trial, trials_per_point=3, base_seed=4
        )
        pooled = on_local_pool(
            run_sweep, "demo", [{"x": 1}, {"x": 5}], _double_trial, trials_per_point=3, base_seed=4
        )
        assert [r.to_dict() for r in pooled.results] == [r.to_dict() for r in serial.results]

    def test_run_sweep_on_a_pool_falls_back_for_unpicklable_trials(self, on_local_pool):
        """A closure cannot cross a process boundary; the sweep still runs."""
        offset = 3.0
        sweep = on_local_pool(
            run_sweep, "demo", [{"x": 1}], lambda p, s, i: {"y": p["x"] + offset}, trials_per_point=2
        )
        assert sweep.results[0].mean("y") == pytest.approx(4.0)

    def test_run_sweep_on_a_pool_falls_back_for_unpicklable_point_values(self, on_local_pool):
        """The point parameters cross the process boundary too: an
        unpicklable point value triggers the same graceful in-process
        fallback as an unpicklable trial function."""
        import threading

        points = [{"x": 1, "tag": threading.Lock()}, {"x": 5, "tag": None}]
        sweep = on_local_pool(run_sweep, "demo", points, _double_trial, trials_per_point=2)
        _, doubles = sweep.series("x", "double")
        assert doubles == [2.0, 10.0]

    def test_sweep_point_label(self):
        point = SweepPoint.from_mapping({"n": 100, "eps": 0.1})
        assert point.label() == "n=100, eps=0.1"
        assert point.as_dict() == {"n": 100, "eps": 0.1}


class TestTables:
    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(0.123456) == "0.123"
        assert format_cell(1234567.0) == "1.235e+06"
        assert format_cell("text") == "text"

    def test_render_table_markdown_shape(self):
        table = render_table([{"a": 1, "b": 0.5}, {"a": 2, "b": 0.25}], title="demo")
        lines = table.splitlines()
        assert lines[0] == "### demo"
        assert lines[2].startswith("| a")
        assert len(lines) == 6

    def test_render_table_missing_keys_become_dashes(self):
        table = render_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "-" in table.splitlines()[2]

    def test_render_empty_rejected(self):
        with pytest.raises(ParameterError):
            render_table([])

    def test_render_kv(self):
        block = render_kv({"rounds": 12, "ok": True})
        assert "rounds : 12" in block
        assert "ok" in block


class TestResultsIO:
    def test_to_jsonable_handles_numpy(self):
        payload = to_jsonable({"a": np.int64(3), "b": np.float64(0.5), "c": np.asarray([1, 2]), "d": np.bool_(True)})
        assert payload == {"a": 3, "b": 0.5, "c": [1, 2], "d": True}

    def test_save_and_load_round_trip(self, tmp_path):
        result = run_trials("demo", lambda seed, index: {"x": float(index)}, num_trials=2)
        path = save_result(result, tmp_path / "result.json")
        loaded = load_result(path)
        assert loaded.name == "demo"
        assert loaded.values("x") == result.values("x")

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_result(tmp_path / "absent.json")

    def test_save_sweep(self, tmp_path):
        sweep = run_sweep("demo", [{"x": 1}], lambda p, s, i: {"y": 1.0}, trials_per_point=1)
        path = save_sweep(sweep, tmp_path / "sweep.json")
        assert path.exists()
        assert "demo" in path.read_text()


class TestMeanOr:
    def test_skips_none_and_defaults_when_empty(self):
        result = ExperimentResult(name="demo")
        result.trials.append(TrialResult(0, 1, {"rounds": 4, "maybe": None}))
        result.trials.append(TrialResult(1, 2, {"rounds": 6, "maybe": 10}))
        assert result.mean_or("maybe") == 10.0
        result_without = ExperimentResult(name="empty")
        result_without.trials.append(TrialResult(0, 1, {"maybe": None}))
        assert np.isnan(result_without.mean_or("maybe"))
        assert result_without.mean_or("maybe", default=-1.0) == -1.0

    def test_unrecorded_key_still_raises(self):
        """A key no trial recorded is a caller bug, not "no data": it must
        fail loudly instead of degrading to the default."""
        result = ExperimentResult(name="demo")
        result.trials.append(TrialResult(0, 1, {"rounds": 4}))
        with pytest.raises(ExperimentError):
            result.mean_or("rouns")  # typo'd key


class TestSweepPointNames:
    def test_unique_labels_keep_historical_names(self):
        points = [SweepPoint.from_mapping({"n": 100}), SweepPoint.from_mapping({"n": 200})]
        assert sweep_point_names("S", points) == ["S[n=100]", "S[n=200]"]

    def test_repeat_occurrences_get_index_suffixes(self):
        """The first occurrence keeps its historical name (appending points —
        even duplicates — never reseeds earlier points); repeats get the
        point index."""
        points = [SweepPoint.from_mapping({"n": 100})] * 3 + [SweepPoint.from_mapping({"n": 200})]
        assert sweep_point_names("S", points) == [
            "S[n=100]",
            "S[n=100]#1",
            "S[n=100]#2",
            "S[n=200]",
        ]

    def test_duplicate_points_run_independent_trials(self):
        """Regression: duplicate grid points must not share seed lists (and
        therefore byte-identical trials)."""
        sweep = run_sweep(
            "S", [{"x": 1}, {"x": 1}], _seed_echo_trial, trials_per_point=3, base_seed=7
        )
        first_seeds = [trial.seed for trial in sweep.results[0].trials]
        second_seeds = [trial.seed for trial in sweep.results[1].trials]
        assert first_seeds != second_seeds
        assert sweep.results[0].values("seed") != sweep.results[1].values("seed")

    def test_serial_and_pool_agree_on_duplicates(self, on_local_pool):
        kwargs = dict(
            name="S",
            points=[{"x": 1}, {"x": 1}],
            trial_fn=_seed_echo_trial,
            trials_per_point=2,
            base_seed=5,
        )
        serial = run_sweep(**kwargs)
        pooled = on_local_pool(run_sweep, **kwargs)
        assert [r.to_dict() for r in serial.results] == [r.to_dict() for r in pooled.results]

    def test_batched_sweep_agrees_on_duplicate_seed_derivation(self):
        """The batched dispatcher derives per-point batch seeds from the same
        disambiguated names, so duplicate points get independent batches."""
        from repro.exec.batching import run_broadcast_batch, run_sweep_batched

        sweep = run_sweep_batched(
            name="S",
            points=[{"n": 250}, {"n": 250}],
            batch_fn=run_broadcast_batch,
            trials_per_point=2,
            base_seed=3,
            defaults={"epsilon": 0.3},
        )
        assert sweep.results[0].name == "S[n=250]"
        assert sweep.results[1].name == "S[n=250]#1"
        first = sweep.results[0].values("final_correct_fraction")
        second = sweep.results[1].values("final_correct_fraction")
        messages = (sweep.results[0].values("messages"), sweep.results[1].values("messages"))
        assert (first, messages[0]) != (second, messages[1])


class TestStrictJsonPersistence:
    def test_non_finite_floats_become_null(self):
        payload = to_jsonable(
            {"nan": float("nan"), "inf": np.float64("inf"), "neg": float("-inf"), "ok": 0.5}
        )
        assert payload == {"nan": None, "inf": None, "neg": None, "ok": 0.5}

    def test_saved_files_are_strict_json(self, tmp_path):
        """A NaN measurement (e.g. "no trial converged") must produce a file
        any strict parser accepts — no bare NaN tokens."""
        result = ExperimentResult(name="demo")
        result.trials.append(TrialResult(0, 1, {"rounds": float("nan"), "ok": True}))
        path = save_result(result, tmp_path / "nan.json")
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text
        loaded = load_result(path)
        assert loaded.trials[0].measurements["rounds"] is None

    def test_sweep_round_trip(self, tmp_path):
        sweep = run_sweep(
            "demo", [{"x": 1}, {"x": 2}], _double_trial, trials_per_point=2, base_seed=3
        )
        path = save_sweep(sweep, tmp_path / "sweep.json")
        loaded = load_sweep(path)
        assert loaded.name == sweep.name
        assert [p.as_dict() for p in loaded.points] == [p.as_dict() for p in sweep.points]
        assert [r.to_dict() for r in loaded.results] == [r.to_dict() for r in sweep.results]

    def test_load_sweep_missing_file_raises(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_sweep(tmp_path / "absent.json")

    def test_from_dict_rejects_mismatched_lengths(self):
        with pytest.raises(ExperimentError):
            SweepResult.from_dict({"name": "bad", "points": [{"x": 1}], "results": []})
