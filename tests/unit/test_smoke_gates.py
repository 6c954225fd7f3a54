"""Smoke gates: persistence round-trips, CLI artifacts, benchmark imports.

Four things in this repository rot silently: the JSON persistence layer (a
measurement nobody serialises in the unit suite can break ``save``/``load``
without any test noticing), the CLI-to-artifact pipeline (the one path an
end user actually drives), the ``benchmarks/bench_*.py`` scripts (they
only execute when someone runs the benchmark harness by hand), and the
functions the repo benchmark's layer trace wraps by name.  This module
gates all four in the tier-1 suite:

* every persistence entry point (``save_result``/``load_result``/
  ``save_sweep``/``load_sweep``) must round-trip a freshly produced result,
  including the awkward values (``NaN`` means, numpy scalars, ``None``
  never-converged markers);
* ``repro-flip experiment ... --batch --save DIR`` must run end to end into
  an artifact directory whose manifest and report load back through
  :func:`repro.api.load_run` with identical tables (also an explicit CI
  step, see ``.github/workflows/ci.yml``);
* every benchmark script must *import* cleanly — a no-op check that catches
  renamed driver functions, stale imports and syntax errors without paying
  for a benchmark run — and define at least one test for the harness;
* every ``FUNCTIONS``/``METHODS`` target of ``perfbench/spans.py`` must
  still exist.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from repro.analysis.experiments import run_trials
from repro.analysis.sweeps import run_sweep
from repro.api import ExecutionConfig, load_run, run_experiment
from repro.cli import main as cli_main
from repro.store import load_result, load_sweep, save_result, save_sweep

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
BENCHMARK_SCRIPTS = sorted(BENCHMARKS_DIR.glob("bench_*.py"))


def _awkward_trial(seed: int, index: int) -> dict:
    """Measurements exercising every serialisation edge the writers guard."""
    import numpy as np

    return {
        "rounds": np.int64(10 + index),
        "fraction": np.float64(0.5),
        "ok": np.bool_(True),
        "rounds_converged": None if index == 0 else 12,
        "mean_estimate": float("nan") if index == 0 else 1.5,
    }


def _awkward_sweep_trial(point, seed: int, index: int) -> dict:
    """Sweep-shaped wrapper around :func:`_awkward_trial`."""
    return _awkward_trial(seed, index)


class TestPersistenceSmoke:
    def test_result_round_trip(self, tmp_path):
        result = run_trials("smoke", _awkward_trial, num_trials=2, base_seed=3)
        path = save_result(result, tmp_path / "result.json")
        # Strict JSON: a parser with no NaN/Infinity extension must accept it.
        payload = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert payload["name"] == "smoke"
        loaded = load_result(path)
        assert loaded.values("rounds") == result.values("rounds")
        assert loaded.trials[0].measurements["rounds_converged"] is None
        assert loaded.trials[0].measurements["mean_estimate"] is None  # NaN -> null

    def test_sweep_round_trip(self, tmp_path):
        sweep = run_sweep(
            "smoke", [{"x": 1}, {"x": 2}], _awkward_sweep_trial, trials_per_point=2, base_seed=3
        )
        path = save_sweep(sweep, tmp_path / "sweep.json")
        json.loads(path.read_text(), parse_constant=_reject_constant)
        loaded = load_sweep(path)
        assert [p.as_dict() for p in loaded.points] == [p.as_dict() for p in sweep.points]
        assert [r.name for r in loaded.results] == [r.name for r in sweep.results]


class TestCliArtifactRoundTrip:
    """The CI satellite gate: CLI run → artifact directory → loader."""

    def test_cli_batch_run_round_trips_through_the_loader(self, tmp_path, capsys):
        destination = tmp_path / "e1-run"
        exit_code = cli_main(
            [
                "experiment",
                "E1",
                "--trials",
                "1",
                "--set",
                "epsilon=0.3",
                "--set",
                "sizes=(250, 500)",
                "--batch",
                "--save",
                str(destination),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0

        artifact = load_run(destination)
        assert artifact.spec_id == "E1"
        assert artifact.parameters["epsilon"] == 0.3
        assert artifact.parameters["trials"] == 1
        assert artifact.parameters["sizes"] == [250, 500]
        assert artifact.execution["batch"] is True
        assert artifact.version
        # The loaded report renders exactly what the CLI printed.
        assert artifact.report.render() in captured.out
        assert str(destination) in captured.err
        # Strict JSON: a parser with no NaN/Infinity extension must accept it.
        json.loads((destination / "manifest.json").read_text(), parse_constant=_reject_constant)
        json.loads((destination / "report.json").read_text(), parse_constant=_reject_constant)

    def test_cli_e7_batch_artifact_has_identical_tables(self, tmp_path):
        """Acceptance differential: an E7 --batch artifact (NaN rows included)
        loads back with a bit-identical rendered table."""
        destination = tmp_path / "e7-run"
        exit_code = cli_main(
            [
                "experiment",
                "E7",
                "--batch",
                "--trials",
                "2",
                "--set",
                "n=250",
                "--set",
                "epsilons=(0.3,)",
                "--set",
                "voter_rounds=32",
                "--save",
                str(destination),
            ]
        )
        assert exit_code == 0
        loaded = load_run(destination)

        direct = run_experiment(
            "E7",
            config=ExecutionConfig(batch=True, trials=2),
            n=250,
            epsilons=(0.3,),
            voter_rounds=32,
        )
        assert loaded.report.render() == direct.report.render()
        # The short voter budget never converges: its NaN rounds cell must
        # survive the round-trip as NaN, not collapse to None.
        voter_rows = [row for row in loaded.report.rows if row["protocol"] == "noisy-voter"]
        assert voter_rows and math.isnan(voter_rows[0]["mean_rounds"])


class TestCliStoreCacheGate:
    """The store CI gate: the same CLI experiment twice with ``--store`` —
    the second invocation must be a cache hit with a byte-identical report
    (also an explicit CI step, see ``.github/workflows/ci.yml``)."""

    E1_ARGS = [
        "experiment",
        "E1",
        "--trials",
        "1",
        "--set",
        "epsilon=0.3",
        "--set",
        "sizes=(250, 400)",
    ]

    def test_second_cli_run_is_a_cache_hit_with_identical_report(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert cli_main([*self.E1_ARGS, "--store", str(store)]) == 0
        first = capsys.readouterr()
        assert "cache miss" in first.err

        assert cli_main([*self.E1_ARGS, "--store", str(store)]) == 0
        second = capsys.readouterr()
        assert "cache hit" in second.err
        assert second.out == first.out

        # Both runs print the same fingerprint, and --no-cache recomputes.
        assert first.err.split("fingerprint")[1] == second.err.split("fingerprint")[1]
        assert cli_main([*self.E1_ARGS, "--store", str(store), "--no-cache"]) == 0
        third = capsys.readouterr()
        assert "cache bypass" in third.err and third.out == first.out


class TestBackendSmoke:
    """The execution-backend CI gate: one toy sweep per backend, equal digests.

    A lighter-weight companion to the per-dispatch-site differential in
    ``tests/unit/exec/test_backends.py``: every backend — in-process and the
    persistent local pool — must produce the byte-identical artifact the
    default run produces.
    """

    E8_TOY = dict(n=60, epsilon=0.3, set_sizes=(10,), biases=(0.2,), trials=2, base_seed=5)

    @pytest.mark.parametrize(
        "backend, options",
        [
            ("in-process", None),
            ("local", {"workers": 2}),
        ],
    )
    def test_backend_run_matches_the_default_digest(self, backend, options):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from _golden_grid import grid_digest

        reference = grid_digest("E8", False, self.E8_TOY)
        config = ExecutionConfig(backend=backend, backend_options=options)
        assert grid_digest("E8", False, self.E8_TOY, config=config) == reference


def _load_script(path: Path, module_name: str):
    """Import a benchmarks/ script by path (they are not a package)."""
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestStageBenchAndAggregatorSmoke:
    """The perf-trajectory tooling must *run*, not just import: the stage
    benchmark end to end at toy sizes, and the results aggregator over both
    payload shapes it understands."""

    def test_stage_batch_bench_measures_at_toy_sizes(self):
        module = _load_script(
            BENCHMARKS_DIR / "bench_stage_batch_speedup.py", "_smoke_stage_bench"
        )
        payload = module.measure(module.build_workloads(toy=True), repeats=2)
        assert set(payload["families"]) == {"E4", "E5", "E6", "E9", "E11"}
        for family, entry in payload["families"].items():
            assert entry["seconds"]["serial"] > 0, family
            assert entry["seconds"]["batch"] > 0, family
            assert "batch" in entry["speedup_vs_serial"], family
            low, high = entry["speedup_quartiles"]["batch"]
            assert low <= entry["speedup_vs_serial"]["batch"] <= high, family

    def test_backend_dispatch_bench_measures_at_toy_sizes(self):
        module = _load_script(
            BENCHMARKS_DIR / "bench_backend_dispatch.py", "_smoke_backend_bench"
        )
        payload = module.measure(module.build_workloads(toy=True))
        assert payload["seconds"]["local_per_call"] > 0
        assert payload["seconds"]["local_reuse"] > 0
        assert "local_reuse_vs_per_call" in payload["speedup_vs_serial"]

    def test_store_cache_bench_measures_at_toy_sizes(self):
        module = _load_script(BENCHMARKS_DIR / "bench_store_cache.py", "_smoke_store_bench")
        payload = module.measure(module.build_workloads(toy=True))
        assert payload["seconds"]["cold"] > 0
        assert payload["seconds"]["warm"] > 0
        assert payload["workload"]["cross_jobs_hit"] is True
        # Every request after the cold one hit the store.
        assert payload["workload"]["hits"] == payload["workload"]["requests"] - 1
        assert "warm_vs_cold" in payload["speedup_vs_serial"]

    def test_service_load_bench_measures_at_toy_sizes(self):
        module = _load_script(
            BENCHMARKS_DIR / "bench_service_load.py", "_smoke_service_bench"
        )
        payload = module.measure(module.build_workloads(toy=True))
        assert payload["seconds"]["cold_phase"] > 0
        assert payload["seconds"]["warm_phase"] > 0
        assert payload["requests_per_second"]["warm"] > 0
        # Every warm request was a store hit, so the service's own metrics
        # must report a dominant hit rate.
        assert payload["workload"]["cache_hit_rate"] > 0.5
        assert "warm_vs_cold_rps" in payload["speedup_vs_serial"]

    def test_e12_fault_sweep_bench_measures_at_toy_sizes(self):
        module = _load_script(
            BENCHMARKS_DIR / "bench_e12_fault_sweep.py", "_smoke_e12_bench"
        )
        payload = module.measure(module.build_workloads(toy=True))
        assert set(payload["families"]) == {"crash", "byzantine"}
        for family, entry in payload["families"].items():
            assert entry["seconds"]["serial"] > 0, family
            assert entry["seconds"]["batch"] > 0, family
            assert "batch" in entry["speedup_vs_serial"], family
        module._assert_sweep_physics(payload["families"])

    def test_deliver_serial_bench_speed_ratio_at_toy_size(self):
        """The O(n) deliver must beat the np.unique rule; only the ratio of
        the two (median over alternating repeats) is checked, never seconds."""
        module = _load_script(BENCHMARKS_DIR / "bench_deliver_serial.py", "_smoke_deliver_bench")
        payload = module.measure(module.build_workloads(toy=True))
        assert payload["speedup_vs_serial"]["deliver_vs_unique_oracle"] >= 1.5
        assert set(payload["machine"]) == {"commit", "nproc", "python", "numpy"}

    def test_deliver_batch_bench_speed_ratio_at_toy_size(self):
        """The scatter-min deliver_batch must beat the argsort rule at full
        send; only the ratio of the two (median over alternating repeats) is
        checked, never seconds."""
        module = _load_script(BENCHMARKS_DIR / "bench_deliver_batch.py", "_smoke_batch_bench")
        payload = module.measure(module.build_workloads(toy=True))
        assert set(payload["families"]) == {"full_send", "send_10pct", "fresh_inputs", "phase"}
        # measure() asserts the phase family's exact agreement itself.
        phase = payload["families"]["phase"]
        assert set(phase["saving_us_per_round"]) == {"R2_n200", "R3_n2000", "R8_n2000"}
        full = payload["families"]["full_send"]["speedup_vs_serial"]
        assert full["deliver_batch_vs_argsort_oracle"] >= 1.1

    def test_perfbench_pairs_summary_counts_wins_and_quartiles(self):
        module = _load_script(BENCHMARKS_DIR / "perfbench_pairs.py", "_smoke_pairs")

        def pair(parent, change):
            return {side: {"metrics": {"run_s.p50": value}} for side, value in
                    (("parent", parent), ("change", change))}

        summary = module.summarize([pair(1.5, 1.0), pair(1.4, 1.4), pair(1.2, 1.3), pair(1.6, 0.9)])
        assert summary["pairs"] == 4
        assert summary["change_wins"] == 2  # the tie counts for neither side
        assert summary["parent"]["median"] == 1.45
        assert summary["change"]["median"] == 1.15
        low, high = summary["parent"]["quartiles"]
        assert 1.2 <= low < 1.45 < high <= 1.6

    def test_perfbench_pairs_stamps_the_change_commit_and_traces_the_layer(
        self, tmp_path, monkeypatch
    ):
        """The record's machine block comes from the change checkout's perfbench
        stamp, so a results file left in a checkout cannot mark it ``-dirty``."""
        module = _load_script(BENCHMARKS_DIR / "perfbench_pairs.py", "_smoke_pairs_main")
        calls = []

        def fake_run_once(checkout, workload, seed, *options):
            calls.append((checkout.name, seed, options))
            traced = "--trace" in options
            return {
                "stamp": {"commit": f"{checkout.name}-sha", "src_sha256": checkout.name,
                          "nproc": 2, "python": "3.11.7", "numpy": "2.4.6"},
                "correct": True,
                "metrics": (
                    {"proc.minor_faults": 9, "substrate.deliver_batch.self_s": 0.5,
                     "substrate.transmit.self_s": 0.1}
                    if traced else {"run_s.p50": float(seed)}
                ),
            }

        monkeypatch.setattr(module, "run_once", fake_run_once)
        monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
        argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "toy",
                "--seed", "5", "--pairs", "2", "--layer", "substrate.deliver_batch"]
        assert module.main(argv) == 0
        payload = json.loads((tmp_path / "perfbench_toy.json").read_text())
        assert payload["machine"] == {"commit": "change-sha", "nproc": 2,
                                      "python": "3.11.7", "numpy": "2.4.6"}
        assert payload["layer"] == "substrate.deliver_batch"
        kept = {"proc.minor_faults": 9, "substrate.deliver_batch.self_s": 0.5}
        assert payload["traced"] == {"parent": kept, "change": kept}
        assert [call[:2] for call in calls] == [
            ("parent", 5), ("change", 5), ("change", 6), ("parent", 6), ("parent", 5), ("change", 5)
        ]
        assert calls[-1][2] == ("--trace", "1", "--seconds", "0")

    def test_paired_speedups_alternate_and_keep_the_last_results(self):
        module = _load_script(BENCHMARKS_DIR / "paired_timing.py", "_smoke_paired_timing")
        calls = []

        def thunk(label):
            def run():
                calls.append(label)
                return len(calls)
            return run

        results, record = module.paired_speedups(
            {"serial": thunk("serial"), "batch": thunk("batch")}, reference="serial", repeats=3
        )
        assert calls == ["serial", "batch", "batch", "serial", "serial", "batch"]
        assert results == {"serial": 5, "batch": 6}
        assert set(record) == {"seconds", "speedup_vs_serial", "speedup_quartiles"}
        assert set(record["speedup_vs_serial"]) == {"batch"}
        low, high = record["speedup_quartiles"]["batch"]
        assert low <= record["speedup_vs_serial"]["batch"] <= high

    def test_collect_results_aggregates_both_shapes(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "single.json").write_text(
            json.dumps(
                {
                    "workload": {"experiment": "single-style workload"},
                    "seconds": {"serial": 1.0, "batch": 0.5},
                    "speedup_vs_serial": {"batch": 2.0},
                }
            )
        )
        (results / "multi.json").write_text(
            json.dumps(
                {
                    "families": {
                        "E4": {
                            "description": "family-style workload",
                            "workload": {"n": 10},
                            "seconds": {"serial": 1.0, "batch": 0.4},
                            "speedup_vs_serial": {"batch": 2.5},
                        }
                    }
                }
            )
        )
        (results / "stamped.json").write_text(
            json.dumps(
                {
                    "workload": {"experiment": "stamped workload"},
                    "machine": {"commit": "abc1234", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6"},
                    "seconds": {"serial": 1.0},
                    "speedup_quartiles": {"batch": [1.9, 2.2]},
                    "layer": "substrate.deliver_batch",
                    "traced": {"parent": {"proc.minor_faults": 9}},
                }
            )
        )
        (results / "broken.json").write_text("not json {")
        module = _load_script(BENCHMARKS_DIR / "collect_results.py", "_smoke_collect")
        summary_path = tmp_path / "BENCH_SUMMARY.json"
        summary = module.collect(results_dir=results, summary_path=summary_path)
        assert [entry["source"] for entry in summary["entries"]] == [
            "multi.json#E4",
            "single.json",
            "stamped.json",
        ]
        assert summary["skipped"] == ["broken.json"]
        reloaded = json.loads(summary_path.read_text(), parse_constant=_reject_constant)
        assert reloaded["entries"][1]["speedup_vs_serial"]["batch"] == 2.0
        # Every entry carries a machine stamp; a recorded one is kept as is.
        for entry in reloaded["entries"]:
            assert set(entry["machine"]) == {"commit", "nproc", "python", "numpy"}
        assert reloaded["entries"][2]["machine"]["commit"] == "abc1234"
        # Optional keys are carried over only where a result file has them.
        assert reloaded["entries"][2]["speedup_quartiles"] == {"batch": [1.9, 2.2]}
        assert reloaded["entries"][2]["layer"] == "substrate.deliver_batch"
        assert reloaded["entries"][2]["traced"] == {"parent": {"proc.minor_faults": 9}}
        assert "layer" not in reloaded["entries"][1]

    def test_top_level_summary_is_committed_and_strict_json(self):
        summary_path = BENCHMARKS_DIR.parent / "BENCH_SUMMARY.json"
        payload = json.loads(summary_path.read_text(), parse_constant=_reject_constant)
        sources = [entry["source"] for entry in payload["entries"]]
        assert any(source.startswith("stage_batch_speedup.json#") for source in sources)
        assert "deliver_serial.json" in sources
        assert all(entry["machine"]["nproc"] for entry in payload["entries"])


class TestBenchmarkScriptsImport:
    def test_benchmark_scripts_exist(self):
        assert len(BENCHMARK_SCRIPTS) >= 15, "benchmark suite unexpectedly shrank"

    @pytest.mark.parametrize(
        "script", BENCHMARK_SCRIPTS, ids=[script.stem for script in BENCHMARK_SCRIPTS]
    )
    def test_benchmark_script_imports_and_defines_tests(self, script):
        """Import the script (module-level code only — no benchmark runs) and
        check it still offers the harness at least one test function."""
        module_name = f"_bench_smoke_{script.stem}"
        spec = importlib.util.spec_from_file_location(module_name, script)
        module = importlib.util.module_from_spec(spec)
        try:
            sys.modules[module_name] = module
            spec.loader.exec_module(module)
            test_functions = [
                name
                for name in vars(module)
                if name.startswith("test_") and callable(getattr(module, name))
            ]
            assert test_functions, f"{script.name} defines no test_* function"
        finally:
            sys.modules.pop(module_name, None)


class TestPerfbenchSpanTargets:
    """The repo benchmark's layer trace wraps ``repro`` functions by name
    (``perfbench/spans.py``); a renamed or deleted kernel would otherwise
    only surface when someone runs that benchmark."""

    def test_every_span_target_resolves(self):
        spans_path = BENCHMARKS_DIR.parent / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("_perfbench_spans_smoke", spans_path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans.FUNCTIONS and spans.METHODS
        for module_name, attribute, _name in spans.FUNCTIONS:
            target = getattr(importlib.import_module(module_name), attribute, None)
            assert callable(target), f"{module_name}.{attribute} is gone"
        for module_name, class_name, method, _name, _attr in spans.METHODS:
            cls = getattr(importlib.import_module(module_name), class_name, None)
            assert cls is not None, f"{module_name}.{class_name} is gone"
            # The tracer patches the method the class itself defines.
            assert callable(vars(cls).get(method)), f"{class_name}.{method} is gone"


def _reject_constant(name: str):
    """parse_constant hook: fail on any NaN/Infinity token in saved JSON."""
    raise AssertionError(f"saved JSON contains a non-strict constant: {name}")
