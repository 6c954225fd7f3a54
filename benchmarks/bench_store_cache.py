"""Cold-vs-warm cost of the content-addressed run store.

The run store's perf claim is simple: the second identical request must
cost disk-read time, not simulation time.  This benchmark runs one real
experiment (E8's majority-consensus sweep, batch path) three ways —

* **cold** — empty store: compute + persist under the fingerprint;
* **warm** — same request again: served from the store as a cache hit,
  no execution backend created, byte-identical report;
* **warm_cross_jobs** — same request on the two-worker ``local`` backend
  (what ``--jobs 2`` selects): must *still* hit, because the execution
  backend is excluded from the fingerprint by the determinism contract —

and records wall times, the warm/cold speedup and the hit statistics in
``benchmarks/results/store_cache.json`` (flattened into the top-level
``BENCH_SUMMARY.json`` by ``collect_results.py``).

``build_workloads(toy=True)`` shrinks the sweep so the smoke gate in
``tests/unit/test_smoke_gates.py`` can execute the measurement end to end
in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict

from repro.api import ExecutionConfig, run_experiment

RESULTS_PATH = Path(__file__).parent / "results" / "store_cache.json"


def build_workloads(toy: bool = False) -> Dict[str, Any]:
    """The E8 store workload (``toy=True`` = smoke-gate scale)."""
    if toy:
        return {
            "experiment": "E8",
            "overrides": dict(n=60, epsilon=0.3, set_sizes=(10,), biases=(0.2,), trials=2, base_seed=5),
            "warm_repeats": 3,
        }
    return {
        "experiment": "E8",
        "overrides": dict(n=250, set_sizes=(40, 80), biases=(0.1, 0.2), trials=4),
        "warm_repeats": 10,
    }


def measure(workload: Dict[str, Any]) -> Dict[str, Any]:
    """Time the cold run, warm hits and the cross-jobs hit on a fresh store."""
    store_root = Path(tempfile.mkdtemp(prefix="bench-store-")) / "store"
    experiment = workload["experiment"]
    overrides = workload["overrides"]
    try:
        config = ExecutionConfig(batch=True, store_path=store_root)

        start = time.perf_counter()
        cold = run_experiment(experiment, config=config, **overrides)
        cold_seconds = time.perf_counter() - start
        assert cold.execution["cache"] == "miss", "first run on an empty store must miss"

        hits = 0
        start = time.perf_counter()
        for _ in range(workload["warm_repeats"]):
            warm = run_experiment(experiment, config=config, **overrides)
            hits += warm.execution["cache"] == "hit"
            assert warm.report.render() == cold.report.render(), (
                "a cache hit served a different report than the cold run"
            )
        warm_seconds = (time.perf_counter() - start) / workload["warm_repeats"]

        start = time.perf_counter()
        cross = run_experiment(
            experiment,
            config=ExecutionConfig(
                batch=True,
                store_path=store_root,
                backend="local",
                backend_options={"workers": 2},
            ),
            **overrides,
        )
        cross_seconds = time.perf_counter() - start
        cross_hit = cross.execution["cache"] == "hit"
    finally:
        shutil.rmtree(store_root.parent, ignore_errors=True)

    requests = workload["warm_repeats"] + 2  # cold + warm repeats + cross-jobs
    return {
        "description": "content-addressed run store: cold compute vs warm cache hit",
        "workload": {
            "experiment": f"{experiment} majority sweep through the run store",
            **overrides,
            "warm_repeats": workload["warm_repeats"],
            "hits": hits + cross_hit,
            "requests": requests,
            "hit_rate": round((hits + cross_hit) / requests, 3),
            "cross_jobs_hit": cross_hit,
            "fingerprint": cold.fingerprint,
        },
        "host": {"cpu_count": os.cpu_count()},
        "seconds": {
            "cold": round(cold_seconds, 4),
            "warm": round(warm_seconds, 4),
            "warm_cross_jobs": round(cross_seconds, 4),
        },
        "speedup_vs_serial": {
            "warm_vs_cold": round(cold_seconds / warm_seconds, 2),
        },
    }


def test_store_cache_speedup(machine_stamp):
    """Measure cold vs warm store costs and record the JSON perf record."""
    payload = {**measure(build_workloads()), "machine": machine_stamp}
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(json.dumps(payload, indent=2))

    assert payload["workload"]["hit_rate"] == round(
        (payload["workload"]["requests"] - 1) / payload["workload"]["requests"], 3
    ), "every request after the cold one must be a cache hit"
    warm_win = payload["speedup_vs_serial"]["warm_vs_cold"]
    assert warm_win > 1.0, (
        f"expected the warm cache hit to beat recomputation, got {warm_win}x "
        f"(recorded in {RESULTS_PATH})"
    )
