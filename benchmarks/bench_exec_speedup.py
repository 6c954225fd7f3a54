"""Speedup of the trial-execution subsystem on an E1-style broadcast sweep.

Runs the same Monte-Carlo sweep (E1: noisy broadcast over a grid of
population sizes) three ways through :func:`repro.api.run_experiment` —
in-process reference, one task per trial on a local process pool
(``ExecutionConfig(backend="local")``), and vectorised batch
(``ExecutionConfig(batch=True)``) — and records wall-clock times and
speedups in ``benchmarks/results/exec_speedup.json``.

The batch path amortises Python-level per-round overhead across all
replicates of a sweep point and delivers its speedup even on a single core;
the parallel path additionally scales with the number of CPUs (on a 1-CPU
host it degenerates gracefully to roughly serial speed).  The test asserts
the subsystem's headline claim: at least a 2x end-to-end speedup over the
serial reference on this host.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.api import ExecutionConfig, run_experiment

SIZES = (500, 1000, 2000)
EPSILON = 0.25
TRIALS = 6
BASE_SEED = 101
RESULTS_PATH = Path(__file__).parent / "results" / "exec_speedup.json"


def _timed_run(config: ExecutionConfig):
    """One E1 sweep with the given execution settings, and its wall time."""
    start = time.perf_counter()
    artifact = run_experiment(
        "E1", config=config, sizes=SIZES, epsilon=EPSILON, trials=TRIALS, base_seed=BASE_SEED
    )
    return artifact, time.perf_counter() - start


def test_exec_speedup(print_report, machine_stamp):
    """Measure serial vs parallel vs batched wall-clock and record the JSON."""
    serial, serial_seconds = _timed_run(ExecutionConfig())
    parallel, parallel_seconds = _timed_run(ExecutionConfig(backend="local"))
    batched, batch_seconds = _timed_run(ExecutionConfig(batch=True))

    # Identical-results contract: the pooled run is bit-identical to the
    # in-process one; the batched run reproduces every schedule-determined
    # observable exactly (the round count is fixed by (n, epsilon)).
    assert parallel.report.rows == serial.report.rows
    for serial_row, batched_row in zip(serial.report.rows, batched.report.rows):
        assert serial_row["mean_rounds"] == batched_row["mean_rounds"]
        assert batched_row["success_rate"] >= 0.8

    pool = parallel.execution["backend"]
    payload = {
        "workload": {
            "experiment": "E1 broadcast sweep",
            "sizes": list(SIZES),
            "epsilon": EPSILON,
            "trials_per_point": TRIALS,
            "base_seed": BASE_SEED,
        },
        "host": {"cpu_count": os.cpu_count(), "parallel_jobs": pool["workers"]},
        "machine": machine_stamp,
        "seconds": {
            "serial": round(serial_seconds, 3),
            "parallel": round(parallel_seconds, 3),
            "batch": round(batch_seconds, 3),
        },
        "speedup_vs_serial": {
            "parallel": round(serial_seconds / parallel_seconds, 2),
            "batch": round(serial_seconds / batch_seconds, 2),
        },
        "parallel_tasks": pool["tasks"],
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(json.dumps(payload, indent=2))

    best_speedup = max(payload["speedup_vs_serial"].values())
    assert best_speedup >= 2.0, (
        f"expected the exec subsystem to be at least 2x faster than serial, "
        f"got {payload['speedup_vs_serial']} (recorded in {RESULTS_PATH})"
    )
