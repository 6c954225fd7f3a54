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
serial reference on this host.  The three runs alternate over ``REPEATS``
repeats (``paired_timing.py``); the gate reads the median of the per-repeat
ratios, and the record keeps their quartiles, so drift in machine speed
between two runs cannot flip it.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

from repro.api import ExecutionConfig, run_experiment

SIZES = (500, 1000, 2000)
EPSILON = 0.25
TRIALS = 6
BASE_SEED = 101
REPEATS = 5
RESULTS_PATH = Path(__file__).parent / "results" / "exec_speedup.json"


def _paired_speedups():
    """``paired_timing.paired_speedups``, imported by path (benchmarks/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "_paired_timing", Path(__file__).with_name("paired_timing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.paired_speedups


def _sweep(config: ExecutionConfig):
    """One E1 sweep with the given execution settings."""
    return run_experiment(
        "E1", config=config, sizes=SIZES, epsilon=EPSILON, trials=TRIALS, base_seed=BASE_SEED
    )


def test_exec_speedup(print_report, machine_stamp):
    """Measure serial vs parallel vs batched wall-clock and record the JSON."""
    configs = {
        "serial": ExecutionConfig(),
        "parallel": ExecutionConfig(backend="local"),
        "batch": ExecutionConfig(batch=True),
    }
    artifacts, timing = _paired_speedups()(
        {label: lambda config=config: _sweep(config) for label, config in configs.items()},
        reference="serial",
        repeats=REPEATS,
    )
    serial, parallel, batched = (artifacts[label] for label in configs)

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
            "repeats": REPEATS,
        },
        "host": {"cpu_count": os.cpu_count(), "parallel_jobs": pool["workers"]},
        "machine": machine_stamp,
        **timing,
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
