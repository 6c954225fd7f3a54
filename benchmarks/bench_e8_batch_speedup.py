"""Speedup of the batched majority-consensus path on an E8 sweep.

Runs the same E8 Monte-Carlo sweep (majority consensus over a grid of
``(|A|, bias)`` points) three ways through :func:`repro.api.run_experiment`
— in-process reference, vectorised batch (``ExecutionConfig(batch=True)``,
:func:`repro.exec.batching.run_majority_batch` per point), and batch with
its points on a local process pool (``ExecutionConfig(batch=True,
backend="local")``) — and records wall-clock times and speedups in
``benchmarks/results/e8_batch_speedup.json``.

The batch path amortises Python-level per-round overhead across all
replicates of a sweep point and delivers its speedup even on a single core;
the pool additionally scales with the number of CPUs by running independent
grid points concurrently (on a 1-CPU host it degenerates gracefully to
roughly batch speed).  The test asserts the headline claim: at least a 2x
single-core batch speedup over the serial reference on this workload.  The
three runs alternate over ``REPEATS`` repeats (``paired_timing.py``); the
gate reads the median of the per-repeat ratios, and the record keeps their
quartiles, so drift in machine speed between two runs cannot flip it.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

from repro.api import ExecutionConfig, run_experiment

N = 1000
EPSILON = 0.25
SET_SIZES = (100, 300)
BIASES = (0.15, 0.3)
TRIALS = 6
BASE_SEED = 808
REPEATS = 5
RESULTS_PATH = Path(__file__).parent / "results" / "e8_batch_speedup.json"


def _paired_speedups():
    """``paired_timing.paired_speedups``, imported by path (benchmarks/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "_paired_timing", Path(__file__).with_name("paired_timing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.paired_speedups


def _sweep_rows(config: ExecutionConfig):
    """The report rows of one E8 sweep with the given execution settings."""
    artifact = run_experiment(
        "E8",
        config=config,
        n=N,
        epsilon=EPSILON,
        set_sizes=SET_SIZES,
        biases=BIASES,
        trials=TRIALS,
        base_seed=BASE_SEED,
    )
    return artifact.report.rows


def test_e8_batch_speedup(print_report, machine_stamp):
    """Measure serial vs batched vs batched-on-a-pool and record the JSON."""
    configs = {
        "serial": ExecutionConfig(),
        "batch": ExecutionConfig(batch=True),
        "batch_point_parallel": ExecutionConfig(batch=True, backend="local"),
    }
    rows, timing = _paired_speedups()(
        {label: lambda config=config: _sweep_rows(config) for label, config in configs.items()},
        reference="serial",
        repeats=REPEATS,
    )
    serial_rows, batched_rows, pooled_rows = (rows[label] for label in configs)

    # Statistical-equivalence contract: the majority schedule is fixed by
    # (parameters, start_phase), so per-point round counts match the serial
    # path exactly; the pooled batch is bit-identical to the in-process
    # batch; and well-initialised points succeed on both paths.
    assert pooled_rows == batched_rows
    for serial_row, batched_row in zip(serial_rows, batched_rows):
        assert serial_row["mean_rounds"] == batched_row["mean_rounds"]
        if batched_row["initial_bias"] >= 0.3:
            assert batched_row["success_rate"] >= 0.5
            assert serial_row["success_rate"] >= 0.5

    payload = {
        "workload": {
            "experiment": "E8 majority-consensus sweep",
            "n": N,
            "epsilon": EPSILON,
            "set_sizes": list(SET_SIZES),
            "biases": list(BIASES),
            "trials_per_point": TRIALS,
            "base_seed": BASE_SEED,
            "repeats": REPEATS,
        },
        "host": {"cpu_count": os.cpu_count()},
        "machine": machine_stamp,
        **timing,
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(json.dumps(payload, indent=2))

    assert payload["speedup_vs_serial"]["batch"] >= 2.0, (
        f"expected the batched majority path to be at least 2x faster than serial, "
        f"got {payload['speedup_vs_serial']} (recorded in {RESULTS_PATH})"
    )
