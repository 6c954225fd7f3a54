"""Speedup of the batched baseline-protocol path on an E7-style workload.

Runs the same Monte-Carlo comparison (the Section 1.6 comparator family E7
argues against: immediate forwarding, the noisy voter dynamics and the
direct-from-source reference) three ways — serial (E7's serial cells: each
trial is the rule at ``R = 1`` under its own trial seed, through
:func:`repro.exec.batching.cell_task`), vectorised batch
(:func:`repro.exec.batching.run_baseline_batch` via the ``baseline`` shape
of :func:`~repro.exec.batching.run_sweep_batched`), and batch with its
points on the ``local`` process-pool backend (one worker per CPU, installed
for the sweep as :func:`repro.api.run_experiment` installs it; the workload
is the comparator sub-grid, which no registered experiment runs alone) —
and records wall-clock times and speedups in
``benchmarks/results/e7_batch_speedup.json``.

Serially each trial pays hundreds of rounds of its own (the voter's budget
alone is hundreds of rounds).  The batch path pays one ``deliver_batch`` /
``transmit_batch`` call per round for *all* replicates, so it delivers its
speedup even on a single core.  The test asserts at least a 2x single-core
batch speedup over the serial E7 trials on this workload.  The three runs
alternate over ``REPEATS`` repeats (``paired_timing.py``); the gate reads
the median of the per-repeat ratios, and the record keeps their quartiles,
so drift in machine speed between two runs cannot flip it.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os
from pathlib import Path

from repro.exec.backends import LocalPoolBackend, use_backend
from repro.exec.batching import cell_task, run_baseline_batch, run_sweep_batched

N = 1000
EPSILON = 0.2
TRIALS = 8
VOTER_ROUNDS = 300
BASE_SEED = 707
REPEATS = 5
RESULTS_PATH = Path(__file__).parent / "results" / "e7_batch_speedup.json"


def _baseline_points() -> list:
    return [
        {"protocol": "immediate-forwarding"},
        {"protocol": "noisy-voter", "max_rounds": VOTER_ROUNDS},
        {"protocol": "direct-source-reference"},
    ]


def _paired_speedups():
    """``paired_timing.paired_speedups``, imported by path (benchmarks/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "_paired_timing", Path(__file__).with_name("paired_timing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.paired_speedups


def _run_serial() -> dict:
    """The E7 comparator family as E7's serial cells run it (R = 1 per trial)."""
    results = {}
    for point in _baseline_points():
        name = point["protocol"]
        fn, kwargs = cell_task(
            f"e7-batch-speedup-{name}", run_baseline_batch, TRIALS, BASE_SEED, False,
            n=N, epsilon=EPSILON, **point,
        )
        results[name] = fn(**kwargs)
    return results


def _run_batched(pooled: bool = False):
    """The same comparator family through the batched baseline simulator."""
    sweep = functools.partial(
        run_sweep_batched,
        name="e7-batch-speedup",
        points=_baseline_points(),
        batch_fn=run_baseline_batch,
        trials_per_point=TRIALS,
        base_seed=BASE_SEED,
        defaults={"n": N, "epsilon": EPSILON},
    )
    if not pooled:
        return sweep()
    backend = LocalPoolBackend()
    with backend, use_backend(backend):
        return sweep()


def test_e7_batch_speedup(print_report, machine_stamp):
    """Measure serial vs batched vs batched+point-parallel and record the JSON."""
    results, timing = _paired_speedups()(
        {
            "serial": _run_serial,
            "batch": _run_batched,
            "batch_point_parallel": functools.partial(_run_batched, pooled=True),
        },
        reference="serial",
        repeats=REPEATS,
    )
    serial_results = results["serial"]
    batched_sweep = results["batch"]
    pooled_sweep = results["batch_point_parallel"]

    # Statistical-equivalence contract: deterministic round budgets match the
    # serial path exactly (the forwarding budget and the direct-source
    # sampling budget are fixed by (n, epsilon); the noisy voter exhausts its
    # budget under noise on both paths), the pooled batch is
    # bit-identical to the in-process batch, and the baselines stay near the
    # coin flip while the direct reference converges.
    assert [r.to_dict() for r in pooled_sweep.results] == [
        r.to_dict() for r in batched_sweep.results
    ]
    batched = {
        point.as_dict()["protocol"]: result for point, result in batched_sweep
    }
    for name in ("immediate-forwarding", "noisy-voter", "direct-source-reference"):
        assert batched[name].mean("rounds") == serial_results[name].mean("rounds")
    assert batched["immediate-forwarding"].mean("fraction") < 0.8
    assert batched["noisy-voter"].rate("converged") == 0.0
    assert batched["direct-source-reference"].rate("all_correct") == 1.0

    payload = {
        "workload": {
            "experiment": "E7-style baseline-protocol comparison",
            "n": N,
            "epsilon": EPSILON,
            "protocols": [point["protocol"] for point in _baseline_points()],
            "voter_rounds": VOTER_ROUNDS,
            "trials_per_protocol": TRIALS,
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
        f"expected the batched baseline path to be at least 2x faster than the serial "
        f"E7 trial loop, got {payload['speedup_vs_serial']} (recorded in {RESULTS_PATH})"
    )
