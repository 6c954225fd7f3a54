"""Speedup of the instrumented stage kernels on E4/E5/E6/E9/E11-style workloads.

Runs the same Monte-Carlo workload two ways per experiment family — serially
(each trial the kernel at ``R = 1`` under its own seed, through
``run_trials``) and as one vectorised ``(R, n)`` batch
(:mod:`repro.exec.stage_batching` / :mod:`repro.exec.batching`) — and
records wall-clock times and speedups in
``benchmarks/results/stage_batch_speedup.json``.  The families are E4
(phase-0 dissemination), E5 (Stage-I layer growth), E6 (Stage-II boosting),
E9 (clock-free variants) and E11 (lower-bound references).

The test asserts the headline claim — at least a 2x single-core batch
speedup for each of E4, E5 and E6 — and records (without asserting, they mix
several sub-simulators) the measured E9/E11 speedups alongside.  Each
family's two runs alternate over ``REPEATS`` repeats (``paired_timing.py``);
the gate reads the median of the per-repeat ratios, and the record keeps
their quartiles, so drift in machine speed between two runs cannot flip it.

``build_workloads(toy=True)`` shrinks every instance so the smoke gate in
``tests/unit/test_smoke_gates.py`` can execute the measurement end to end in
well under a second.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

from repro.api import ExecutionConfig, run_experiment
from repro.core.parameters import ProtocolParameters
from repro.exec.batching import cell_task
from repro.exec.stage_batching import run_stage1_instrumented, run_stage2_instrumented
from repro.experiments.e4_phase0 import _phase0_only_parameters, _phase0_rows
from repro.experiments.e5_stage1_growth import _stage1_rows
from repro.experiments.e6_stage2_boost import _stage2_rows

BASE_SEED = 42
REPEATS = 5
RESULTS_PATH = Path(__file__).parent / "results" / "stage_batch_speedup.json"

#: Families whose single-core batch speedup the test asserts to be >= 2x.
ASSERTED_FAMILIES = ("E4", "E5", "E6")


def build_workloads(toy: bool = False) -> Dict[str, Dict[str, Any]]:
    """Per-family workload descriptions: a serial and a batch thunk plus metadata.

    ``toy=True`` shrinks every instance to smoke-gate scale (the structure is
    identical; only sizes and trial counts change).
    """
    if toy:
        e4 = dict(n=200, epsilon=0.3, trials=3)
        e5 = dict(n=250, epsilon=0.35, beta_override=4, trials=2)
        e6 = dict(n=150, epsilon=0.3, trials=2)
        e9 = dict(n=120, epsilon=0.3, skews=(4,), trials=1)
        e11 = dict(n=60, epsilon=0.3, trials=1)
    else:
        e4 = dict(n=600, epsilon=0.2, trials=40)
        e5 = dict(n=900, epsilon=0.35, beta_override=8, trials=14)
        e6 = dict(n=500, epsilon=0.25, trials=12)
        e9 = dict(n=400, epsilon=0.25, skews=(8, 32), trials=4)
        e11 = dict(n=150, epsilon=0.3, trials=4)

    e4_parameters = _phase0_only_parameters(e4["n"], e4["epsilon"])
    e5_parameters = ProtocolParameters.calibrated(
        e5["n"], e5["epsilon"], s0=1.0, beta_override=e5["beta_override"]
    ).stage1
    e6_parameters = ProtocolParameters.calibrated(e6["n"], e6["epsilon"]).stage2
    e6_bias = 0.12

    def driver_pair(experiment_id: str, overrides: Dict[str, Any]) -> Tuple[Callable, Callable]:
        serial = functools.partial(run_experiment, experiment_id, **overrides)
        batched = functools.partial(
            run_experiment, experiment_id, config=ExecutionConfig(batch=True), **overrides
        )
        return serial, batched

    def cell_pair(
        name: str, batch_fn: Callable, trials: int, **settings: Any
    ) -> Tuple[Callable, Callable]:
        def run(batch: bool) -> Any:
            fn, kwargs = cell_task(name, batch_fn, trials, BASE_SEED, batch, **settings)
            return fn(**kwargs)

        return functools.partial(run, False), functools.partial(run, True)

    e4_serial, e4_batch = cell_pair(
        "stage-bench-e4",
        run_stage1_instrumented,
        e4["trials"],
        measure=functools.partial(_phase0_rows, epsilon=e4["epsilon"], parameters=e4_parameters),
        n=e4["n"],
        epsilon=e4["epsilon"],
        parameters=e4_parameters,
    )
    e5_serial, e5_batch = cell_pair(
        "stage-bench-e5",
        run_stage1_instrumented,
        e5["trials"],
        measure=_stage1_rows,
        n=e5["n"],
        epsilon=e5["epsilon"],
        parameters=e5_parameters,
    )
    e6_serial, e6_batch = cell_pair(
        "stage-bench-e6",
        run_stage2_instrumented,
        e6["trials"],
        measure=_stage2_rows,
        n=e6["n"],
        epsilon=e6["epsilon"],
        initial_bias=e6_bias,
        parameters=e6_parameters,
    )
    e9_serial, e9_batch = driver_pair("E9", e9)
    e11_serial, e11_batch = driver_pair("E11", e11)

    return {
        "E4": {
            "description": "phase-0 dissemination (Claim 2.2), instrumented Stage-I kernel",
            "workload": e4,
            "serial": e4_serial,
            "batch": e4_batch,
        },
        "E5": {
            "description": "Stage-I layer growth (Claims 2.4-2.8), instrumented Stage-I kernel",
            "workload": e5,
            "serial": e5_serial,
            "batch": e5_batch,
        },
        "E6": {
            "description": "Stage-II bias boosting (Lemma 2.14), instrumented Stage-II kernel",
            "workload": {**e6, "initial_bias": e6_bias},
            "serial": e6_serial,
            "batch": e6_batch,
        },
        "E9": {
            "description": "clock-free variants (Theorem 3.1), windowed batch executors",
            "workload": e9,
            "serial": e9_serial,
            "batch": e9_batch,
        },
        "E11": {
            "description": "lower-bound references (Section 1.4), batched baseline rules",
            "workload": e11,
            "serial": e11_serial,
            "batch": e11_batch,
        },
    }


def _paired_speedups():
    """``paired_timing.paired_speedups``, imported by path (benchmarks/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "_paired_timing", Path(__file__).with_name("paired_timing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.paired_speedups


def measure(workloads: Dict[str, Dict[str, Any]], repeats: int = REPEATS) -> Dict[str, Any]:
    """Time every family's serial and batch thunks alternately and assemble the payload."""
    paired_speedups = _paired_speedups()
    families: Dict[str, Any] = {}
    for family, spec in workloads.items():
        _, timing = paired_speedups(
            {"serial": spec["serial"], "batch": spec["batch"]}, reference="serial", repeats=repeats
        )
        families[family] = {
            "description": spec["description"],
            "workload": spec["workload"],
            **timing,
        }
    return {
        "workload": {
            "experiment": "stage-level batch coverage (E4, E5, E6, E9, E11)",
            "base_seed": BASE_SEED,
            "repeats": repeats,
        },
        "host": {"cpu_count": os.cpu_count()},
        "families": families,
    }


def test_stage_batch_speedup(print_report, machine_stamp):
    """Measure serial vs batched for every stage-level family and record the JSON."""
    payload = {**measure(build_workloads()), "machine": machine_stamp}
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(json.dumps(payload, indent=2))

    for family in ASSERTED_FAMILIES:
        speedup = payload["families"][family]["speedup_vs_serial"]["batch"]
        assert speedup >= 2.0, (
            f"expected the batched {family} stage path to be at least 2x faster than serial, "
            f"got {speedup}x (recorded in {RESULTS_PATH})"
        )
