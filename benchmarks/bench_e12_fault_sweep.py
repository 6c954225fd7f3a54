"""E12 — fault-fraction sweep: paper protocol vs. the fault-tolerant comparator.

Runs the E12 driver's sweep for both fault kinds (crash-stop and Byzantine
senders) two ways — the serial per-trial path and the batched ``(R, n)``
rules (:func:`repro.exec.batching.run_broadcast_batch` under the fault
model, :func:`repro.protocols.fault_tolerant.run_consensus_comparator_batch`
for the comparator, which serially runs once per trial at ``R = 1``) — and
records wall times and speedups per fault family in
``benchmarks/results/e12_fault_sweep.json`` (aggregated into
``BENCH_SUMMARY.json`` by ``collect_results.py``).

The test asserts the sweep's physics, not a speedup floor (the comparator is
cheap, so the family mixes very different per-trial costs): the f=0 column
must be a clean baseline for both protocols, and the comparator — which is
*configured* to tolerate exactly the injected ``f`` — must keep succeeding
at fault fractions well past where tolerances are meaningful.

``build_workloads(toy=True)`` shrinks the sweep so the smoke gate in
``tests/unit/test_smoke_gates.py`` executes the measurement end to end in
well under a second.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

from repro.api import ExecutionConfig, run_experiment

BASE_SEED = 1212
RESULTS_PATH = Path(__file__).parent / "results" / "e12_fault_sweep.json"

#: Fault kinds swept, one benchmark family each.
FAULT_KINDS = ("crash", "byzantine")


def build_workloads(toy: bool = False) -> Dict[str, Dict[str, Any]]:
    """Per-fault-kind workloads: serial and batch thunks plus metadata."""
    if toy:
        shared = dict(n=150, epsilon=0.3, fault_fractions=(0.0, 0.2), trials=2)
    else:
        shared = dict(n=400, epsilon=0.25, fault_fractions=(0.0, 0.1, 0.2, 0.3), trials=6)

    def driver_pair(fault_kind: str) -> Tuple[Callable, Callable]:
        overrides = {**shared, "fault_kind": fault_kind, "base_seed": BASE_SEED}
        serial = functools.partial(run_experiment, "E12", **overrides)
        batched = functools.partial(
            run_experiment, "E12", config=ExecutionConfig(batch=True), **overrides
        )
        return serial, batched

    workloads: Dict[str, Dict[str, Any]] = {}
    for fault_kind in FAULT_KINDS:
        serial, batched = driver_pair(fault_kind)
        workloads[fault_kind] = {
            "description": (
                f"E12 {fault_kind} fault sweep: paper protocol vs. phased "
                "approximate-consensus comparator"
            ),
            "workload": {**shared, "fault_kind": fault_kind},
            "serial": serial,
            "batch": batched,
        }
    return workloads


def measure(workloads: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Time each fault family both ways and assemble the families payload."""
    families: Dict[str, Any] = {}
    for family, spec in workloads.items():
        start = time.perf_counter()
        serial_artifact = spec["serial"]()
        serial_seconds = time.perf_counter() - start
        start = time.perf_counter()
        batch_artifact = spec["batch"]()
        batch_seconds = time.perf_counter() - start
        families[family] = {
            "description": spec["description"],
            "workload": spec["workload"],
            "seconds": {
                "serial": round(serial_seconds, 3),
                "batch": round(batch_seconds, 3),
            },
            "speedup_vs_serial": {"batch": round(serial_seconds / batch_seconds, 2)},
            "reports": {
                "serial": serial_artifact.report.to_dict(),
                "batch": batch_artifact.report.to_dict(),
            },
        }
    return {
        "workload": {
            "experiment": "E12 fault-injection sweep (crash, byzantine)",
            "base_seed": BASE_SEED,
        },
        "host": {"cpu_count": os.cpu_count()},
        "families": families,
    }


def _assert_sweep_physics(families: Dict[str, Any]) -> None:
    """The sweep's invariants, checked on every measured report."""
    for family, payload in families.items():
        for path in ("serial", "batch"):
            rows = payload["reports"][path]["rows"]
            for row in rows:
                if row["fault_fraction"] == 0.0:
                    # Clean baseline: no declared faults, both protocols win.
                    assert row["num_faulty"] == 0, (family, path, row)
                    assert row["success_rate"] == 1.0, (family, path, row)
                if row["protocol"] == "phased-approximate-consensus":
                    # The comparator tolerates its configured f by design
                    # (crash faults; Byzantine equivocation keeps the spread
                    # an averaged mix, still near-always within eps here).
                    if row["fault_fraction"] <= 0.2:
                        assert row["success_rate"] >= 0.5, (family, path, row)


def test_e12_fault_sweep(print_report, machine_stamp):
    """Measure the E12 sweep per fault kind and record the JSON payload."""
    payload = {**measure(build_workloads()), "machine": machine_stamp}
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(json.dumps({k: v["seconds"] for k, v in payload["families"].items()}, indent=2))

    _assert_sweep_physics(payload["families"])
