"""Dispatch cost of the execution backends: per-call spawn vs persistent reuse.

The backend refactor's headline perf claim is architectural, not numeric:
the historical dispatch path spawned (and tore down) a fresh
``ProcessPoolExecutor`` for *every* pooled call — one spawn-up per
sweep-point family — while :class:`~repro.exec.backends.local.LocalPoolBackend`
spawns once per run and reuses the pool across families.  This benchmark
measures exactly that difference on a many-families / cheap-tasks workload
(the regime where spawn-up dominates), alongside the in-process reference,
and records the numbers in ``benchmarks/results/backend_dispatch.json``.

The task function is :func:`math.hypot` — stdlib, importable from any
spawned worker subprocess, and cheap enough that the measured time is almost
pure dispatch machinery.  All backends must return identical results (the
bit-identity contract), which the test asserts before looking at any
wall-clock number.

``build_workloads(toy=True)`` shrinks the family/task counts so the smoke
gate in ``tests/unit/test_smoke_gates.py`` can execute the measurement end
to end in seconds.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.exec.backends import InProcessBackend, LocalPoolBackend, Task

RESULTS_PATH = Path(__file__).parent / "results" / "backend_dispatch.json"

POOL_JOBS = 2  #: worker count of the local pool under test.


def build_workloads(toy: bool = False) -> Dict[str, Any]:
    """The many-families dispatch workload (``toy=True`` = smoke-gate scale)."""
    if toy:
        return {"families": 2, "tasks_per_family": 8, "jobs": POOL_JOBS}
    return {"families": 8, "tasks_per_family": 64, "jobs": POOL_JOBS}


def _family_tasks(family: int, count: int) -> List[Task]:
    """One family's task list (pure stdlib work, importable everywhere)."""
    return [
        Task(
            fn=math.hypot,
            args=(float(family), float(index)),
            context=(("point", f"family-{family}"), ("seed", index)),
        )
        for index in range(count)
    ]


def measure(workload: Dict[str, Any]) -> Dict[str, Any]:
    """Time every dispatch strategy over the same family workload."""
    families = [
        _family_tasks(family, workload["tasks_per_family"])
        for family in range(workload["families"])
    ]
    jobs = workload["jobs"]
    outputs: Dict[str, List[List[Any]]] = {}

    def timed(label: str, thunk) -> float:
        start = time.perf_counter()
        outputs[label] = thunk()
        return time.perf_counter() - start

    in_process_seconds = timed(
        "in_process", lambda: [InProcessBackend().submit(tasks) for tasks in families]
    )

    def per_call() -> List[List[Any]]:
        # The historical semantics: one fresh pool per family dispatch.
        results = []
        for tasks in families:
            with LocalPoolBackend(workers=jobs) as backend:
                results.append(backend.submit(tasks))
        return results

    per_call_seconds = timed("local_per_call", per_call)

    def reused() -> List[List[Any]]:
        # The backend-layer semantics: one pool serves every family.
        with LocalPoolBackend(workers=jobs) as backend:
            return [backend.submit(tasks) for tasks in families]

    reuse_seconds = timed("local_reuse", reused)

    reference = outputs["in_process"]
    for label, produced in outputs.items():
        assert produced == reference, f"backend {label!r} broke the bit-identity contract"

    total_tasks = workload["families"] * workload["tasks_per_family"]
    return {
        "description": "execution-backend dispatch overhead (per-call spawn vs reuse)",
        "workload": {
            "experiment": "backend dispatch (math.hypot micro-tasks)",
            **workload,
            "total_tasks": total_tasks,
        },
        "host": {"cpu_count": os.cpu_count()},
        "seconds": {
            "serial": round(in_process_seconds, 3),
            "local_per_call": round(per_call_seconds, 3),
            "local_reuse": round(reuse_seconds, 3),
        },
        "speedup_vs_serial": {
            # The acceptance number: pool reuse must beat per-call spawn-up.
            "local_reuse_vs_per_call": round(per_call_seconds / reuse_seconds, 2),
        },
        "dispatch_overhead_ms_per_task": {
            "local_reuse": round(1e3 * reuse_seconds / total_tasks, 3),
        },
    }


def test_backend_dispatch_overhead(machine_stamp):
    """Measure the dispatch strategies and record the JSON perf record."""
    payload = {**measure(build_workloads()), "machine": machine_stamp}
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(json.dumps(payload, indent=2))

    reuse_win = payload["speedup_vs_serial"]["local_reuse_vs_per_call"]
    assert reuse_win > 1.0, (
        "expected the persistent local pool (spawned once, reused across families) to beat "
        f"per-call pool spawn-up, got {reuse_win}x (recorded in {RESULTS_PATH})"
    )
