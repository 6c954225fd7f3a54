"""Throughput of the experiment service: cold simulation vs warm store hits.

The service's perf claim extends the store's: once a parameter point is in
the run store, repeated HTTP requests for it must be served at plain
request/response speed — no job queued, no backend created, no simulation.
This benchmark starts a real :class:`~repro.service.app.ExperimentService`
on an ephemeral port, then drives it through
:class:`~repro.service.client.ServiceClient` in two phases —

* **cold** — ``distinct_points`` fresh parameter points submitted and
  waited to completion: every one is a miss that pays for simulation;
* **warm** — the same points requested ``warm_sweeps`` more times each
  from multiple client threads: every request must come back as an
  immediate 200 store hit —

and records requests/sec for both phases, the warm/cold speedup and the
service's own ``/metrics`` cache statistics in
``benchmarks/results/service_load.json`` (flattened into the top-level
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
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.service import ServiceClient, create_server

RESULTS_PATH = Path(__file__).parent / "results" / "service_load.json"


def build_workloads(toy: bool = False) -> Dict[str, Any]:
    """The E8 service-load workload (``toy=True`` = smoke-gate scale)."""
    base = dict(n=60, epsilon=0.3, set_sizes=(10,), trials=2, base_seed=5)
    if toy:
        return {
            "experiment": "E8",
            "base_overrides": base,
            "distinct_points": 2,
            "warm_sweeps": 3,
            "client_threads": 2,
            "workers": 2,
        }
    return {
        "experiment": "E8",
        "base_overrides": dict(n=200, epsilon=0.3, set_sizes=(40,), trials=3),
        "distinct_points": 4,
        "warm_sweeps": 25,
        "client_threads": 4,
        "workers": 2,
    }


def _point_params(workload: Dict[str, Any], index: int) -> Dict[str, Any]:
    """The ``index``-th distinct parameter point: the base sweep, new bias."""
    params = dict(workload["base_overrides"])
    params["biases"] = (round(0.1 + 0.05 * index, 2),)
    return params


def measure(workload: Dict[str, Any]) -> Dict[str, Any]:
    """Run the cold and warm phases against a fresh service instance."""
    store_root = Path(tempfile.mkdtemp(prefix="bench-service-")) / "store"
    server = create_server(store_root, port=0, workers=workload["workers"])
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        port = server.server_address[1]
        experiment = workload["experiment"]
        points = [_point_params(workload, index) for index in range(workload["distinct_points"])]

        # Cold phase: every distinct point pays for simulation exactly once.
        client = ServiceClient(port=port)
        start = time.perf_counter()
        rendered: List[str] = []
        for params in points:
            final = client.result(client.submit(experiment, params=params))
            assert final["cache"] == "miss", "fresh points must miss an empty store"
            rendered.append(final["result"]["rendered"])
        cold_seconds = time.perf_counter() - start

        # Warm phase: multi-threaded clients replay the same points; every
        # request must be an immediate 200 served from the store.
        warm_requests = workload["distinct_points"] * workload["warm_sweeps"]
        failures: List[str] = []
        lock = threading.Lock()

        def replay(thread_index: int, assigned: List[int]) -> None:
            thread_client = ServiceClient(port=port)
            for position in assigned:
                params = points[position % len(points)]
                body = thread_client.submit(experiment, params=params)
                ok = (
                    body["cache"] == "hit"
                    and body["job_id"] is None
                    and body["result"]["rendered"] == rendered[position % len(points)]
                )
                if not ok:
                    with lock:
                        failures.append(f"thread {thread_index} request {position}: {body['cache']}")

        assignments: List[List[int]] = [[] for _ in range(workload["client_threads"])]
        for position in range(warm_requests):
            assignments[position % len(assignments)].append(position)
        threads = [
            threading.Thread(target=replay, args=(index, assigned))
            for index, assigned in enumerate(assignments)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        warm_seconds = time.perf_counter() - start
        assert not failures, f"warm requests were not all store hits: {failures[:5]}"

        metrics = client.metrics()
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
        shutil.rmtree(store_root.parent, ignore_errors=True)

    cold_rps = workload["distinct_points"] / cold_seconds
    warm_rps = warm_requests / warm_seconds
    return {
        "description": "experiment service over HTTP: cold simulation vs warm store hits",
        "workload": {
            "experiment": f"{workload['experiment']} majority sweep over the service",
            **workload["base_overrides"],
            "distinct_points": workload["distinct_points"],
            "warm_requests": warm_requests,
            "client_threads": workload["client_threads"],
            "service_workers": workload["workers"],
            "cache_hit_rate": metrics["cache"]["hit_rate"],
            "cache": metrics["cache"],
        },
        "host": {"cpu_count": os.cpu_count()},
        "seconds": {
            "cold_phase": round(cold_seconds, 4),
            "warm_phase": round(warm_seconds, 4),
        },
        "requests_per_second": {
            "cold": round(cold_rps, 2),
            "warm": round(warm_rps, 2),
        },
        "speedup_vs_serial": {
            "warm_vs_cold_rps": round(warm_rps / cold_rps, 2),
        },
    }


def test_service_load(machine_stamp):
    """Measure cold vs warm service throughput and record the JSON record."""
    payload = {**measure(build_workloads()), "machine": machine_stamp}
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(json.dumps(payload, indent=2))

    hit_rate = payload["workload"]["cache_hit_rate"]
    assert hit_rate is not None and hit_rate > 0.5, (
        f"warm phase should dominate the service cache statistics, got {hit_rate}"
    )
    warm_win = payload["speedup_vs_serial"]["warm_vs_cold_rps"]
    assert warm_win > 1.0, (
        f"expected warm store hits to outpace cold simulation, got {warm_win}x "
        f"(recorded in {RESULTS_PATH})"
    )
