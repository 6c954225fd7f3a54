#!/usr/bin/env python
"""Scenario: verifying the O(log n / eps^2) scaling on your own machine.

This example runs experiments E1 and E2 — round complexity versus population
size and versus noise margin — through the content-addressed run store
(:class:`repro.store.RunStore`): each study is requested with
``store.get_or_run(...)``, so the first invocation computes and persists
the run while every later invocation of this script (same parameters, same
package version) is served from the store as a **cache hit** — no
simulation, byte-identical tables.  Execution strategy still comes from an
:class:`repro.api.ExecutionConfig` (the vectorised batch path here; pass
``backend="local"`` to fan sweep points over worker processes), and deliberately does
not participate in the cache key.

It is the quickest way to see Theorem 2.17's scaling with your own eyes
(and, on the second run, to see the run store amortise it to milliseconds).

Run with::

    python examples/scaling_study.py [store_dir]

Pass a persistent ``store_dir`` (e.g. ``runs/store``) to keep the cache
across invocations; the default is a throwaway temporary directory, so
both the cold and the warm path are demonstrated within one process.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.api import ExecutionConfig, RunStore

STUDY = {
    "E1": dict(sizes=(250, 500, 1000, 2000, 4000), epsilon=0.25, trials=3),
    "E2": dict(epsilons=(0.1, 0.15, 0.2, 0.3, 0.4), n=1000, trials=3),
}


def run_study(store: RunStore, config: ExecutionConfig) -> None:
    """Run (or serve) every study experiment through the store, printing tables."""
    for experiment_id, overrides in STUDY.items():
        started = time.perf_counter()
        artifact = store.get_or_run(experiment_id, config=config, **overrides)
        elapsed = time.perf_counter() - started
        print(artifact.report.render())
        print()
        print(
            f"({experiment_id}: cache {artifact.execution['cache']} in {elapsed:.2f}s; "
            f"fingerprint {artifact.fingerprint[:12]}..., stored under {store.root})"
        )
        print()


def main() -> int:
    store_root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="repro-scaling-")) / "store"
    store = RunStore(store_root)
    config = ExecutionConfig(batch=True)  # vectorised trials; add backend="local" for all CPUs

    print("=== first pass (cold store: computes and persists) ===\n")
    run_study(store, config)

    print("=== second pass (warm store: served from disk) ===\n")
    started = time.perf_counter()
    run_study(store, config)
    warm_elapsed = time.perf_counter() - started

    # The whole warm pass is served from the store — assert it, loudly.
    for experiment_id, overrides in STUDY.items():
        again = store.get_or_run(experiment_id, config=config, **overrides)
        assert again.execution["cache"] == "hit", f"{experiment_id} was not served from the store"
    print(f"(warm pass took {warm_elapsed:.2f}s total — no simulation ran)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
