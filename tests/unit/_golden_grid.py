"""Shared small-grid configurations for the E1-E11 no-fault regression pin.

The fault-injection substrate threads optional ``faults``/``topology``
arguments through the delivery and stage layers; the contract is that when
no fault model is supplied the code paths are byte-for-byte the pre-existing
ones.  This module defines one tiny-but-complete configuration per driver
plus a digest helper; ``tests/unit/test_fault_none_regression.py`` pins the
digests captured before the fault layer landed.
"""

from __future__ import annotations

import hashlib
import json

from repro.api import ExecutionConfig, run_experiment

#: One fast configuration per driver: (experiment_id, batch?, overrides).
GRID = [
    ("E1", True, {"sizes": (250, 400), "epsilon": 0.3, "trials": 2}),
    ("E2", True, {"epsilons": (0.25, 0.4), "n": 250, "trials": 2}),
    ("E3", True, {"sizes": (250, 400), "epsilons": (0.3,), "trials": 2}),
    ("E4", True, {"n": 250, "epsilons": (0.3,), "trials": 3}),
    ("E5", True, {"n": 250, "epsilon": 0.35, "trials": 2}),
    ("E6", True, {"n": 250, "epsilon": 0.3, "trials": 3}),
    ("E7", True, {"n": 250, "epsilons": (0.3,), "trials": 2, "voter_rounds": 24}),
    ("E8", True, {"n": 250, "set_sizes": (60,), "biases": (0.2,), "trials": 2}),
    ("E9", True, {"n": 250, "epsilon": 0.3, "skews": (4,), "trials": 2}),
    ("E10", True, {"deltas": (0.05,), "monte_carlo_reps": 2000}),
    ("E11", True, {"n": 120, "epsilon": 0.3, "trials": 2}),
    ("E1", False, {"sizes": (250, 400), "epsilon": 0.3, "trials": 2}),
    ("E7", False, {"n": 250, "epsilons": (0.3,), "trials": 2, "voter_rounds": 24}),
    ("E9", False, {"n": 250, "epsilon": 0.3, "skews": (4,), "trials": 2}),
    ("E11", False, {"n": 120, "epsilon": 0.3, "trials": 2}),
]

#: Serial runs of E4 and E5 on their batch configurations.  E1's report holds
#: only mean rounds and success rate, so its serial digest equals the batch
#: one and cannot see a changed draw.  These reports hold per-phase
#: observables of the serial ``PushGossipNetwork.deliver`` path, which shift
#: with ``base_seed``.
SERIAL_DRAW_GRID = [
    (experiment_id, False, overrides)
    for experiment_id, batch, overrides in GRID
    if batch and experiment_id in ("E4", "E5")
]


def grid_digest(
    experiment_id: str, batch: bool, overrides: dict, config: ExecutionConfig = None
) -> str:
    """Run one grid configuration and digest its full report deterministically.

    ``config`` overrides the whole :class:`ExecutionConfig` (used by the
    execution-backend differential pins); the default keeps the historical
    serial/batch configuration.
    """
    artifact = run_experiment(
        experiment_id, config=config or ExecutionConfig(batch=batch), **overrides
    )
    payload = {
        "render": artifact.report.render(),
        "rows": artifact.report.rows,
        "notes": artifact.report.notes,
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()
