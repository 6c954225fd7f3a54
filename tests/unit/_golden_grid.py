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
from unittest import mock

from repro.analysis.experiments import ExperimentResult
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
#: observables of the Stage-I kernel at ``R = 1``, which shift with
#: ``base_seed``.
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


def trial_digest(
    experiment_id: str, batch: bool, overrides: dict, config: ExecutionConfig = None
) -> str:
    """Run one grid configuration and digest every cell's per-trial records.

    A report keeps means and rates, which often do not move when a draw
    does (every trial succeeding on a schedule-fixed round count, say).
    This digest covers each cell's name and, per trial, its seed and every
    measurement the driver recorded, as the cells'
    :class:`~repro.analysis.experiments.ExperimentResult` objects are
    assembled, so a draw-dependent measurement such as ``messages`` moves
    it.
    """
    cells = []
    assemble = ExperimentResult.from_trials.__func__

    def recording(cls, name, config, seeds, raw_measurements):
        result = assemble(cls, name, config, seeds, raw_measurements)
        cells.append(
            [name, [[trial.seed, trial.measurements] for trial in result.trials]]
        )
        return result

    with mock.patch.object(ExperimentResult, "from_trials", classmethod(recording)):
        run_experiment(experiment_id, config=config or ExecutionConfig(batch=batch), **overrides)
    canonical = json.dumps(cells, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()
