"""Distribution oracle for E1's serial and batched broadcast trials.

E1 (rounds versus n, Theorem 2.17) is run through its driver at toy sizes
where the calibrated protocol sometimes fails, once serially (each trial is
:func:`~repro.core.broadcast.solve_noisy_broadcast` on one ``(n,)``
population) and once batched (each sweep point is one
:func:`~repro.exec.batching.run_broadcast_batch` grid), and every per-trial measurement the driver reports is collected as
each cell's :class:`~repro.analysis.experiments.ExperimentResult` is
assembled.  :data:`RECORDED` holds the mean and standard error of each of
them, taken at commit 9f44bc6, where delivery still resolved collisions by
drawing a priority per message and noised the winners in a separate channel
pass, and Stage I still kept a reservoir sample per agent.  Whatever runs
these trials must keep each mean within :data:`TOLERANCE_SE` standard errors
of the recorded one (the two errors combined); a measurement with no spread
on both sides must match exactly.

The point is ε = 0.26 at n = 20 and n = 24, close to the paper's lower
bound on ε for those sizes: about 1.5% of runs fail there, which the 480
batched replicates per cell show and the 120 serial trials per cell did
not at the recorded seed.
"""

from __future__ import annotations

import functools
import math
from unittest import mock

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentResult
from repro.api import ExecutionConfig, run_experiment

BASE_SEED = 2024

#: How many combined standard errors a mean may move.
TOLERANCE_SE = 4.0

#: E1 driver overrides shared by both modes.
OVERRIDES = {"sizes": (20, 24), "epsilon": 0.26}

#: Mode -> trials per cell.
TRIALS = {"serial": 120, "batch": 480}

#: (mode, cell, measurement) -> (mean, standard error) over the trials of
#: each cell at 9f44bc6.  The batched ``success`` means sit below 1: the
#: point was chosen where the protocol sometimes fails, so the oracle also
#: compares failure rates, not only measurements every run saturates.
RECORDED = {
    ('serial', 'E1-rounds-vs-n[n=20]', 'final_correct_fraction'): (1.0, 0.0),
    ('serial', 'E1-rounds-vs-n[n=20]', 'messages'): (8594.17, 3.69897),
    ('serial', 'E1-rounds-vs-n[n=20]', 'rounds'): (515.0, 0.0),
    ('serial', 'E1-rounds-vs-n[n=20]', 'success'): (1.0, 0.0),
    ('serial', 'E1-rounds-vs-n[n=24]', 'final_correct_fraction'): (1.0, 0.0),
    ('serial', 'E1-rounds-vs-n[n=24]', 'messages'): (10582.5, 3.97427),
    ('serial', 'E1-rounds-vs-n[n=24]', 'rounds'): (533.0, 0.0),
    ('serial', 'E1-rounds-vs-n[n=24]', 'success'): (1.0, 0.0),
    ('batch', 'E1-rounds-vs-n[n=20]', 'crashed'): (0.0, 0.0),
    ('batch', 'E1-rounds-vs-n[n=20]', 'final_correct_fraction'): (0.989479, 0.00455213),
    ('batch', 'E1-rounds-vs-n[n=20]', 'fraction'): (0.989479, 0.00455213),
    ('batch', 'E1-rounds-vs-n[n=20]', 'messages'): (8595.84, 1.53617),
    ('batch', 'E1-rounds-vs-n[n=20]', 'messages_per_agent'): (429.792, 0.0768087),
    ('batch', 'E1-rounds-vs-n[n=20]', 'rounds'): (515.0, 0.0),
    ('batch', 'E1-rounds-vs-n[n=20]', 'stage1_bias'): (0.272292, 0.00450753),
    ('batch', 'E1-rounds-vs-n[n=20]', 'success'): (0.983333, 0.00584934),
    ('batch', 'E1-rounds-vs-n[n=20]', 'surviving_fraction'): (0.989479, 0.00455213),
    ('batch', 'E1-rounds-vs-n[n=24]', 'crashed'): (0.0, 0.0),
    ('batch', 'E1-rounds-vs-n[n=24]', 'final_correct_fraction'): (0.995399, 0.0025112),
    ('batch', 'E1-rounds-vs-n[n=24]', 'fraction'): (0.995399, 0.0025112),
    ('batch', 'E1-rounds-vs-n[n=24]', 'messages'): (10570.6, 2.54853),
    ('batch', 'E1-rounds-vs-n[n=24]', 'messages_per_agent'): (440.441, 0.106189),
    ('batch', 'E1-rounds-vs-n[n=24]', 'rounds'): (533.0, 0.0),
    ('batch', 'E1-rounds-vs-n[n=24]', 'stage1_bias'): (0.262413, 0.00400703),
    ('batch', 'E1-rounds-vs-n[n=24]', 'success'): (0.9875, 0.0050764),
    ('batch', 'E1-rounds-vs-n[n=24]', 'surviving_fraction'): (0.995399, 0.0025112),
}


@functools.lru_cache(maxsize=None)
def _run_cells(mode):
    """Every cell of E1 run in ``mode``, keyed by cell name."""
    captured = {}
    assemble = ExperimentResult.from_trials.__func__

    def recording(cls, name, config, seeds, raw_measurements):
        result = assemble(cls, name, config, seeds, raw_measurements)
        captured[name] = result
        return result

    config = ExecutionConfig(batch=mode == "batch", trials=TRIALS[mode], base_seed=BASE_SEED)
    with mock.patch.object(ExperimentResult, "from_trials", classmethod(recording)):
        run_experiment("E1", config=config, **OVERRIDES)
    return captured


def _summary(values):
    """(mean, standard error) of the non-``None`` values."""
    present = np.array([float(value) for value in values if value is not None])
    if present.size < 2:
        return float(present.mean()), 0.0
    return float(present.mean()), float(present.std(ddof=1) / math.sqrt(present.size))


@pytest.mark.parametrize("mode", sorted(TRIALS))
def test_every_measurement_is_recorded(mode):
    recorded = {(cell, key) for recorded_mode, cell, key in RECORDED if recorded_mode == mode}
    reported = {
        (cell, key)
        for cell, result in _run_cells(mode).items()
        for trial in result.trials
        for key in trial.measurements
    }
    assert reported == recorded


@pytest.mark.parametrize(
    "mode, cell, key",
    sorted(RECORDED),
    ids=[f"{mode}:{cell}:{key}" for mode, cell, key in sorted(RECORDED)],
)
def test_mean_within_recorded_standard_errors(mode, cell, key):
    recorded_mean, recorded_se = RECORDED[(mode, cell, key)]
    mean, se = _summary(trial.get(key) for trial in _run_cells(mode)[cell].trials)
    allowed = TOLERANCE_SE * math.hypot(recorded_se, se) + 1e-6
    assert abs(mean - recorded_mean) <= allowed, (
        f"{mode} {cell} {key}: mean {mean:.6g} (se {se:.3g}) is more than {TOLERANCE_SE} "
        f"combined standard errors from the recorded {recorded_mean:.6g} (se {recorded_se:.3g})"
    )
