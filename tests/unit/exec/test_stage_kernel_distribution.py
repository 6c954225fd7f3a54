"""Distribution oracle for the serial stage-level and Section-3 trials.

Serial E4, E5, E6, E8, E9 and the paper-protocol cells of E12 are run
through their drivers at toy sizes, with the drivers' own cell names and
trial seeds, and every per-trial measurement the drivers report is
collected as each cell's :class:`~repro.analysis.experiments.ExperimentResult`
is assembled.  :data:`RECORDED` holds the mean and standard error of each
of them, taken at commit f96d91a, where these trials still ran the engine
executors of :mod:`repro.core` (``execute_stage_one``/``execute_stage_two``
with late starts, skewed clocks and fault injectors).  Whatever runs a
serial trial must keep each mean within :data:`TOLERANCE_SE` standard errors
of the recorded one (the two errors combined); a measurement with no spread
on both sides must match exactly.
"""

from __future__ import annotations

import functools
import math
from unittest import mock

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentResult
from repro.api import ExecutionConfig, run_experiment

TRIALS = 24
BASE_SEED = 2024

#: How many combined standard errors a mean may move.
TOLERANCE_SE = 4.0

#: Run label -> (experiment id, driver overrides).  Every run is serial.
RUNS = {
    "E4": ("E4", {"n": 250, "epsilons": (0.2,)}),
    "E5": ("E5", {"n": 250, "epsilon": 0.35}),
    "E6": ("E6", {"n": 250, "epsilon": 0.2}),
    "E8": ("E8", {"n": 250, "epsilon": 0.3, "set_sizes": (60,), "biases": (0.05, 0.3)}),
    "E9": ("E9", {"n": 150, "epsilon": 0.3, "skews": (4,)}),
    "E12-crash": ("E12", {"n": 150, "epsilon": 0.3, "fault_fractions": (0.2,),
                          "fault_kind": "crash"}),
    "E12-byzantine": ("E12", {"n": 150, "epsilon": 0.3, "fault_fractions": (0.2,),
                              "fault_kind": "byzantine"}),
}

#: Cells whose trials the oracle checks (the comparator cells of E12 have
#: their own oracle in ``test_comparator_distribution.py``).
CHECKED_CELL_PREFIXES = ("E4-", "E5-", "E6-", "E8-", "E9-", "E12-breathe-before-speaking")

#: (run, cell, measurement) -> (mean, standard error) over the ``TRIALS``
#: trials of each cell at f96d91a; ``None`` entries are skipped, as the
#: drivers' ``mean_or`` skips them.
RECORDED = {
    ('E12-byzantine', 'E12-breathe-before-speaking-f=0.2', 'crashed'): (0.0, 0.0),
    ('E12-byzantine', 'E12-breathe-before-speaking-f=0.2', 'final_correct_fraction'): (0.999722, 0.000277778),
    ('E12-byzantine', 'E12-breathe-before-speaking-f=0.2', 'fraction'): (0.999722, 0.000277778),
    ('E12-byzantine', 'E12-breathe-before-speaking-f=0.2', 'messages'): (63418.7, 86.8377),
    ('E12-byzantine', 'E12-breathe-before-speaking-f=0.2', 'rounds'): (586.0, 0.0),
    ('E12-byzantine', 'E12-breathe-before-speaking-f=0.2', 'success'): (0.958333, 0.0416667),
    ('E12-byzantine', 'E12-breathe-before-speaking-f=0.2', 'surviving_fraction'): (0.999722, 0.000277778),
    ('E12-crash', 'E12-breathe-before-speaking-f=0.2', 'crashed'): (29.0, 0.0),
    ('E12-crash', 'E12-breathe-before-speaking-f=0.2', 'final_correct_fraction'): (1.0, 0.0),
    ('E12-crash', 'E12-breathe-before-speaking-f=0.2', 'fraction'): (1.0, 0.0),
    ('E12-crash', 'E12-breathe-before-speaking-f=0.2', 'messages'): (51180.6, 79.1927),
    ('E12-crash', 'E12-breathe-before-speaking-f=0.2', 'rounds'): (586.0, 0.0),
    ('E12-crash', 'E12-breathe-before-speaking-f=0.2', 'success'): (1.0, 0.0),
    ('E12-crash', 'E12-breathe-before-speaking-f=0.2', 'surviving_fraction'): (1.0, 0.0),
    ('E4', 'E4-phase0-eps=0.2', 'bias0'): (0.207269, 0.00781658),
    ('E4', 'E4-phase0-eps=0.2', 'bias_at_least_half_eps'): (1.0, 0.0),
    ('E4', 'E4-phase0-eps=0.2', 'x0'): (167.083, 1.04763),
    ('E4', 'E4-phase0-eps=0.2', 'x0_within_bounds'): (1.0, 0.0),
    ('E5', 'E5-stage1-growth', 'all_activated'): (1.0, 0.0),
    ('E5', 'E5-stage1-growth', 'bias_0'): (0.33197, 0.0115876),
    ('E5', 'E5-stage1-growth', 'bias_1'): (0.238921, 0.0109822),
    ('E5', 'E5-stage1-growth', 'final_bias'): (0.255667, 0.0106429),
    ('E5', 'E5-stage1-growth', 'x_0'): (43.2083, 0.269051),
    ('E5', 'E5-stage1-growth', 'x_1'): (250.0, 0.0),
    ('E5', 'E5-stage1-growth', 'y_0'): (42.2083, 0.269051),
    ('E5', 'E5-stage1-growth', 'y_1'): (206.792, 0.269051),
    ('E6', 'E6-stage2-boost', 'bias_after_1'): (0.461333, 0.00243961),
    ('E6', 'E6-stage2-boost', 'bias_after_2'): (0.496, 0.000834058),
    ('E6', 'E6-stage2-boost', 'bias_after_3'): (0.4985, 0.000470122),
    ('E6', 'E6-stage2-boost', 'bias_after_4'): (0.498667, 0.000461043),
    ('E6', 'E6-stage2-boost', 'bias_after_5'): (0.498667, 0.000393179),
    ('E6', 'E6-stage2-boost', 'bias_after_6'): (0.5, 0.0),
    ('E6', 'E6-stage2-boost', 'final_bias'): (0.5, 0.0),
    ('E6', 'E6-stage2-boost', 'final_fraction'): (1.0, 0.0),
    ('E6', 'E6-stage2-boost', 'success'): (1.0, 0.0),
    ('E6', 'E6-stage2-boost', 'successful_1'): (249.292, 0.194854),
    ('E6', 'E6-stage2-boost', 'successful_2'): (249.0, 0.199637),
    ('E6', 'E6-stage2-boost', 'successful_3'): (249.5, 0.134595),
    ('E6', 'E6-stage2-boost', 'successful_4'): (249.5, 0.159256),
    ('E6', 'E6-stage2-boost', 'successful_5'): (249.458, 0.120072),
    ('E6', 'E6-stage2-boost', 'successful_6'): (250.0, 0.0),
    ('E8', 'E8-majority-consensus[set_size=60, bias=0.05]', 'final_fraction'): (0.916667, 0.0576303),
    ('E8', 'E8-majority-consensus[set_size=60, bias=0.05]', 'rounds'): (496.0, 0.0),
    ('E8', 'E8-majority-consensus[set_size=60, bias=0.05]', 'success'): (0.916667, 0.0576303),
    ('E8', 'E8-majority-consensus[set_size=60, bias=0.3]', 'final_fraction'): (1.0, 0.0),
    ('E8', 'E8-majority-consensus[set_size=60, bias=0.3]', 'rounds'): (496.0, 0.0),
    ('E8', 'E8-majority-consensus[set_size=60, bias=0.3]', 'success'): (1.0, 0.0),
    ('E9', 'E9-clock-free', 'messages'): (65716.0, 91.4532),
    ('E9', 'E9-clock-free', 'rounds'): (759.667, 0.543961),
    ('E9', 'E9-clock-free', 'skew'): (13.3333, 0.280183),
    ('E9', 'E9-clock-free', 'success'): (1.0, 0.0),
    ('E9', 'E9-skew-4', 'messages'): (63348.7, 95.0971),
    ('E9', 'E9-skew-4', 'rounds'): (621.0, 0.0),
    ('E9', 'E9-skew-4', 'success'): (1.0, 0.0),
    ('E9', 'E9-synchronous', 'messages'): (63521.3, 81.9228),
    ('E9', 'E9-synchronous', 'rounds'): (586.0, 0.0),
    ('E9', 'E9-synchronous', 'success'): (1.0, 0.0),
}


@functools.lru_cache(maxsize=None)
def _run_cells(label):
    """Every checked cell of run ``label``, keyed by cell name."""
    experiment_id, overrides = RUNS[label]
    captured = {}
    assemble = ExperimentResult.from_trials.__func__

    def recording(cls, name, config, seeds, raw_measurements):
        result = assemble(cls, name, config, seeds, raw_measurements)
        if name.startswith(CHECKED_CELL_PREFIXES):
            captured[name] = result
        return result

    with mock.patch.object(ExperimentResult, "from_trials", classmethod(recording)):
        run_experiment(
            experiment_id,
            config=ExecutionConfig(batch=False, trials=TRIALS, base_seed=BASE_SEED),
            **overrides,
        )
    return captured


def _summary(values):
    """(mean, standard error) of the non-``None`` values."""
    present = np.array([float(value) for value in values if value is not None])
    if present.size < 2:
        return float(present.mean()), 0.0
    return float(present.mean()), float(present.std(ddof=1) / math.sqrt(present.size))


def test_every_run_is_recorded():
    assert {label for label, _, _ in RECORDED} == set(RUNS)


@pytest.mark.parametrize(
    "label, cell, key",
    sorted(RECORDED),
    ids=[f"{label}:{cell}:{key}" for label, cell, key in sorted(RECORDED)],
)
def test_mean_within_recorded_standard_errors(label, cell, key):
    recorded_mean, recorded_se = RECORDED[(label, cell, key)]
    mean, se = _summary(trial.get(key) for trial in _run_cells(label)[cell].trials)
    allowed = TOLERANCE_SE * math.hypot(recorded_se, se) + 1e-6
    assert abs(mean - recorded_mean) <= allowed, (
        f"{cell} {key}: mean {mean:.6g} (se {se:.3g}) is more than {TOLERANCE_SE} "
        f"combined standard errors from the recorded {recorded_mean:.6g} (se {recorded_se:.3g})"
    )
