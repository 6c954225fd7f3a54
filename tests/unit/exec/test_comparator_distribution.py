"""Distribution oracle for the E7, E11 and E12 comparator rules.

Each comparator (immediate forwarding, the noisy voter, the direct-source
reference, silent wait and the phased approximate-consensus algorithm) is
run as the drivers' serial cells run it — its one rule at ``R = 1`` under
each trial's seed — at toy sizes, under the drivers' own trial seeds.
:data:`RECORDED` holds the mean and standard error of every measurement the
drivers report, taken from the former serial protocol classes (their own
engine loops) at commit b30f117, before those loops were deleted.  The rule
must keep each mean within :data:`TOLERANCE_SE` standard errors of the
recorded one (the two errors combined); a measurement with no spread on
both sides must match exactly.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.analysis.experiments import run_trials
from repro.exec.batching import replicate_trial, run_baseline_batch
from repro.protocols.fault_tolerant import run_consensus_comparator_batch
from repro.protocols.silent_wait import default_decision_threshold
from repro.substrate.faults import ByzantineSenders, CrashStop

TRIALS = 24
BASE_SEED = 2024

#: How many combined standard errors a mean may move.
TOLERANCE_SE = 4.0

E7_N, E7_EPSILON, E7_VOTER_ROUNDS = 150, 0.3, 48
E11_N, E11_EPSILON = 40, 0.4
E12_N, E12_CONSENSUS_EPS = 60, 0.05


def _serial(batch_fn, **settings):
    """The serial trial function the drivers run: the rule at ``R = 1``."""
    return functools.partial(replicate_trial, batch_fn=batch_fn, **settings)


#: Cell name (the drivers' naming, so the trial seeds are the drivers') ->
#: the serial trial function.
CELLS = {
    "E7-immediate-forwarding-eps=0.3": _serial(
        run_baseline_batch, protocol="immediate-forwarding", n=E7_N, epsilon=E7_EPSILON
    ),
    "E7-noisy-voter-eps=0.3": _serial(
        run_baseline_batch, protocol="noisy-voter", n=E7_N, epsilon=E7_EPSILON,
        max_rounds=E7_VOTER_ROUNDS,
    ),
    "E7-direct-source-reference-eps=0.3": _serial(
        run_baseline_batch, protocol="direct-source-reference", n=E7_N, epsilon=E7_EPSILON
    ),
    "E11-direct-source": _serial(
        run_baseline_batch, protocol="direct-source-reference", n=E11_N, epsilon=E11_EPSILON
    ),
    "E11-silent-wait": _serial(
        run_baseline_batch,
        protocol="silent-wait",
        n=E11_N,
        epsilon=E11_EPSILON,
        threshold=default_decision_threshold(E11_N, E11_EPSILON, constant=2.0),
    ),
    "E12-phased-approximate-consensus-f=0.2": _serial(
        run_consensus_comparator_batch,
        n=E12_N,
        model=CrashStop(fraction=0.2, crash_probability=0.05),
        agreement_eps=E12_CONSENSUS_EPS,
    ),
    "E12-phased-approximate-consensus-f=0.1": _serial(
        run_consensus_comparator_batch,
        n=E12_N,
        model=ByzantineSenders(fraction=0.1),
        agreement_eps=E12_CONSENSUS_EPS,
    ),
}

#: (cell, measurement) -> (mean, standard error) over the ``TRIALS`` trials
#: of the serial classes at b30f117; ``None`` entries are skipped, as the
#: drivers' ``mean_or`` skips them.  The voter's ``rounds_converged`` is
#: ``None`` in every trial (the voter never converges under noise), so its
#: ``converged`` rate of 0 stands for it.
RECORDED = {
    ("E7-immediate-forwarding-eps=0.3", "converged"): (1, 0),
    ("E7-immediate-forwarding-eps=0.3", "fraction"): (0.623889, 0.0188857),
    ("E7-immediate-forwarding-eps=0.3", "rounds"): (37, 0),
    ("E7-immediate-forwarding-eps=0.3", "success"): (0, 0),
    ("E7-noisy-voter-eps=0.3", "converged"): (0, 0),
    ("E7-noisy-voter-eps=0.3", "fraction"): (0.5075, 0.0122067),
    ("E7-noisy-voter-eps=0.3", "rounds"): (48, 0),
    ("E7-noisy-voter-eps=0.3", "success"): (0, 0),
    ("E7-direct-source-reference-eps=0.3", "all_correct"): (1, 0),
    ("E7-direct-source-reference-eps=0.3", "fraction"): (1, 0),
    ("E7-direct-source-reference-eps=0.3", "rounds"): (223, 0),
    ("E7-direct-source-reference-eps=0.3", "rounds_to_all_correct"): (14.1667, 0.779415),
    ("E7-direct-source-reference-eps=0.3", "success"): (1, 0),
    ("E11-direct-source", "all_correct"): (1, 0),
    ("E11-direct-source", "rounds_to_all_correct"): (5.04167, 0.24435),
    ("E11-direct-source", "success"): (1, 0),
    ("E11-silent-wait", "decided_fraction"): (1, 0),
    ("E11-silent-wait", "first_two_messages_round"): (7.70833, 0.864935),
    ("E11-silent-wait", "rounds"): (2433.21, 26.693),
    ("E11-silent-wait", "success"): (1, 0),
    ("E12-phased-approximate-consensus-f=0.2", "fraction"): (1, 0),
    ("E12-phased-approximate-consensus-f=0.2", "num_faulty"): (12, 0),
    ("E12-phased-approximate-consensus-f=0.2", "rounds"): (3, 0),
    ("E12-phased-approximate-consensus-f=0.2", "spread"): (0, 0),
    ("E12-phased-approximate-consensus-f=0.2", "success"): (1, 0),
    ("E12-phased-approximate-consensus-f=0.1", "fraction"): (1, 0),
    ("E12-phased-approximate-consensus-f=0.1", "num_faulty"): (6, 0),
    ("E12-phased-approximate-consensus-f=0.1", "rounds"): (2, 0),
    ("E12-phased-approximate-consensus-f=0.1", "spread"): (0.0516127, 0.00107459),
    ("E12-phased-approximate-consensus-f=0.1", "success"): (0.333333, 0.0982946),
}


def _summary(values):
    """(mean, standard error) of the non-``None`` values."""
    present = np.array([float(value) for value in values if value is not None])
    if present.size < 2:
        return float(present.mean()), 0.0
    return float(present.mean()), float(present.std(ddof=1) / math.sqrt(present.size))


@functools.lru_cache(maxsize=None)
def _cell(name):
    return run_trials(name=name, trial_fn=CELLS[name], num_trials=TRIALS, base_seed=BASE_SEED)


def test_every_cell_is_recorded():
    assert {cell for cell, _ in RECORDED} == set(CELLS)


@pytest.mark.parametrize(
    "cell, key", sorted(RECORDED), ids=[f"{cell}:{key}" for cell, key in sorted(RECORDED)]
)
def test_mean_within_recorded_standard_errors(cell, key):
    recorded_mean, recorded_se = RECORDED[(cell, key)]
    mean, se = _summary(trial.get(key) for trial in _cell(cell).trials)
    allowed = TOLERANCE_SE * math.hypot(recorded_se, se) + 1e-6
    assert abs(mean - recorded_mean) <= allowed, (
        f"{cell} {key}: mean {mean:.6g} (se {se:.3g}) is more than {TOLERANCE_SE} "
        f"combined standard errors from the recorded {recorded_mean:.6g} (se {recorded_se:.3g})"
    )
