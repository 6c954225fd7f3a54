"""Removing the global-clock assumption (Section 3 of the paper).

The fully-synchronous algorithm of Section 2 assumes every agent starts with
its clock at zero.  Section 3 replaces this with the standard synchronous
setting (an agent's clock starts when it is first activated) in two steps:

1. **Bounded skew** (Section 3.1): if all clocks are initialised within a
   window of ``D`` rounds, run each phase ``i`` shifted by an extra ``i * D``
   rounds of silence.  Because clocks differ by less than ``D``, every agent
   executes phase ``i`` inside a global window that is disjoint from the
   windows of other phases, and the execution maps bijectively onto a
   fully-synchronous one (the per-phase decisions are order-invariant, see
   Remarks 2.1 and 2.10).
2. **Unbounded skew** (Section 3.2): an initial *activation phase* — every
   informed agent broadcasts an arbitrary message for ``2 log n`` rounds, and
   each agent resets its clock ``4 log n`` rounds after it first heard a
   message — reduces the skew to ``D = 2 log n`` w.h.p., after which step 1
   applies.

The total overhead is an additive ``O(log^2 n)`` rounds (Theorem 3.1) while
the message complexity is unchanged, because the modification only inserts
silent rounds.

Both steps run on the stage kernels of :mod:`repro.exec.stage_batching`:
they take the agents' clock offsets and a guard-dilated local schedule
(:func:`guarded_schedules`), and run the same phases, senders and phase-end
rules shifted in time.  An agent speaks only while its *own* clock is
inside the current phase, which is exactly what makes the paper's
equivalence argument go through.  :func:`run_with_bounded_skew` and
:func:`run_clock_free_broadcast` are one run of
:func:`~repro.exec.stage_batching.run_bounded_skew_batch` /
:func:`~repro.exec.stage_batching.run_clock_free_batch` at ``R = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ParameterError
from .parameters import ProtocolParameters
from .schedule import PhaseSchedule, build_stage1_schedule, build_stage2_schedule

__all__ = [
    "ClockFreeBroadcastResult",
    "default_guard",
    "guarded_schedules",
    "run_clock_free_broadcast",
    "run_with_bounded_skew",
]


def default_guard(n: int) -> int:
    """The paper's skew bound after the activation phase: ``D = 2 log2 n`` rounds."""
    if n < 2:
        raise ParameterError("n must be at least 2")
    return 2 * int(math.ceil(math.log2(n)))


def guarded_schedules(
    parameters: ProtocolParameters, guard: int
) -> Tuple[PhaseSchedule, PhaseSchedule]:
    """Both stages' local schedules with ``guard`` silent rounds before every phase.

    Section 3.1's ``i * D`` shifts: Stage I dilated by ``guard``, then a
    Stage-II schedule starting where it ends, also dilated.
    """
    stage1 = build_stage1_schedule(parameters.stage1).dilated(guard)
    stage2 = build_stage2_schedule(parameters.stage2, start_round=stage1.end).dilated(guard)
    return stage1, stage2


@dataclass(frozen=True)
class ClockFreeBroadcastResult:
    """Outcome of a broadcast run without the global-clock assumption.

    ``overhead_rounds`` is what removing the global clock cost: ``rounds``
    minus the synchronous schedule's length, so it counts the activation
    phase, every guard window and the clock skew.  ``guard`` is the guard
    each phase was dilated by and ``skew`` the realised clock skew.
    """

    success: bool
    correct_opinion: int
    n: int
    epsilon: float
    rounds: int
    overhead_rounds: int
    messages_sent: int
    final_correct_fraction: float
    guard: int
    skew: int


def _single_run(batch, parameters: ProtocolParameters) -> ClockFreeBroadcastResult:
    """The scalar result of a one-replicate Section-3 batch run under ``parameters``."""
    rounds = int(batch.rounds[0])
    return ClockFreeBroadcastResult(
        success=bool(batch.success[0]),
        correct_opinion=batch.correct_opinion,
        n=batch.n,
        epsilon=batch.epsilon,
        rounds=rounds,
        overhead_rounds=rounds - parameters.total_rounds,
        messages_sent=int(batch.messages_sent[0]),
        final_correct_fraction=float(batch.final_correct_fraction[0]),
        guard=int(batch.guard[0]),
        skew=int(batch.skew[0]),
    )


def run_clock_free_broadcast(
    n: int,
    epsilon: float,
    seed: int = 0,
    correct_opinion: int = 1,
    parameters: Optional[ProtocolParameters] = None,
    guard: Optional[int] = None,
    **calibration_overrides: float,
) -> ClockFreeBroadcastResult:
    """Run the clock-free protocol once (Section 3.2, Theorem 3.1).

    The activation phase sets every agent's clock, then both stages run
    behind guards of ``max(2 log2 n, realised skew)`` rounds (or ``guard``
    when given): :func:`~repro.exec.stage_batching.run_clock_free_batch` at
    ``R = 1`` with ``seed`` as its base seed.
    """
    from ..exec.stage_batching import run_clock_free_batch

    if parameters is None:
        parameters = ProtocolParameters.calibrated(n, epsilon, **calibration_overrides)
    batch = run_clock_free_batch(
        n=n,
        epsilon=epsilon,
        num_replicates=1,
        base_seed=seed,
        correct_opinion=correct_opinion,
        parameters=parameters,
        guard=guard,
    )
    return _single_run(batch, parameters)


def run_with_bounded_skew(
    n: int,
    epsilon: float,
    max_skew: int,
    seed: int = 0,
    correct_opinion: int = 1,
    parameters: Optional[ProtocolParameters] = None,
    **calibration_overrides: float,
) -> ClockFreeBroadcastResult:
    """Section 3.1 only: clocks start uniformly within ``[0, max_skew)`` rounds.

    No activation phase is run; this isolates the cost of the per-phase guard
    windows, which is what experiment E9 sweeps.  The run is
    :func:`~repro.exec.stage_batching.run_bounded_skew_batch` at ``R = 1``
    with ``seed`` as its base seed.
    """
    from ..exec.stage_batching import run_bounded_skew_batch

    if parameters is None:
        parameters = ProtocolParameters.calibrated(n, epsilon, **calibration_overrides)
    batch = run_bounded_skew_batch(
        n=n,
        epsilon=epsilon,
        num_replicates=1,
        max_skew=max_skew,
        base_seed=seed,
        correct_opinion=correct_opinion,
        parameters=parameters,
    )
    return _single_run(batch, parameters)
