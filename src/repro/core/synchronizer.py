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

This module implements both steps on top of the synchronous executors:
:func:`~repro.core.stage1.execute_stage_one` and
:func:`~repro.core.stage2.execute_stage_two` take the agents' clock offsets
and a guard-dilated local schedule (:func:`guarded_schedules`), and run the
same phases, senders and phase-end rules shifted in time.  An agent speaks
only while its *own* clock is inside the current phase, which is exactly
what makes the paper's equivalence argument go through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ParameterError, SimulationError
from ..substrate.engine import SimulationEngine
from .opinions import validate_opinion
from .parameters import ProtocolParameters
from .schedule import PhaseSchedule, build_stage1_schedule, build_stage2_schedule
from .stage1 import StageOneResult, execute_stage_one
from .stage2 import StageTwoResult, execute_stage_two

__all__ = [
    "ActivationPhaseResult",
    "ClockFreeBroadcastResult",
    "default_guard",
    "guarded_schedules",
    "run_activation_phase",
    "ClockFreeBroadcastProtocol",
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
class ActivationPhaseResult:
    """Outcome of the Section-3.2 activation phase.

    ``offsets[a]`` is the global round at which agent ``a``'s (reset) clock
    reads zero — i.e. the agent starts executing the main algorithm at global
    time ``offsets[a]``.
    """

    rounds: int
    messages_sent: int
    all_informed: bool
    skew: int
    offsets: np.ndarray


@dataclass(frozen=True)
class ClockFreeBroadcastResult:
    """Outcome of a broadcast run without the global-clock assumption."""

    success: bool
    correct_opinion: int
    n: int
    epsilon: float
    rounds: int
    messages_sent: int
    final_correct_fraction: float
    guard: int
    activation: Optional[ActivationPhaseResult]
    stage1: StageOneResult
    stage2: StageTwoResult

    @property
    def overhead_rounds(self) -> int:
        """Rounds spent beyond the two stages themselves (activation + guards)."""
        return self.rounds - (self.stage1.rounds + self.stage2.rounds)


# ----------------------------------------------------------------------
# Activation phase (Section 3.2)
# ----------------------------------------------------------------------
def run_activation_phase(
    engine: SimulationEngine,
    initially_informed: Optional[np.ndarray] = None,
    broadcast_duration: Optional[int] = None,
    reset_delay: Optional[int] = None,
) -> ActivationPhaseResult:
    """Run the clock-resetting activation phase and return per-agent offsets.

    Each informed agent broadcasts an arbitrary message (content is
    irrelevant, we send zeros) for ``broadcast_duration`` rounds after it was
    informed; an agent's clock is reset to zero ``reset_delay`` rounds after
    it first heard a message.  Defaults follow the paper: ``2 log n`` and
    ``4 log n``.

    The population's protocol state (activation flags, opinions) is *not*
    touched: being "informed" in the activation phase is separate
    bookkeeping, exactly as in the paper where activation-phase messages are
    arbitrary and carry no opinion.
    """
    n = engine.n
    if broadcast_duration is None:
        broadcast_duration = default_guard(n)
    if reset_delay is None:
        reset_delay = 2 * default_guard(n)
    if broadcast_duration < 1 or reset_delay < broadcast_duration:
        raise ParameterError("reset_delay must be at least broadcast_duration >= 1")

    if initially_informed is None:
        if engine.population.source is None:
            raise SimulationError("activation phase needs an initially informed agent")
        initially_informed = np.asarray([engine.population.source], dtype=np.int64)
    else:
        initially_informed = np.asarray(initially_informed, dtype=np.int64)
        if initially_informed.size == 0:
            raise SimulationError("activation phase needs at least one informed agent")

    start_round = engine.now
    messages_before = engine.metrics.messages_sent
    informed_at = np.full(n, -1, dtype=np.int64)
    informed_at[initially_informed] = start_round

    # The earliest clock reset happens ``reset_delay`` rounds after the start;
    # the paper argues all activation messages land before that, so we cap the
    # sending loop there.
    deadline = start_round + reset_delay
    budget = start_round + 4 * reset_delay + 32
    while engine.now < deadline:
        relative = engine.now - informed_at
        sender_mask = (informed_at >= 0) & (relative < broadcast_duration)
        senders = np.flatnonzero(sender_mask)
        if senders.size == 0:
            if np.all(informed_at >= 0):
                break
            # Nobody is broadcasting yet everyone is not informed; this can
            # only happen if the budget logic is wrong.
            raise SimulationError("activation phase stalled with dormant agents remaining")
        bits = np.zeros(senders.size, dtype=np.int8)
        report = engine.gossip_round(senders, bits)
        if report.recipients.size:
            fresh = report.recipients[informed_at[report.recipients] < 0]
            informed_at[fresh] = engine.now
        if engine.now >= budget:  # pragma: no cover - defensive
            break

    all_informed = bool(np.all(informed_at >= 0))
    # Agents that (very unlikely) were never informed behave like the latest
    # informed agent; this keeps the simulation total and is recorded via
    # ``all_informed`` so experiments can discard such trials.
    latest = int(informed_at.max()) if all_informed else int(max(informed_at.max(), start_round))
    informed_at = np.where(informed_at < 0, latest, informed_at)
    offsets = informed_at + reset_delay
    skew = int(offsets.max() - offsets.min())
    return ActivationPhaseResult(
        rounds=engine.now - start_round,
        messages_sent=engine.metrics.messages_sent - messages_before,
        all_informed=all_informed,
        skew=skew,
        offsets=offsets,
    )


# ----------------------------------------------------------------------
# Full clock-free protocol
# ----------------------------------------------------------------------
def _run_guarded_stages(
    engine: SimulationEngine,
    parameters: ProtocolParameters,
    correct_opinion: int,
    offsets: np.ndarray,
    guard: int,
    activation: Optional[ActivationPhaseResult],
) -> ClockFreeBroadcastResult:
    """Both stages on the agents' clocks, each phase behind a ``guard``-round gap."""
    stage1_schedule, stage2_schedule = guarded_schedules(parameters, guard)
    stage1 = execute_stage_one(
        engine, parameters.stage1, correct_opinion, offsets=offsets, schedule=stage1_schedule
    )
    stage2 = execute_stage_two(
        engine, parameters.stage2, correct_opinion, offsets=offsets, schedule=stage2_schedule
    )
    # The activation phase, if any, ran right before Stage I.
    activation_rounds = activation.rounds if activation else 0
    activation_messages = activation.messages_sent if activation else 0
    return ClockFreeBroadcastResult(
        success=engine.population.all_correct(correct_opinion),
        correct_opinion=correct_opinion,
        n=engine.n,
        epsilon=engine.epsilon,
        rounds=activation_rounds + stage1.rounds + stage2.rounds,
        messages_sent=activation_messages + stage1.messages_sent + stage2.messages_sent,
        final_correct_fraction=engine.population.correct_fraction(correct_opinion),
        guard=guard,
        activation=activation,
        stage1=stage1,
        stage2=stage2,
    )


class ClockFreeBroadcastProtocol:
    """Noisy broadcast without the global-clock assumption (Theorem 3.1)."""

    name = "breathe-before-speaking-clock-free"

    def __init__(self, parameters: ProtocolParameters, guard: Optional[int] = None) -> None:
        self.parameters = parameters
        self.guard = guard

    def run(self, engine: SimulationEngine, correct_opinion: int = 1) -> ClockFreeBroadcastResult:
        """Run the activation phase followed by both (guarded) stages."""
        correct_opinion = validate_opinion(correct_opinion)
        if engine.population.source is None:
            raise SimulationError("clock-free broadcast requires a source agent")
        engine.population.set_source_opinion(correct_opinion)
        activation = run_activation_phase(engine)
        guard = self.guard if self.guard is not None else max(default_guard(engine.n), activation.skew)
        return _run_guarded_stages(
            engine, self.parameters, correct_opinion, activation.offsets, guard, activation
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
    """Convenience wrapper: build an engine and run the clock-free protocol once."""
    if parameters is None:
        parameters = ProtocolParameters.calibrated(n, epsilon, **calibration_overrides)
    if parameters.n != n:
        raise SimulationError(f"parameters were built for n={parameters.n}, not n={n}")
    engine = SimulationEngine.create(n=n, epsilon=epsilon, seed=seed)
    return ClockFreeBroadcastProtocol(parameters, guard=guard).run(engine, correct_opinion)


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
    windows, which is what experiment E9 sweeps.
    """
    if max_skew < 1:
        raise ParameterError("max_skew must be at least 1")
    if parameters is None:
        parameters = ProtocolParameters.calibrated(n, epsilon, **calibration_overrides)
    if parameters.n != n:
        raise SimulationError(f"parameters were built for n={parameters.n}, not n={n}")
    engine = SimulationEngine.create(n=n, epsilon=epsilon, seed=seed)
    engine.population.set_source_opinion(correct_opinion)
    offsets = engine.random.stream("clock-skew").integers(0, max_skew, size=n).astype(np.int64)
    return _run_guarded_stages(engine, parameters, correct_opinion, offsets, max_skew, None)
