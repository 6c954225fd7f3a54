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

This module implements both steps.  The windowed executors re-implement the
per-round sending rule (an agent speaks only while its *own* clock is inside
the current phase's shifted interval) but reuse the same phase-end decision
rules as the synchronous executors, which is exactly what makes the paper's
equivalence argument go through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ParameterError, SimulationError
from ..substrate.engine import SimulationEngine
from ..substrate.metrics import PhaseRecord
from ..substrate.population import NO_OPINION
from .opinions import bias_from_counts, validate_opinion
from .parameters import ProtocolParameters
from .schedule import PhaseSchedule, build_stage1_schedule, build_stage2_schedule
from .stage1 import ReceptionAccumulator, StageOnePhaseSummary, StageOneResult
from .stage2 import SampleAccumulator, StageTwoPhaseSummary, StageTwoResult, majority_of_random_subset

__all__ = [
    "ActivationPhaseResult",
    "ClockFreeBroadcastResult",
    "default_guard",
    "run_activation_phase",
    "execute_stage_one_windowed",
    "execute_stage_two_windowed",
    "ClockFreeBroadcastProtocol",
    "run_clock_free_broadcast",
    "run_with_bounded_skew",
]


def default_guard(n: int) -> int:
    """The paper's skew bound after the activation phase: ``D = 2 log2 n`` rounds."""
    if n < 2:
        raise ParameterError("n must be at least 2")
    return 2 * int(math.ceil(math.log2(n)))


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
# Windowed (local-clock) stage executors
# ----------------------------------------------------------------------
def _idle_until(engine: SimulationEngine, target_round: int) -> None:
    while engine.now < target_round:
        engine.idle_round()


def execute_stage_one_windowed(
    engine: SimulationEngine,
    parameters,
    correct_opinion: int,
    offsets: np.ndarray,
    guard: int,
    schedule: Optional[PhaseSchedule] = None,
    start_phase: int = 0,
) -> StageOneResult:
    """Stage I where each agent follows its own clock (offset by ``offsets``).

    ``schedule`` is the *local-time* phase schedule (already dilated by
    ``guard``); when omitted it is built from ``parameters`` and dilated.
    """
    correct_opinion = validate_opinion(correct_opinion)
    offsets = np.asarray(offsets, dtype=np.int64)
    population = engine.population
    if offsets.shape != (population.size,):
        raise ParameterError("offsets must contain one entry per agent")
    if guard < int(offsets.max() - offsets.min()):
        raise ParameterError("guard must be at least the clock skew")
    if schedule is None:
        schedule = build_stage1_schedule(parameters, start_phase=start_phase).dilated(guard)

    protocol_rng = engine.protocol_rng()
    accumulator = ReceptionAccumulator(population.size)
    min_offset = int(offsets.min())
    max_offset = int(offsets.max())

    # Sending eligibility by "level": initially opinionated agents behave as
    # level ``first_phase - 1`` (they may speak from the first scheduled
    # phase onwards); agents activated in phase i get level i.
    first_phase = schedule.phases[0].index
    levels = np.full(population.size, np.iinfo(np.int32).max, dtype=np.int64)
    initially_opinionated = population.activated & (population.opinions != NO_OPINION)
    levels[initially_opinionated] = first_phase - 1

    summaries = []
    messages_at_start = engine.metrics.messages_sent
    start_round = engine.now

    for phase in schedule:
        window_start = phase.start + min_offset
        window_end = phase.end + max_offset
        _idle_until(engine, window_start)
        phase_start_round = engine.now
        messages_before = engine.metrics.messages_sent
        accumulator.reset()

        sender_count_peak = 0
        while engine.now < window_end:
            local = engine.now - offsets
            in_window = (local >= phase.start) & (local < phase.end)
            sender_mask = in_window & (levels < phase.index) & (population.opinions != NO_OPINION)
            senders = np.flatnonzero(sender_mask)
            sender_count_peak = max(sender_count_peak, int(senders.size))
            if senders.size == 0:
                engine.idle_round()
                continue
            bits = population.opinions[senders].astype(np.int8)
            report = engine.gossip_round(senders, bits, correct_opinion=correct_opinion)
            if report.recipients.size:
                dormant_mask = ~population.activated[report.recipients]
                accumulator.observe(
                    report.recipients[dormant_mask], report.bits[dormant_mask], protocol_rng
                )

        newly_heard = np.flatnonzero(accumulator.heard_anything() & ~population.activated)
        chosen_bits = accumulator.chosen_bits(newly_heard)
        population.activate(newly_heard, phase=phase.index, round_index=engine.now)
        population.set_opinions(newly_heard, chosen_bits)
        levels[newly_heard] = phase.index

        newly_correct = int(np.count_nonzero(chosen_bits == correct_opinion))
        summary = StageOnePhaseSummary(
            phase=phase.index,
            rounds=engine.now - phase_start_round,
            senders=sender_count_peak,
            activated_total=population.num_activated(),
            newly_activated=int(newly_heard.size),
            newly_correct=newly_correct,
            bias_of_new=bias_from_counts(newly_correct, int(newly_heard.size) - newly_correct),
            messages_sent=engine.metrics.messages_sent - messages_before,
        )
        summaries.append(summary)
        engine.metrics.observe_phase(
            PhaseRecord(
                stage="stage1",
                phase=phase.index,
                start_round=phase_start_round,
                end_round=engine.now,
                activated_total=summary.activated_total,
                newly_activated=summary.newly_activated,
                bias=summary.bias_of_new,
                correct_fraction=population.correct_fraction(correct_opinion),
                messages_sent=summary.messages_sent,
            )
        )

    initially_correct = population.count_opinion(correct_opinion)
    opinionated = population.num_opinionated()
    return StageOneResult(
        phases=tuple(summaries),
        rounds=engine.now - start_round,
        messages_sent=engine.metrics.messages_sent - messages_at_start,
        all_activated=population.num_activated() == population.size,
        initially_correct=initially_correct,
        initially_correct_fraction=initially_correct / population.size,
        final_bias=bias_from_counts(initially_correct, opinionated - initially_correct),
    )


def execute_stage_two_windowed(
    engine: SimulationEngine,
    parameters,
    correct_opinion: int,
    offsets: np.ndarray,
    guard: int,
    schedule: Optional[PhaseSchedule] = None,
    local_start_round: int = 0,
) -> StageTwoResult:
    """Stage II where each agent follows its own clock (offset by ``offsets``)."""
    correct_opinion = validate_opinion(correct_opinion)
    offsets = np.asarray(offsets, dtype=np.int64)
    population = engine.population
    if offsets.shape != (population.size,):
        raise ParameterError("offsets must contain one entry per agent")
    if guard < int(offsets.max() - offsets.min()):
        raise ParameterError("guard must be at least the clock skew")
    if schedule is None:
        schedule = build_stage2_schedule(parameters, start_round=local_start_round).dilated(guard)

    protocol_rng = engine.protocol_rng()
    accumulator = SampleAccumulator(population.size)
    min_offset = int(offsets.min())
    max_offset = int(offsets.max())

    summaries = []
    messages_at_start = engine.metrics.messages_sent
    start_round = engine.now

    for phase in schedule:
        subset_size = phase.length // 2
        window_start = phase.start + min_offset
        window_end = phase.end + max_offset
        _idle_until(engine, window_start)
        phase_start_round = engine.now
        messages_before = engine.metrics.messages_sent
        bias_before = population.bias(correct_opinion)

        opinions_at_start = population.opinions.copy()
        accumulator.reset()
        while engine.now < window_end:
            local = engine.now - offsets
            in_window = (local >= phase.start) & (local < phase.end)
            sender_mask = in_window & (opinions_at_start != NO_OPINION)
            senders = np.flatnonzero(sender_mask)
            if senders.size == 0:
                engine.idle_round()
                continue
            bits = opinions_at_start[senders].astype(np.int8)
            report = engine.gossip_round(senders, bits, correct_opinion=correct_opinion)
            accumulator.observe(report.recipients, report.bits)

        successful = np.flatnonzero(accumulator.totals >= subset_size)
        if successful.size:
            new_opinions = majority_of_random_subset(
                accumulator.totals[successful],
                accumulator.ones[successful],
                subset_size,
                protocol_rng,
            )
            population.set_opinions(successful, new_opinions)
            population.activate(successful, phase=phase.index, round_index=engine.now)

        summary = StageTwoPhaseSummary(
            phase=phase.index,
            rounds=engine.now - phase_start_round,
            successful_agents=int(successful.size),
            bias_before=bias_before,
            bias_after=population.bias(correct_opinion),
            correct_fraction_after=population.correct_fraction(correct_opinion),
            messages_sent=engine.metrics.messages_sent - messages_before,
        )
        summaries.append(summary)
        engine.metrics.observe_phase(
            PhaseRecord(
                stage="stage2",
                phase=phase.index,
                start_round=phase_start_round,
                end_round=engine.now,
                activated_total=population.num_activated(),
                newly_activated=0,
                bias=summary.bias_after,
                correct_fraction=summary.correct_fraction_after,
                messages_sent=summary.messages_sent,
            )
        )

    return StageTwoResult(
        phases=tuple(summaries),
        rounds=engine.now - start_round,
        messages_sent=engine.metrics.messages_sent - messages_at_start,
        final_correct_fraction=population.correct_fraction(correct_opinion),
        final_bias=population.bias(correct_opinion),
        consensus_reached=population.all_correct(correct_opinion),
    )


# ----------------------------------------------------------------------
# Full clock-free protocol
# ----------------------------------------------------------------------
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
        start_round = engine.now
        messages_at_start = engine.metrics.messages_sent

        activation = run_activation_phase(engine)
        guard = self.guard if self.guard is not None else max(default_guard(engine.n), activation.skew)

        stage1_schedule = build_stage1_schedule(self.parameters.stage1).dilated(guard)
        stage2_schedule = build_stage2_schedule(
            self.parameters.stage2, start_round=stage1_schedule.end
        ).dilated(guard)

        stage1 = execute_stage_one_windowed(
            engine,
            self.parameters.stage1,
            correct_opinion,
            offsets=activation.offsets,
            guard=guard,
            schedule=stage1_schedule,
        )
        stage2 = execute_stage_two_windowed(
            engine,
            self.parameters.stage2,
            correct_opinion,
            offsets=activation.offsets,
            guard=guard,
            schedule=stage2_schedule,
        )
        return ClockFreeBroadcastResult(
            success=engine.population.all_correct(correct_opinion),
            correct_opinion=correct_opinion,
            n=engine.n,
            epsilon=engine.epsilon,
            rounds=engine.now - start_round,
            messages_sent=engine.metrics.messages_sent - messages_at_start,
            final_correct_fraction=engine.population.correct_fraction(correct_opinion),
            guard=guard,
            activation=activation,
            stage1=stage1,
            stage2=stage2,
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

    start_round = engine.now
    messages_at_start = engine.metrics.messages_sent
    guard = max_skew
    stage1_schedule = build_stage1_schedule(parameters.stage1).dilated(guard)
    stage2_schedule = build_stage2_schedule(
        parameters.stage2, start_round=stage1_schedule.end
    ).dilated(guard)
    stage1 = execute_stage_one_windowed(
        engine, parameters.stage1, correct_opinion, offsets, guard, schedule=stage1_schedule
    )
    stage2 = execute_stage_two_windowed(
        engine, parameters.stage2, correct_opinion, offsets, guard, schedule=stage2_schedule
    )
    return ClockFreeBroadcastResult(
        success=engine.population.all_correct(correct_opinion),
        correct_opinion=correct_opinion,
        n=n,
        epsilon=epsilon,
        rounds=engine.now - start_round,
        messages_sent=engine.metrics.messages_sent - messages_at_start,
        final_correct_fraction=engine.population.correct_fraction(correct_opinion),
        guard=guard,
        activation=None,
        stage1=stage1,
        stage2=stage2,
    )
