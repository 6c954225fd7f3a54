"""Vectorised, *instrumented* stage kernels for the two-stage protocol.

This module holds the one implementation of the Stage-I and Stage-II rules
on ``(R, n)`` replicate grids — :func:`run_stage1_batch` (sender masks fixed
at phase start; each agent's messages counted per phase, and a newly
activated agent's opinion drawn once at the phase's end, a 1 with
probability ``ones / heard``; the newly activated measured per phase) and
:func:`run_stage2_batch` (the same counts plus the hypergeometric
simulation of the majority of a random subset) — and returns
replicate-vector phase summaries with the per-phase observables ``X_i`` /
``Y_i`` / ``eps_i`` (Claims 2.2–2.8) and ``delta_i`` (Lemma 2.14).  The
protocol-level simulators in :mod:`repro.exec.batching` and the stage-level
experiments (E4's phase-0 dissemination, E5's per-phase layer growth, E6's
per-phase bias boosting, E9's clock-free variants) all run these kernels: batched as one grid, serially as one replicate per trial
under the trial's own seed.  The serial executors
:func:`repro.core.stage1.execute_stage_one` /
:func:`repro.core.stage2.execute_stage_two` remain for the source-seeded,
global-clock broadcast of :func:`repro.core.broadcast.solve_noisy_broadcast`
only, on one ``(n,)`` population; late starts (Corollary 2.18), skewed clocks (Section 3) and faulty
agents exist only here.

The same two kernels run the Section-3 executors on skewed clocks: given an
``(R, n)`` grid of clock offsets and one guard-dilated schedule per
replicate, a phase runs over the global rounds in which any agent's clock
is inside it.  Its interior rounds (every clock inside) send exactly as the
synchronous loop does, and only its edge rounds compute which agents'
clocks are in the phase; with equal clocks every round is interior.  A
phase's senders and bits are fixed, so its run of interior rounds is one
``deliver_batch(..., rounds=L)`` call, which draws exactly what ``L``
one-round calls would; edge rounds, and every round under a fault
injector, are one call each.
:func:`run_bounded_skew_batch` (Section 3.1 guard windows) and
:func:`run_clock_free_batch` (Section 3.2 activation phase followed by
guarded stages) give every replicate its own clock offsets, schedule and
guard; :func:`repro.core.synchronizer.run_with_bounded_skew` and
:func:`repro.core.synchronizer.run_clock_free_broadcast` are one run of
them at ``R = 1``.

Determinism contract
--------------------
Identical to :mod:`repro.exec.batching` (see that module's docstring): a
batch is fully determined by its ``(n, epsilon, num_replicates, base_seed,
parameters)`` inputs — two identical calls return bit-identical arrays.
For the source-seeded broadcast, every *deterministic* observable (the
phase schedule, per-phase round counts, phase-0 sender counts, message
counts of schedule-fixed phases, the ``SimulationError`` raised on
unopinionated populations) is bit-identical to the serial
executors and the stochastic ones agree in distribution; the differential
tests in ``tests/unit/exec/test_stage_batching.py`` pin both halves phase
by phase.  The distributions of the serial trials these kernels replaced
are recorded in ``tests/unit/exec/test_stage_kernel_distribution.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.parameters import (
    ProtocolParameters,
    StageOneParameters,
    StageTwoParameters,
)
from ..core.opinions import NO_OPINION, counts_from_bias, opposite, validate_opinion
from ..core.schedule import PhaseSchedule, build_stage1_schedule, build_stage2_schedule
from ..core.synchronizer import default_guard, guarded_schedules
from ..errors import ExperimentError, ParameterError, SimulationError
from ..substrate.network import PushGossipNetwork
from ..substrate.noise import BinarySymmetricChannel, NoiseChannel
from ..substrate.rng import spawn_generator

__all__ = [
    "BatchState",
    "StageOnePhaseBatchSummary",
    "StageOneBatchResult",
    "StageTwoPhaseBatchSummary",
    "StageTwoBatchResult",
    "BatchWindowedResult",
    "population_bias_grid",
    "source_batch_state",
    "seeded_batch_state",
    "run_stage1_batch",
    "run_stage2_batch",
    "run_stage1_instrumented",
    "run_stage2_instrumented",
    "run_bounded_skew_batch",
    "run_clock_free_batch",
]


@dataclass
class BatchState:
    """Mutable replicate-grid state shared by every batched protocol.

    The serial executors' ``(n,)`` opinion and activation arrays, across
    ``R`` replicates at once: an ``(R, n)`` opinion grid, an ``(R, n)``
    activation grid, per-replicate message counters and the shared round
    counter.
    """

    opinions: np.ndarray
    activated: np.ndarray
    messages_sent: np.ndarray
    rounds: int = 0

    @property
    def shape(self) -> Tuple[int, int]:
        """The replicate-grid shape ``(R, n)``."""
        return self.opinions.shape


@dataclass(frozen=True)
class StageOnePhaseBatchSummary:
    """Replicate-vector counterpart of :class:`~repro.core.stage1.StageOnePhaseSummary`.

    Scalar fields (``phase``, ``rounds``) are shared by every replicate
    because the paper's schedule is deterministic; the array fields hold one
    entry per replicate, in replicate order — ``activated_total`` is the
    paper's ``X_i``, ``newly_activated`` is ``Y_i``, ``newly_correct`` is
    ``Z_i`` and ``bias_of_new`` is ``eps_i``.
    """

    phase: int
    rounds: int
    senders: np.ndarray
    activated_total: np.ndarray
    newly_activated: np.ndarray
    newly_correct: np.ndarray
    bias_of_new: np.ndarray
    messages_sent: np.ndarray


@dataclass(frozen=True)
class StageOneBatchResult:
    """Replicate-vector counterpart of :class:`~repro.core.stage1.StageOneResult`."""

    phases: Tuple[StageOnePhaseBatchSummary, ...]
    rounds: int
    messages_sent: np.ndarray
    all_activated: np.ndarray
    initially_correct: np.ndarray
    initially_correct_fraction: np.ndarray
    final_bias: np.ndarray

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R`` in the batch."""
        return int(self.messages_sent.size)

    def phase(self, index: int) -> StageOnePhaseBatchSummary:
        """Return the summary of phase ``index``."""
        for summary in self.phases:
            if summary.phase == index:
                return summary
        raise KeyError(f"no Stage-I phase {index} in this result")


@dataclass(frozen=True)
class StageTwoPhaseBatchSummary:
    """Replicate-vector counterpart of :class:`~repro.core.stage2.StageTwoPhaseSummary`.

    ``bias_before`` / ``bias_after`` are the population biases ``delta_i``
    and ``delta_{i+1}`` that the analysis of Lemma 2.14 tracks, one entry
    per replicate.
    """

    phase: int
    rounds: int
    successful_agents: np.ndarray
    bias_before: np.ndarray
    bias_after: np.ndarray
    correct_fraction_after: np.ndarray
    messages_sent: np.ndarray


@dataclass(frozen=True)
class StageTwoBatchResult:
    """Replicate-vector counterpart of :class:`~repro.core.stage2.StageTwoResult`."""

    phases: Tuple[StageTwoPhaseBatchSummary, ...]
    rounds: int
    messages_sent: np.ndarray
    final_correct_fraction: np.ndarray
    final_bias: np.ndarray
    consensus_reached: np.ndarray

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R`` in the batch."""
        return int(self.messages_sent.size)

    def phase(self, index: int) -> StageTwoPhaseBatchSummary:
        """Return the summary of phase ``index`` (1-based, as in the paper)."""
        for summary in self.phases:
            if summary.phase == index:
                return summary
        raise KeyError(f"no Stage-II phase {index} in this result")


# ----------------------------------------------------------------------
# State builders
# ----------------------------------------------------------------------


def _protocol_batch_inputs(
    n: int,
    epsilon: float,
    num_replicates: int,
    opinion: int,
    parameters: Optional[ProtocolParameters],
    channel: Optional[NoiseChannel],
    calibration_overrides: Mapping[str, float],
) -> Tuple[int, ProtocolParameters, NoiseChannel]:
    """Check and default the inputs every protocol-level batch entry point
    shares; returns ``(opinion, parameters, channel)``.

    ``parameters`` defaults to the calibrated preset for ``(n, epsilon)``
    with ``calibration_overrides`` and must have been built for ``n``;
    ``channel`` defaults to the binary symmetric channel of ``epsilon``.
    """
    if num_replicates < 1:
        raise ExperimentError("num_replicates must be at least 1")
    opinion = validate_opinion(opinion)
    if parameters is None:
        parameters = ProtocolParameters.calibrated(n, epsilon, **calibration_overrides)
    if parameters.n != n:
        raise SimulationError(f"parameters were built for n={parameters.n}, not n={n}")
    if channel is None:
        channel = BinarySymmetricChannel(epsilon=epsilon)
    return opinion, parameters, channel


def source_batch_state(n: int, num_replicates: int, correct_opinion: int) -> BatchState:
    """Broadcast-shaped initial state: agent 0 is the opinionated source.

    The population :func:`repro.core.broadcast.solve_noisy_broadcast`
    builds, replicated ``R`` times.
    """
    correct_opinion = validate_opinion(correct_opinion)
    opinions = np.full((num_replicates, n), NO_OPINION, dtype=np.int8)
    activated = np.zeros((num_replicates, n), dtype=bool)
    opinions[:, 0] = correct_opinion  # agent 0 is the source in every replicate
    activated[:, 0] = True
    return BatchState(
        opinions=opinions,
        activated=activated,
        messages_sent=np.zeros(num_replicates, dtype=np.int64),
    )


def seeded_batch_state(
    n: int,
    num_replicates: int,
    initial_set_size: int,
    majority_bias: float,
    majority_opinion: int,
    rng: np.random.Generator,
) -> BatchState:
    """Majority-shaped initial state: a random opinionated set per replicate.

    One independent instance per replicate: the first ``initial_set_size``
    columns of a random permutation are a uniformly random subset in
    uniformly random order, so giving the first ``correct_count`` of them
    the majority opinion assigns the opinions uniformly at random within
    the set.  The correct/wrong split is the deterministic
    :func:`~repro.core.opinions.counts_from_bias` split: the smallest
    number of correct members that reaches ``majority_bias``.
    """
    majority_opinion = validate_opinion(majority_opinion)
    if not 1 <= initial_set_size <= n:
        raise ParameterError(f"initial set size must be in [1, n], got {initial_set_size}")
    if majority_bias < 0:
        raise ParameterError("majority bias must be non-negative")
    R = num_replicates
    members = np.argsort(rng.random((R, n)), axis=1)[:, :initial_set_size]
    correct_count, _wrong_count = counts_from_bias(initial_set_size, majority_bias)
    member_opinions = np.full((R, initial_set_size), opposite(majority_opinion), dtype=np.int8)
    member_opinions[:, :correct_count] = majority_opinion

    opinions = np.full((R, n), NO_OPINION, dtype=np.int8)
    activated = np.zeros((R, n), dtype=bool)
    replicate_rows = np.repeat(np.arange(R), initial_set_size)
    opinions[replicate_rows, members.ravel()] = member_opinions.ravel()
    activated[replicate_rows, members.ravel()] = True
    return BatchState(
        opinions=opinions, activated=activated, messages_sent=np.zeros(R, dtype=np.int64)
    )


def population_bias_grid(opinions: np.ndarray, correct_opinion: int) -> np.ndarray:
    """Per-replicate majority-bias of the opinionated agents (Section 1.3.1).

    Grid-shaped transcription of
    :func:`repro.core.stage2.population_bias`: ``(correct - wrong) / (2 *
    opinionated)``, ``0.0`` for replicates where nobody holds an opinion
    yet.
    """
    correct = (opinions == correct_opinion).sum(axis=1)
    wrong = ((opinions != correct_opinion) & (opinions != NO_OPINION)).sum(axis=1)
    opinionated = correct + wrong
    return np.where(
        opinionated > 0, (correct - wrong) / np.maximum(2 * opinionated, 1), 0.0
    ).astype(float)


def _bias_of_new_grid(newly_correct: np.ndarray, newly_activated: np.ndarray) -> np.ndarray:
    """Vectorised :func:`~repro.core.opinions.bias_from_counts` over replicates."""
    totals = np.maximum(newly_activated, 1)
    return np.where(
        newly_activated > 0, (2 * newly_correct - newly_activated) / (2 * totals), 0.0
    ).astype(float)


# ----------------------------------------------------------------------
# Phase windows on the agents' clocks (Section 3.1)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _GridPhase:
    """One phase position of the replicates' schedules, in global rounds.

    Agent ``a`` of replicate ``r`` runs local round ``t`` at global round
    ``offsets[r, a] + t``.  ``rounds`` spans every global round in which
    some replicate's agent is inside the phase; in the ``interior`` rounds
    every agent of every replicate is.  With equal clocks the two coincide.
    """

    index: int
    length: int
    starts: np.ndarray
    ends: np.ndarray
    offsets: np.ndarray
    rounds: range
    interior: range

    def send_runs(self, eligible: np.ndarray, fuse: bool) -> Iterator[Tuple[np.ndarray, int]]:
        """Yield ``(send_mask, rounds)`` for the rounds of the phase, in order.

        Interior rounds send from every ``eligible`` agent, exactly as the
        synchronous loop does; with ``fuse`` their consecutive run is one
        item, otherwise one item per round.  Edge rounds send only from
        agents whose own clock is inside the phase, one round per item, and
        are skipped — no randomness drawn — when nobody's is.
        """
        now = self.rounds.start
        while now < self.rounds.stop:
            if now in self.interior:
                length = self.interior.stop - now if fuse else 1
                yield eligible, length
                now += length
                continue
            local = now - self.offsets
            send_mask = eligible & (local >= self.starts) & (local < self.ends)
            if send_mask.any():
                yield send_mask, 1
            now += 1


def _grid_phases(
    state: BatchState,
    schedule: PhaseSchedule,
    offsets: Optional[np.ndarray],
    schedules: Optional[Sequence[PhaseSchedule]],
) -> List[_GridPhase]:
    """The phases a stage kernel runs: ``schedule`` on equal clocks reading
    zero at ``state.rounds``, or each replicate's schedule on its clocks."""
    if offsets is None and schedules is None:
        offsets, schedules = np.full((1, 1), state.rounds, dtype=np.int64), [schedule]
    elif offsets is None or schedules is None:
        raise ParameterError("skewed clocks need both offsets and one schedule per replicate")
    else:
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.shape != state.shape or len(schedules) != state.shape[0]:
            raise ParameterError("need an (R, n) offsets grid and one schedule per replicate")
    starts = np.array([[phase.start for phase in each] for each in schedules], dtype=np.int64)
    ends = np.array([[phase.end for phase in each] for each in schedules], dtype=np.int64)
    earliest = offsets.min(axis=1, keepdims=True)
    latest = offsets.max(axis=1, keepdims=True)
    if np.any(starts[:, 1:] + earliest < ends[:, :-1] + latest):
        raise ParameterError("the guard before each phase must be at least the clock skew")
    first, last = (starts + earliest).min(axis=0), (ends + latest).max(axis=0)
    inner_first, inner_last = (starts + latest).max(axis=0), (ends + earliest).min(axis=0)
    return [
        _GridPhase(
            index=phase.index,
            length=phase.length,
            starts=starts[:, [position]],
            ends=ends[:, [position]],
            offsets=offsets,
            rounds=range(int(first[position]), int(last[position])),
            interior=range(int(inner_first[position]), int(inner_last[position])),
        )
        for position, phase in enumerate(schedules[0])
    ]


# ----------------------------------------------------------------------
# Stage I — spreading in synchronized layers (Section 2.1)
# ----------------------------------------------------------------------


class _PhaseCounts:
    """Per-phase ``(R, n)`` counts of the messages each agent heard.

    Both stage kernels keep, per agent, how many messages it accepted this
    phase (``heard``) and how many of them were 1s (``ones``), with two
    dense adds of each delivery report's totals (one report per run of
    rounds with the same senders).  Allocated once per stage run
    and wiped with ``fill`` at phase boundaries, never reallocated (the
    allocation pin in ``tests/unit/exec/test_stage_batching.py`` counts
    them).
    """

    def __init__(self, shape: Tuple[int, int]) -> None:
        # int32 takes the round's bool/int8 grids about twice as fast as
        # int64; a phase would need 2**31 rounds to overflow it.
        self.heard = np.zeros(shape, dtype=np.int32)
        self.ones = np.zeros(shape, dtype=np.int32)

    def observe(self, report) -> None:
        """Add one delivery call's accepted messages."""
        self.heard += report.heard
        self.ones += report.ones

    def reset(self) -> None:
        self.heard.fill(0)
        self.ones.fill(0)


def run_stage1_batch(
    state: BatchState,
    network: PushGossipNetwork,
    channel: NoiseChannel,
    rng: np.random.Generator,
    parameters: StageOneParameters,
    correct_opinion: int,
    start_phase: int = 0,
    faults=None,
    offsets: Optional[np.ndarray] = None,
    schedules: Optional[Sequence[PhaseSchedule]] = None,
) -> StageOneBatchResult:
    """Stage I on ``(R, n)`` grids (the serial broadcast runs
    :func:`repro.core.stage1.execute_stage_one`, the same rule on one population).

    Parameters
    ----------
    state:
        Freshly initialised replicate grids whose populations already contain
        the initially opinionated agents: the source (broadcast, phase 0) or
        the seeded set ``A`` (majority consensus, ``start_phase = i_A``).
        Mutated in place.
    network, channel, rng:
        The shared batch network, noise channel and batch-level stream.
    parameters:
        Stage-I round budget (shared by every replicate).
    correct_opinion:
        The opinion ``B`` (used only for measurement, never by agents).
    start_phase:
        First phase to execute (Corollary 2.18); must be a phase of the
        stage.
    faults:
        Optional :class:`~repro.substrate.faults.FaultInjector`.  When set
        the kernel switches to the positional resilient mode: delivery goes
        through the resilient network path and the phase-end draw of the
        newly activated agents' opinions uses a full ``(R, n)`` grid, so
        main-stream consumption is independent of the crash pattern.  With
        ``None`` the fault-free path runs.
    offsets, schedules:
        Skewed clocks (Section 3): an ``(R, n)`` grid of the global rounds
        at which each agent's clock reads zero and one local-time schedule
        per replicate (they may differ in their guards), replacing
        ``start_phase``.  By default every clock reads zero at
        ``state.rounds`` and the schedule is the synchronous one.
        ``state.rounds`` then advances by each phase's global window, and
        a replicate's own round count is its schedule's end plus its
        largest offset.

    Returns
    -------
    StageOneBatchResult
        Per-phase replicate-vector summaries plus aggregate complexities.
    """
    correct_opinion = validate_opinion(correct_opinion)
    R, n = state.shape
    opinionated_counts = (state.opinions != NO_OPINION).sum(axis=1)
    if not opinionated_counts.all():
        raise SimulationError(
            "Stage I needs at least one initially opinionated agent (source or seeded set)"
        )
    schedule = build_stage1_schedule(parameters, start_phase=start_phase)
    phases = _grid_phases(state, schedule, offsets, schedules)

    counts = _PhaseCounts((R, n))
    summaries: List[StageOnePhaseBatchSummary] = []
    messages_before = state.messages_sent.copy()
    start_round = state.rounds
    resilient = faults is not None

    for phase in phases:
        # Senders are fixed at phase start: activated and opinionated agents.
        # Newly contacted agents stay silent ("breathe") until the next phase.
        eligible = state.activated & (state.opinions != NO_OPINION)
        bits = np.where(eligible, state.opinions, 0).astype(np.int8)
        dormant = ~state.activated
        senders_per_replicate = eligible.sum(axis=1)

        counts.reset()
        for send_mask, rounds in phase.send_runs(eligible, fuse=not resilient):
            report = network.deliver_batch(
                send_mask, bits, channel, rng, faults=faults, rounds=rounds
            )
            counts.observe(report)
            state.messages_sent += report.messages_sent
        state.rounds += len(phase.rounds)

        # A newly activated agent adopts a uniformly random one of the
        # messages it heard this phase: a 1 with probability ones / heard,
        # one draw per agent at the phase's end, whatever the order the
        # messages came in (Remark 2.1).  The resilient kernel draws a full
        # (R, n) grid so consumption never depends on who was heard.
        newly = (counts.heard > 0) & dormant
        cells = np.flatnonzero(newly)
        uniforms = rng.random(R * n)[cells] if resilient else rng.random(cells.size)
        chosen = uniforms < counts.ones.reshape(-1)[cells] / counts.heard.reshape(-1)[cells]
        opinions = state.opinions.copy()
        opinions.reshape(-1)[cells] = chosen
        state.opinions = opinions
        state.activated |= newly

        newly_activated = newly.sum(axis=1)
        newly_correct = (newly & (opinions == correct_opinion)).sum(axis=1)
        summaries.append(
            StageOnePhaseBatchSummary(
                phase=phase.index,
                rounds=len(phase.rounds),
                senders=senders_per_replicate,
                activated_total=state.activated.sum(axis=1),
                newly_activated=newly_activated,
                newly_correct=newly_correct,
                bias_of_new=_bias_of_new_grid(newly_correct, newly_activated),
                messages_sent=senders_per_replicate * phase.length,
            )
        )

    initially_correct = (state.opinions == correct_opinion).sum(axis=1)
    return StageOneBatchResult(
        phases=tuple(summaries),
        rounds=state.rounds - start_round,
        messages_sent=state.messages_sent - messages_before,
        all_activated=state.activated.all(axis=1),
        initially_correct=initially_correct,
        initially_correct_fraction=initially_correct / n,
        final_bias=population_bias_grid(state.opinions, correct_opinion),
    )


# ----------------------------------------------------------------------
# Stage II — boosting by repeated noisy majorities (Section 2.2)
# ----------------------------------------------------------------------


def _majority_of_random_subset_grid(
    totals: np.ndarray,
    ones: np.ndarray,
    successful: np.ndarray,
    subset_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Grid-shaped :func:`~repro.core.stage2.majority_of_random_subset`.

    The majority of a uniformly random ``subset_size``-subset of each agent's
    samples depends on the samples only through the counts, so it is
    simulated exactly by a hypergeometric draw (Remark 2.10's
    order-invariance).  Parameters are clamped to a legal configuration at
    unsuccessful positions; those draws are discarded by the caller.
    """
    safe_ones = np.where(successful, ones, subset_size)
    safe_zeros = np.where(successful, totals - ones, 0)
    ones_in_subset = rng.hypergeometric(safe_ones, safe_zeros, subset_size)
    doubled = 2 * ones_in_subset
    majority = np.where(doubled > subset_size, 1, 0).astype(np.int8)
    ties = doubled == subset_size
    if np.any(ties):
        tie_break = rng.integers(0, 2, size=totals.shape).astype(np.int8)
        majority = np.where(ties, tie_break, majority)
    return majority


def run_stage2_batch(
    state: BatchState,
    network: PushGossipNetwork,
    channel: NoiseChannel,
    rng: np.random.Generator,
    parameters: StageTwoParameters,
    correct_opinion: int,
    faults=None,
    offsets: Optional[np.ndarray] = None,
    schedules: Optional[Sequence[PhaseSchedule]] = None,
) -> StageTwoBatchResult:
    """Stage II on ``(R, n)`` grids (the serial broadcast runs
    :func:`repro.core.stage2.execute_stage_two`, the same rule on one population).

    The population is expected to be (mostly) opinionated already.  Agents
    without an opinion do not send but still collect samples and adopt the
    majority of a random subset if they turn out successful, exactly as the
    serial executor allows — which makes the kernel usable as a standalone
    majority-consensus dynamic (experiment E6) as well.

    ``faults`` switches delivery to the resilient positional path
    (see :func:`run_stage1_batch`); the phase-end hypergeometric subset draw
    consumes a data-dependent number of variates by construction and is
    documented as outside the per-round RNG-stability guarantee (it is an
    order-invariant aggregate per Remark 2.10).  ``offsets``/``schedules``
    run the stage on skewed clocks, as in :func:`run_stage1_batch`.
    """
    correct_opinion = validate_opinion(correct_opinion)
    R, n = state.shape
    phases = _grid_phases(state, build_stage2_schedule(parameters), offsets, schedules)
    counts = _PhaseCounts((R, n))
    summaries: List[StageTwoPhaseBatchSummary] = []
    messages_before = state.messages_sent.copy()
    start_round = state.rounds
    resilient = faults is not None

    for phase in phases:
        subset_size = phase.length // 2
        bias_before = population_bias_grid(state.opinions, correct_opinion)

        # Messages sent during the phase all carry the phase-start opinion.
        snapshot = state.opinions.copy()
        eligible = snapshot != NO_OPINION
        bits = np.where(eligible, snapshot, 0).astype(np.int8)
        senders_per_replicate = eligible.sum(axis=1)

        counts.reset()
        for send_mask, rounds in phase.send_runs(eligible, fuse=not resilient):
            report = network.deliver_batch(
                send_mask, bits, channel, rng, faults=faults, rounds=rounds
            )
            counts.observe(report)
            state.messages_sent += report.messages_sent
        state.rounds += len(phase.rounds)

        totals, ones = counts.heard, counts.ones
        successful = totals >= subset_size
        majority = _majority_of_random_subset_grid(totals, ones, successful, subset_size, rng)
        state.opinions = np.where(successful, majority, state.opinions)
        state.activated |= successful

        correct_now = (state.opinions == correct_opinion).sum(axis=1)
        summaries.append(
            StageTwoPhaseBatchSummary(
                phase=phase.index,
                rounds=len(phase.rounds),
                successful_agents=successful.sum(axis=1),
                bias_before=bias_before,
                bias_after=population_bias_grid(state.opinions, correct_opinion),
                correct_fraction_after=correct_now / n,
                messages_sent=senders_per_replicate * phase.length,
            )
        )

    correct_final = (state.opinions == correct_opinion).sum(axis=1)
    return StageTwoBatchResult(
        phases=tuple(summaries),
        rounds=state.rounds - start_round,
        messages_sent=state.messages_sent - messages_before,
        final_correct_fraction=correct_final / n,
        final_bias=population_bias_grid(state.opinions, correct_opinion),
        consensus_reached=correct_final == n,
    )


# ----------------------------------------------------------------------
# Instrumented experiment entry points (E4, E5, E6)
# ----------------------------------------------------------------------


def run_stage1_instrumented(
    n: int,
    epsilon: float,
    num_replicates: int,
    base_seed: int = 0,
    correct_opinion: int = 1,
    parameters: Optional[StageOneParameters] = None,
    start_phase: int = 0,
    channel: Optional[NoiseChannel] = None,
    allow_self_messages: bool = False,
) -> StageOneBatchResult:
    """Run ``R`` independent source-seeded Stage-I executions at once.

    E4's and E5's rule: build a broadcast instance (source holds ``B``),
    run Stage I alone, and return the per-phase observables of every
    replicate (a serial trial is one replicate).  ``parameters`` defaults to
    the calibrated Stage-I preset for ``(n, epsilon)``.
    """
    if num_replicates < 1:
        raise ExperimentError("num_replicates must be at least 1")
    correct_opinion = validate_opinion(correct_opinion)
    if parameters is None:
        parameters = ProtocolParameters.calibrated(n, epsilon).stage1
    if channel is None:
        channel = BinarySymmetricChannel(epsilon=epsilon)
    rng = spawn_generator(base_seed, "batch-stage1", n)
    network = PushGossipNetwork(size=n, allow_self_messages=allow_self_messages)
    state = source_batch_state(n, num_replicates, correct_opinion)
    return run_stage1_batch(
        state, network, channel, rng, parameters, correct_opinion, start_phase=start_phase
    )


def run_stage2_instrumented(
    n: int,
    epsilon: float,
    num_replicates: int,
    initial_bias: float,
    base_seed: int = 0,
    correct_opinion: int = 1,
    parameters: Optional[StageTwoParameters] = None,
    initial_set_size: Optional[int] = None,
    channel: Optional[NoiseChannel] = None,
    allow_self_messages: bool = False,
) -> StageTwoBatchResult:
    """Run ``R`` independent bias-seeded Stage-II executions at once.

    E6's rule: seed a population at exactly the starting bias Stage I would
    deliver (every agent opinionated
    by default; pass ``initial_set_size`` for a partial set), run Stage II
    alone, and return the per-phase bias trajectory of every replicate.
    ``parameters`` defaults to the calibrated Stage-II preset.
    """
    if num_replicates < 1:
        raise ExperimentError("num_replicates must be at least 1")
    correct_opinion = validate_opinion(correct_opinion)
    if parameters is None:
        parameters = ProtocolParameters.calibrated(n, epsilon).stage2
    if channel is None:
        channel = BinarySymmetricChannel(epsilon=epsilon)
    size = n if initial_set_size is None else initial_set_size
    rng = spawn_generator(base_seed, "batch-stage2", n)
    network = PushGossipNetwork(size=n, allow_self_messages=allow_self_messages)
    state = seeded_batch_state(n, num_replicates, size, initial_bias, correct_opinion, rng)
    return run_stage2_batch(state, network, channel, rng, parameters, correct_opinion)


# ----------------------------------------------------------------------
# Section 3 — batched clock-free executors (experiment E9)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchWindowedResult:
    """Per-replicate outcomes of a batched Section-3 (local-clock) broadcast.

    Unlike the synchronous batch results, ``rounds`` is a vector: each
    replicate's schedule is dilated by its own guard and shifted by its own
    clock offsets, so replicates finish at different global rounds.

    Attributes
    ----------
    variant:
        ``"bounded-skew"`` (Section 3.1) or ``"clock-free"`` (Section 3.2).
    n, epsilon, correct_opinion:
        The shared instance parameters.
    rounds, messages_sent:
        ``(R,)`` complexity actually incurred per replicate (activation
        phase included for the clock-free variant).
    success, final_correct_fraction:
        ``(R,)`` end-state outcome per replicate.
    guard, skew:
        ``(R,)`` the guard each replicate's schedule was dilated by and the
        realised clock skew (``offsets.max() - offsets.min()``).
    activation_rounds, activation_all_informed:
        ``(R,)`` activation-phase cost and outcome (zeros / all-true for the
        bounded-skew variant, which runs no activation phase).
    """

    variant: str
    n: int
    epsilon: float
    correct_opinion: int
    rounds: np.ndarray
    messages_sent: np.ndarray
    success: np.ndarray
    final_correct_fraction: np.ndarray
    guard: np.ndarray
    skew: np.ndarray
    activation_rounds: np.ndarray
    activation_all_informed: np.ndarray

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R`` in the batch."""
        return int(self.rounds.size)

    def measurements(self, index: int) -> dict:
        """Replicate ``index`` as a trial-measurement mapping.

        The keys E9 reads (``rounds``, ``messages``, ``success``) plus the
        replicate's ``skew``, ``guard`` and activation outcome.
        """
        return {
            "rounds": int(self.rounds[index]),
            "messages": int(self.messages_sent[index]),
            "success": bool(self.success[index]),
            "skew": int(self.skew[index]),
            "guard": int(self.guard[index]),
            "all_informed": bool(self.activation_all_informed[index]),
        }


def _run_activation_phase_batch(
    n: int,
    num_replicates: int,
    network: PushGossipNetwork,
    channel: NoiseChannel,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Section 3.2's activation phase on ``(R, n)`` grids.

    The paper's defaults: an informed agent broadcasts an arbitrary message
    (zeros) for ``2 log n`` rounds after being informed, and resets its
    clock ``4 log n`` rounds after it first heard a message.  Activation
    messages carry no opinion, so the replicates' protocol state is not
    touched.  Replicates whose informed set stops broadcasting with everyone
    informed stop early; a replicate that stalls with dormant agents
    remaining raises :class:`~repro.errors.SimulationError`.

    Returns ``(offsets, rounds, messages, all_informed)`` where ``offsets``
    is the ``(R, n)`` grid of global rounds at which each agent's reset
    clock reads zero.
    """
    broadcast_duration = default_guard(n)
    reset_delay = 2 * default_guard(n)
    R = num_replicates

    informed_at = np.full((R, n), -1, dtype=np.int64)
    informed_at[:, 0] = 0  # agent 0 is the (initially informed) source
    messages = np.zeros(R, dtype=np.int64)
    rounds = np.zeros(R, dtype=np.int64)
    alive = np.ones(R, dtype=bool)
    zeros_bits = np.zeros((R, n), dtype=np.int8)

    for now in range(reset_delay):
        relative = now - informed_at
        send_mask = (informed_at >= 0) & (relative < broadcast_duration) & alive[:, None]
        has_senders = send_mask.any(axis=1)
        fully_informed = (informed_at >= 0).all(axis=1)
        finished = alive & ~has_senders & fully_informed
        alive &= ~finished
        if np.any(alive & ~has_senders):
            # Nobody is broadcasting yet not everyone is informed: the
            # budget logic would be wrong.
            raise SimulationError("activation phase stalled with dormant agents remaining")
        if not alive.any():
            break
        report = network.deliver_batch(send_mask, zeros_bits, channel, rng)
        fresh = report.accepted & (informed_at < 0)
        informed_at = np.where(fresh, now + 1, informed_at)
        messages += send_mask.sum(axis=1)
        rounds += alive

    all_informed = (informed_at >= 0).all(axis=1)
    # Agents that (very unlikely) were never informed behave like the latest
    # informed agent, which keeps the run total; ``all_informed`` records it
    # so experiments can discard such trials.
    latest = np.maximum(informed_at.max(axis=1), 0)
    informed_at = np.where(informed_at < 0, latest[:, None], informed_at)
    offsets = informed_at + reset_delay
    return offsets, rounds, messages, all_informed


def _run_windowed_broadcast_batch(
    variant: str,
    n: int,
    epsilon: float,
    num_replicates: int,
    rng: np.random.Generator,
    offsets: np.ndarray,
    guards: np.ndarray,
    parameters: ProtocolParameters,
    channel: NoiseChannel,
    allow_self_messages: bool,
    correct_opinion: int,
    activation_rounds: np.ndarray,
    activation_messages: np.ndarray,
    activation_all_informed: np.ndarray,
) -> BatchWindowedResult:
    """Shared tail of the two Section-3 batch entry points: guarded stages.

    Builds each replicate's guard-dilated schedules, runs both stage kernels
    on the replicates' clocks and assembles the result.  ``rounds`` per replicate is the end of
    its Stage-II schedule plus its largest offset — where the last agent's
    clock leaves the schedule — with the activation rounds already inside that
    span for the clock-free variant (offsets are absolute global rounds).
    """
    network = PushGossipNetwork(size=n, allow_self_messages=allow_self_messages)
    state = source_batch_state(n, num_replicates, correct_opinion)
    state.messages_sent += activation_messages

    stage1_schedules, stage2_schedules = zip(
        *(guarded_schedules(parameters, guard) for guard in guards.tolist())
    )
    run_stage1_batch(
        state, network, channel, rng, parameters.stage1, correct_opinion,
        offsets=offsets, schedules=stage1_schedules,
    )
    run_stage2_batch(
        state, network, channel, rng, parameters.stage2, correct_opinion,
        offsets=offsets, schedules=stage2_schedules,
    )

    max_offset = offsets.max(axis=1)
    rounds = (
        np.array([schedule.end for schedule in stage2_schedules], dtype=np.int64) + max_offset
    )
    correct_final = (state.opinions == correct_opinion).sum(axis=1)
    return BatchWindowedResult(
        variant=variant,
        n=n,
        epsilon=float(epsilon),
        correct_opinion=int(correct_opinion),
        rounds=rounds,
        messages_sent=state.messages_sent,
        success=correct_final == n,
        final_correct_fraction=correct_final / n,
        guard=guards,
        skew=(max_offset - offsets.min(axis=1)).astype(np.int64),
        activation_rounds=activation_rounds,
        activation_all_informed=activation_all_informed,
    )


def run_bounded_skew_batch(
    n: int,
    epsilon: float,
    num_replicates: int,
    max_skew: int,
    base_seed: int = 0,
    correct_opinion: int = 1,
    parameters: Optional[ProtocolParameters] = None,
    channel: Optional[NoiseChannel] = None,
    allow_self_messages: bool = False,
    **calibration_overrides: float,
) -> BatchWindowedResult:
    """Simulate ``R`` independent bounded-skew broadcasts at once (Section 3.1).

    :func:`repro.core.synchronizer.run_with_bounded_skew` is one run of it
    at ``R = 1``.  Every replicate draws its own per-agent clock offsets
    uniformly from ``[0, max_skew)``, no activation phase is run, and both
    stages execute inside guard-dilated windows with ``guard = max_skew`` —
    isolating the cost of the per-phase guard windows, which is what
    experiment E9 sweeps.
    """
    correct_opinion, parameters, channel = _protocol_batch_inputs(
        n, epsilon, num_replicates, correct_opinion, parameters, channel, calibration_overrides
    )
    if max_skew < 1:
        raise ParameterError("max_skew must be at least 1")

    rng = spawn_generator(base_seed, "batch-bounded-skew", n)
    R = num_replicates
    offsets = rng.integers(0, max_skew, size=(R, n)).astype(np.int64)
    guards = np.full(R, max_skew, dtype=np.int64)
    return _run_windowed_broadcast_batch(
        "bounded-skew",
        n,
        epsilon,
        R,
        rng,
        offsets,
        guards,
        parameters,
        channel,
        allow_self_messages,
        correct_opinion,
        activation_rounds=np.zeros(R, dtype=np.int64),
        activation_messages=np.zeros(R, dtype=np.int64),
        activation_all_informed=np.ones(R, dtype=bool),
    )


def run_clock_free_batch(
    n: int,
    epsilon: float,
    num_replicates: int,
    base_seed: int = 0,
    correct_opinion: int = 1,
    parameters: Optional[ProtocolParameters] = None,
    guard: Optional[int] = None,
    channel: Optional[NoiseChannel] = None,
    allow_self_messages: bool = False,
    **calibration_overrides: float,
) -> BatchWindowedResult:
    """Simulate ``R`` independent clock-free broadcasts at once (Section 3.2).

    :func:`repro.core.synchronizer.run_clock_free_broadcast` is one run of
    it at ``R = 1``.  Every replicate runs the activation phase (clock offsets emerge from when each
    agent first heard a message), then both stages inside windows dilated by
    ``max(2 log2 n, realised skew)`` (or ``guard`` when given) — each
    replicate gets its own guard.
    """
    correct_opinion, parameters, channel = _protocol_batch_inputs(
        n, epsilon, num_replicates, correct_opinion, parameters, channel, calibration_overrides
    )

    rng = spawn_generator(base_seed, "batch-clock-free", n)
    R = num_replicates
    activation_network = PushGossipNetwork(size=n, allow_self_messages=allow_self_messages)
    offsets, activation_rounds, activation_messages, all_informed = _run_activation_phase_batch(
        n, R, activation_network, channel, rng
    )
    if guard is not None:
        guards = np.full(R, guard, dtype=np.int64)
    else:
        skew = offsets.max(axis=1) - offsets.min(axis=1)
        guards = np.maximum(default_guard(n), skew).astype(np.int64)
    return _run_windowed_broadcast_batch(
        "clock-free",
        n,
        epsilon,
        R,
        rng,
        offsets,
        guards,
        parameters,
        channel,
        allow_self_messages,
        correct_opinion,
        activation_rounds=activation_rounds,
        activation_messages=activation_messages,
        activation_all_informed=all_informed,
    )
