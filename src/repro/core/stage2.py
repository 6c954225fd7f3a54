"""Stage II — boosting the bias by repeated noisy majorities (Section 2.2).

The rule of Stage II (quoted from the paper):

    For each round in each phase ``i``, ``1 <= i <= k + 1``, each agent
    repeatedly sends out its current opinion.  [...]  At the end of each
    phase, a successful agent ``a`` (one that received at least ``m_i / 2``
    messages during the phase) selects uniformly at random a subset of
    exactly ``m_i / 2`` of its samples and updates its opinion to the
    majority opinion in that subset.  An unsuccessful agent does not change
    its opinion during the phase.

Implementation notes
--------------------
* Opinions only change at phase boundaries, so all messages an agent sends
  during a phase carry the *phase-start* opinion; the executor snapshots the
  opinion vector at the start of every phase.
* "Majority of a uniformly random subset of exactly ``h`` samples" depends on
  an agent's samples only through the counts (total, number of ones), so it
  is simulated exactly by drawing the number of ones in the subset from a
  hypergeometric distribution.  This is both faster and order-invariant,
  which is the property Remark 2.10 requires for the Section-3 argument.
* This executor runs on one engine on the global clock.  Skewed clocks
  (Section 3), seeded populations and faulty agents run on the ``(R, n)``
  kernel :func:`repro.exec.stage_batching.run_stage2_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..substrate.engine import SimulationEngine
from ..substrate.metrics import PhaseRecord
from ..substrate.population import NO_OPINION
from .opinions import validate_opinion
from .parameters import StageTwoParameters
from .schedule import build_stage2_schedule

__all__ = [
    "StageTwoPhaseSummary",
    "StageTwoResult",
    "SampleAccumulator",
    "majority_of_random_subset",
    "execute_stage_two",
]


@dataclass(frozen=True)
class StageTwoPhaseSummary:
    """Per-phase observables of Stage II.

    ``bias_before``/``bias_after`` are the population biases ``delta_i`` and
    ``delta_{i+1}`` the analysis of Lemma 2.14 tracks.
    """

    phase: int
    rounds: int
    successful_agents: int
    bias_before: float
    bias_after: float
    correct_fraction_after: float
    messages_sent: int


@dataclass(frozen=True)
class StageTwoResult:
    """Outcome of a full Stage-II execution."""

    phases: Tuple[StageTwoPhaseSummary, ...]
    rounds: int
    messages_sent: int
    final_correct_fraction: float
    final_bias: float
    consensus_reached: bool

    def phase(self, index: int) -> StageTwoPhaseSummary:
        """Return the summary of phase ``index`` (1-based, as in the paper)."""
        for summary in self.phases:
            if summary.phase == index:
                return summary
        raise KeyError(f"no Stage-II phase {index} in this result")


class SampleAccumulator:
    """Counts of samples (and of 1-samples) each agent collected in a phase."""

    def __init__(self, size: int) -> None:
        self._total = np.zeros(size, dtype=np.int64)
        self._ones = np.zeros(size, dtype=np.int64)

    def observe(self, recipients: np.ndarray, bits: np.ndarray) -> None:
        """Record one round's accepted messages."""
        if recipients.size == 0:
            return
        self._total[recipients] += 1
        self._ones[recipients] += bits.astype(np.int64)

    @property
    def totals(self) -> np.ndarray:
        """Per-agent number of samples collected this phase."""
        return self._total

    @property
    def ones(self) -> np.ndarray:
        """Per-agent number of 1-valued samples collected this phase."""
        return self._ones

    def reset(self) -> None:
        """Clear the accumulator for the next phase."""
        self._total.fill(0)
        self._ones.fill(0)


def majority_of_random_subset(
    totals: np.ndarray,
    ones: np.ndarray,
    subset_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Majority opinion of a uniformly random ``subset_size``-subset of each agent's samples.

    Parameters
    ----------
    totals, ones:
        Per-agent sample counts; every entry must satisfy
        ``totals >= subset_size`` and ``ones <= totals``.
    subset_size:
        The paper's ``m_i / 2``.
    rng:
        Randomness for the hypergeometric draws and for breaking ties (ties
        can only occur when ``subset_size`` is even).

    Returns
    -------
    numpy.ndarray
        One opinion (0 or 1) per agent.
    """
    totals = np.asarray(totals, dtype=np.int64)
    ones = np.asarray(ones, dtype=np.int64)
    if totals.size == 0:
        return np.empty(0, dtype=np.int8)
    zeros = totals - ones
    ones_in_subset = rng.hypergeometric(ones, zeros, subset_size)
    doubled = 2 * ones_in_subset
    result = np.where(doubled > subset_size, 1, 0).astype(np.int8)
    ties = doubled == subset_size
    if np.any(ties):
        result[ties] = rng.integers(0, 2, size=int(np.count_nonzero(ties))).astype(np.int8)
    return result


def execute_stage_two(
    engine: SimulationEngine,
    parameters: StageTwoParameters,
    correct_opinion: int,
) -> StageTwoResult:
    """Run Stage II of the protocol on ``engine``.

    The population is expected to be (mostly) opinionated already — Stage I
    ends with all agents activated w.h.p.  Agents without an opinion do not
    send but still collect samples and adopt the majority of a random subset
    if they turn out successful.
    """
    correct_opinion = validate_opinion(correct_opinion)
    population = engine.population
    protocol_rng = engine.protocol_rng()
    accumulator = SampleAccumulator(population.size)

    summaries = []
    messages_at_start = engine.metrics.messages_sent
    start_round = engine.now

    for phase in build_stage2_schedule(parameters):
        subset_size = phase.length // 2
        messages_before = engine.metrics.messages_sent
        phase_start = engine.now
        bias_before = population.bias(correct_opinion)

        # Messages sent during the phase all carry the phase-start opinion.
        opinions_at_start = population.opinions.copy()
        senders = np.flatnonzero(opinions_at_start != NO_OPINION)
        sender_bits = opinions_at_start[senders].astype(np.int8)

        accumulator.reset()
        for _ in range(phase.length):
            report = engine.gossip_round(senders, sender_bits, correct_opinion=correct_opinion)
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

        bias_after = population.bias(correct_opinion)
        correct_fraction = population.correct_fraction(correct_opinion)
        messages_in_phase = engine.metrics.messages_sent - messages_before
        summary = StageTwoPhaseSummary(
            phase=phase.index,
            rounds=phase.length,
            successful_agents=int(successful.size),
            bias_before=bias_before,
            bias_after=bias_after,
            correct_fraction_after=correct_fraction,
            messages_sent=messages_in_phase,
        )
        summaries.append(summary)
        engine.metrics.observe_phase(
            PhaseRecord(
                stage="stage2",
                phase=phase.index,
                start_round=phase_start,
                end_round=engine.now,
                activated_total=population.num_activated(),
                newly_activated=0,
                bias=bias_after,
                correct_fraction=correct_fraction,
                messages_sent=messages_in_phase,
            )
        )
        engine.trace.record(engine.now, "stage2_phase_end", phase=phase.index, bias=bias_after)

    final_correct_fraction = population.correct_fraction(correct_opinion)
    return StageTwoResult(
        phases=tuple(summaries),
        rounds=engine.now - start_round,
        messages_sent=engine.metrics.messages_sent - messages_at_start,
        final_correct_fraction=final_correct_fraction,
        final_bias=population.bias(correct_opinion),
        consensus_reached=population.all_correct(correct_opinion),
    )
