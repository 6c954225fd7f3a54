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
  during a phase carry the *phase-start* opinion; the executor fixes the
  senders and their bits at the start of every phase.
* "Majority of a uniformly random subset of exactly ``h`` samples" depends on
  an agent's samples only through the counts (total, number of ones), so it
  is simulated exactly by drawing the number of ones in the subset from a
  hypergeometric distribution.  This is both faster and order-invariant,
  which is the property Remark 2.10 requires for the Section-3 argument.
* This executor runs on a plain ``(n,)`` opinion array on the global clock,
  one :meth:`~repro.substrate.network.PushGossipNetwork.deliver` call per
  round.  Skewed clocks (Section 3), seeded populations and faulty agents
  run on the ``(R, n)`` kernel
  :func:`repro.exec.stage_batching.run_stage2_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..substrate.network import PushGossipNetwork
from ..substrate.noise import NoiseChannel
from ..substrate.rng import RandomSource
from .opinions import NO_OPINION, bias_from_counts, validate_opinion
from .parameters import StageTwoParameters
from .schedule import build_stage2_schedule

__all__ = [
    "StageTwoPhaseSummary",
    "StageTwoResult",
    "SampleAccumulator",
    "majority_of_random_subset",
    "population_bias",
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


def population_bias(opinions: np.ndarray, correct_opinion: int) -> float:
    """Majority-bias of the opinionated agents towards ``correct_opinion`` (Section 1.3.1)."""
    correct = int(np.count_nonzero(opinions == correct_opinion))
    return bias_from_counts(correct, int(np.count_nonzero(opinions != NO_OPINION)) - correct)


def execute_stage_two(
    opinions: np.ndarray,
    parameters: StageTwoParameters,
    correct_opinion: int,
    channel: NoiseChannel,
    streams: RandomSource,
) -> StageTwoResult:
    """Run Stage II of the protocol, updating the ``int8`` ``opinions`` in place.

    The population is expected to be (mostly) opinionated already — Stage I
    ends with all agents activated w.h.p.  Agents without an opinion
    (``NO_OPINION``) do not send but still collect samples and adopt the
    majority of a random subset if they turn out successful.  ``channel`` and
    ``streams`` are as for :func:`repro.core.stage1.execute_stage_one`.
    """
    correct_opinion = validate_opinion(correct_opinion)
    size = opinions.size
    network = PushGossipNetwork(size=size)
    delivery_rng = streams.stream("delivery")
    protocol_rng = streams.stream("protocol")
    accumulator = SampleAccumulator(size)

    summaries = []
    for phase in build_stage2_schedule(parameters):
        subset_size = phase.length // 2
        bias_before = population_bias(opinions, correct_opinion)

        # Opinions change only at the phase's end, so every message sent
        # during the phase carries the phase-start opinion.
        senders = np.flatnonzero(opinions != NO_OPINION)
        sender_bits = opinions[senders]

        accumulator.reset()
        for _ in range(phase.length):
            report = network.deliver(senders, sender_bits, channel, delivery_rng)
            accumulator.observe(report.recipients, report.bits)

        successful = np.flatnonzero(accumulator.totals >= subset_size)
        if successful.size:
            opinions[successful] = majority_of_random_subset(
                accumulator.totals[successful],
                accumulator.ones[successful],
                subset_size,
                protocol_rng,
            )

        summaries.append(
            StageTwoPhaseSummary(
                phase=phase.index,
                rounds=phase.length,
                successful_agents=int(successful.size),
                bias_before=bias_before,
                bias_after=population_bias(opinions, correct_opinion),
                correct_fraction_after=int(np.count_nonzero(opinions == correct_opinion)) / size,
                messages_sent=int(senders.size) * phase.length,
            )
        )

    return StageTwoResult(
        phases=tuple(summaries),
        rounds=sum(summary.rounds for summary in summaries),
        messages_sent=sum(summary.messages_sent for summary in summaries),
        final_correct_fraction=int(np.count_nonzero(opinions == correct_opinion)) / size,
        final_bias=population_bias(opinions, correct_opinion),
        consensus_reached=bool(np.all(opinions == correct_opinion)),
    )
