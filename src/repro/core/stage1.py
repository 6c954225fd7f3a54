"""Stage I — spreading the information in synchronized layers (Section 2.1).

The rule of Stage I (quoted from the paper):

    Consider an activated agent ``a`` of level ``i``.  Agent ``a`` waits until
    phase ``i + 1`` starts before sending any message.  During phase ``i`` it
    collects all messages it heard in the phase, chooses one of them uniformly
    at random, and sets its initial opinion ``B0(a)`` to be the opinion it
    heard in that message.  The agent then sends its initial opinion in each
    round during phases ``i+1, ..., T+1``.

The executor below implements that rule vectorised over the whole
population.  The "choose one of the messages uniformly at random" step
depends on an agent's messages only through two counts, how many it heard
and how many of them were 1s: the chosen message is a 1 with probability
``ones / heard``.  The executor therefore counts during the phase and makes
one draw per newly activated agent at its end, which (a) needs O(1) memory
per agent and (b) makes the choice independent of the order in which
messages arrive — exactly the property Remark 2.1 asks for, and which
Section 3 relies on when the global clock is removed.

This executor runs the source-seeded broadcast on plain ``(n,)`` opinion and
activation arrays, from phase 0 on the global clock, one
:meth:`~repro.substrate.network.PushGossipNetwork.deliver` call per round.
Late starts (Corollary 2.18), skewed clocks (Section 3) and faulty agents
run on the ``(R, n)`` kernel :func:`repro.exec.stage_batching.run_stage1_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import SimulationError
from ..substrate.network import PushGossipNetwork
from ..substrate.noise import NoiseChannel
from ..substrate.rng import RandomSource
from .opinions import NO_OPINION, bias_from_counts, validate_opinion
from .parameters import StageOneParameters
from .schedule import build_stage1_schedule

__all__ = ["StageOnePhaseSummary", "StageOneResult", "ReceptionAccumulator", "execute_stage_one"]


@dataclass(frozen=True)
class StageOnePhaseSummary:
    """Per-phase observables matching the paper's notation.

    ``activated_total`` is the paper's ``X_i`` (agents activated by the end of
    phase ``i``), ``newly_activated`` is ``Y_i``, ``newly_correct`` is ``Z_i``
    and ``bias_of_new`` is ``eps_i`` with ``Z_i = (1/2 + eps_i) Y_i``.
    """

    phase: int
    rounds: int
    senders: int
    activated_total: int
    newly_activated: int
    newly_correct: int
    bias_of_new: float
    messages_sent: int


@dataclass(frozen=True)
class StageOneResult:
    """Outcome of a full Stage-I execution."""

    phases: Tuple[StageOnePhaseSummary, ...]
    rounds: int
    messages_sent: int
    all_activated: bool
    initially_correct: int
    initially_correct_fraction: float
    final_bias: float

    def phase(self, index: int) -> StageOnePhaseSummary:
        """Return the summary of phase ``index``."""
        for summary in self.phases:
            if summary.phase == index:
                return summary
        raise KeyError(f"no Stage-I phase {index} in this result")


class ReceptionAccumulator:
    """Per-agent counts of the messages heard during one Stage-I phase.

    For every agent the accumulator keeps how many messages it heard this
    phase and how many of them were 1s.  A uniformly random one of those
    messages is a 1 with probability ``ones / heard``, so
    :meth:`chosen_bits` draws each agent's choice with one uniform at the
    phase's end.
    """

    def __init__(self, size: int) -> None:
        self._counts = np.zeros(size, dtype=np.int64)
        self._ones = np.zeros(size, dtype=np.int64)

    def observe(self, recipients: np.ndarray, bits: np.ndarray) -> None:
        """Record one round's accepted messages for ``recipients`` (no repeats)."""
        self._counts[recipients] += 1
        self._ones[recipients] += bits

    def heard_anything(self) -> np.ndarray:
        """Boolean mask of agents that heard at least one message this phase."""
        return self._counts > 0

    def chosen_bits(self, agents: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """A uniformly random message of each agent in ``agents``, one draw each."""
        counts = self._counts[agents]
        if counts.size and counts.min() == 0:
            raise SimulationError("requested chosen bit of an agent that heard nothing")
        return (rng.random(counts.size) < self._ones[agents] / counts).astype(np.int8)

    def reset(self) -> None:
        """Clear the accumulator for the next phase."""
        self._counts.fill(0)
        self._ones.fill(0)


def execute_stage_one(
    opinions: np.ndarray,
    activated: np.ndarray,
    parameters: StageOneParameters,
    correct_opinion: int,
    channel: NoiseChannel,
    streams: RandomSource,
) -> StageOneResult:
    """Run Stage I of the protocol from phase 0, updating the population in place.

    Parameters
    ----------
    opinions, activated:
        The population: an ``int8`` opinion per agent (``NO_OPINION`` when it
        has none) and a ``bool`` activation flag per agent.  The initially
        opinionated agents (the source) must be activated already.
    parameters:
        Stage-I round budget.
    correct_opinion:
        The opinion ``B`` (used only for measurement, never by agents).
    channel, streams:
        Noise of every delivered message, and the run's random streams:
        ``"delivery"`` feeds :meth:`PushGossipNetwork.deliver`, ``"protocol"``
        the phase-end choices.

    Returns
    -------
    StageOneResult
        Per-phase summaries plus aggregate complexities.
    """
    correct_opinion = validate_opinion(correct_opinion)
    size = opinions.size
    network = PushGossipNetwork(size=size)
    delivery_rng = streams.stream("delivery")
    protocol_rng = streams.stream("protocol")
    accumulator = ReceptionAccumulator(size)

    if not np.any(opinions != NO_OPINION):
        raise SimulationError(
            "Stage I needs at least one initially opinionated agent (source or seeded set)"
        )

    summaries = []
    for phase in build_stage1_schedule(parameters):
        # Agents that speak during this phase: everyone already activated
        # *and* opinionated when the phase starts.  Newly contacted agents
        # stay silent ("breathe") until the next phase.
        senders = np.flatnonzero(activated & (opinions != NO_OPINION))
        sender_bits = opinions[senders]

        accumulator.reset()
        for _ in range(phase.length):
            report = network.deliver(senders, sender_bits, channel, delivery_rng)
            accumulator.observe(report.recipients, report.bits)

        newly_heard = np.flatnonzero(accumulator.heard_anything() & ~activated)
        chosen_bits = accumulator.chosen_bits(newly_heard, protocol_rng)
        activated[newly_heard] = True
        opinions[newly_heard] = chosen_bits

        newly_correct = int(np.count_nonzero(chosen_bits == correct_opinion))
        summaries.append(
            StageOnePhaseSummary(
                phase=phase.index,
                rounds=phase.length,
                senders=int(senders.size),
                activated_total=int(np.count_nonzero(activated)),
                newly_activated=int(newly_heard.size),
                newly_correct=newly_correct,
                bias_of_new=bias_from_counts(newly_correct, int(newly_heard.size) - newly_correct),
                messages_sent=int(senders.size) * phase.length,
            )
        )

    initially_correct = int(np.count_nonzero(opinions == correct_opinion))
    wrong = int(np.count_nonzero(opinions != NO_OPINION)) - initially_correct
    return StageOneResult(
        phases=tuple(summaries),
        rounds=sum(summary.rounds for summary in summaries),
        messages_sent=sum(summary.messages_sent for summary in summaries),
        all_activated=bool(activated.all()),
        initially_correct=initially_correct,
        initially_correct_fraction=initially_correct / size,
        final_bias=bias_from_counts(initially_correct, wrong),
    )
