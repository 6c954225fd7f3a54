"""Stage I — spreading the information in synchronized layers (Section 2.1).

The rule of Stage I (quoted from the paper):

    Consider an activated agent ``a`` of level ``i``.  Agent ``a`` waits until
    phase ``i + 1`` starts before sending any message.  During phase ``i`` it
    collects all messages it heard in the phase, chooses one of them uniformly
    at random, and sets its initial opinion ``B0(a)`` to be the opinion it
    heard in that message.  The agent then sends its initial opinion in each
    round during phases ``i+1, ..., T+1``.

The executor below implements that rule vectorised over the whole
population.  The "choose one of the messages uniformly at random" step is
realised with per-agent reservoir sampling, which (a) needs O(1) memory per
agent and (b) makes the choice independent of the order in which messages
arrive — exactly the property Remark 2.1 asks for, and which Section 3 relies
on when the global clock is removed.

This executor runs the source-seeded broadcast on one engine, from phase 0
on the global clock.  Late starts (Corollary 2.18), skewed clocks
(Section 3) and faulty agents run on the ``(R, n)`` kernel
:func:`repro.exec.stage_batching.run_stage1_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import SimulationError
from ..substrate.engine import SimulationEngine
from ..substrate.metrics import PhaseRecord
from ..substrate.population import NO_OPINION
from .opinions import bias_from_counts, validate_opinion
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
    """Per-agent reservoir of the messages heard during one Stage-I phase.

    For every agent the accumulator keeps (a) how many messages it heard this
    phase and (b) one uniformly random message among them, maintained online
    via reservoir sampling: the ``m``-th message heard replaces the current
    choice with probability ``1/m``.
    """

    def __init__(self, size: int) -> None:
        self._counts = np.zeros(size, dtype=np.int64)
        self._chosen = np.full(size, NO_OPINION, dtype=np.int8)

    def observe(
        self, recipients: np.ndarray, bits: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Record one round's accepted messages for ``recipients``."""
        if recipients.size == 0:
            return
        self._counts[recipients] += 1
        replace = rng.random(recipients.size) < 1.0 / self._counts[recipients]
        current = self._chosen[recipients]
        self._chosen[recipients] = np.where(replace, bits, current).astype(np.int8)

    def heard_anything(self) -> np.ndarray:
        """Boolean mask of agents that heard at least one message this phase."""
        return self._counts > 0

    def chosen_bits(self, agents: np.ndarray) -> np.ndarray:
        """The uniformly random chosen message of each agent in ``agents``."""
        bits = self._chosen[agents]
        if bits.size and bits.min() < 0:
            raise SimulationError("requested chosen bit of an agent that heard nothing")
        return bits

    def reset(self) -> None:
        """Clear the accumulator for the next phase."""
        self._counts.fill(0)
        self._chosen.fill(NO_OPINION)


def execute_stage_one(
    engine: SimulationEngine,
    parameters: StageOneParameters,
    correct_opinion: int,
) -> StageOneResult:
    """Run Stage I of the protocol on ``engine``, from phase 0.

    Parameters
    ----------
    engine:
        A freshly initialised simulation whose population already contains
        the initially opinionated source.
    parameters:
        Stage-I round budget.
    correct_opinion:
        The opinion ``B`` (used only for measurement, never by agents).

    Returns
    -------
    StageOneResult
        Per-phase summaries plus aggregate complexities.
    """
    correct_opinion = validate_opinion(correct_opinion)
    population = engine.population
    protocol_rng = engine.protocol_rng()
    accumulator = ReceptionAccumulator(population.size)

    if population.num_opinionated() == 0:
        raise SimulationError(
            "Stage I needs at least one initially opinionated agent (source or seeded set)"
        )

    summaries = []
    total_messages_before = engine.metrics.messages_sent
    start_round = engine.now

    for phase in build_stage1_schedule(parameters):
        messages_before = engine.metrics.messages_sent
        phase_start = engine.now

        # Agents that speak during this phase: everyone already activated
        # *and* opinionated when the phase starts.  Newly contacted agents
        # stay silent ("breathe") until the next phase.
        sender_mask = population.activated & (population.opinions != NO_OPINION)
        senders = np.flatnonzero(sender_mask)
        sender_bits = population.opinions[senders].astype(np.int8)

        accumulator.reset()
        for _ in range(phase.length):
            report = engine.gossip_round(senders, sender_bits, correct_opinion=correct_opinion)
            if report.recipients.size:
                dormant_mask = ~population.activated[report.recipients]
                accumulator.observe(
                    report.recipients[dormant_mask], report.bits[dormant_mask], protocol_rng
                )

        newly_heard = np.flatnonzero(accumulator.heard_anything() & ~population.activated)
        chosen_bits = accumulator.chosen_bits(newly_heard)
        population.activate(newly_heard, phase=phase.index, round_index=engine.now)
        population.set_opinions(newly_heard, chosen_bits)

        newly_correct = int(np.count_nonzero(chosen_bits == correct_opinion))
        bias_of_new = bias_from_counts(newly_correct, int(newly_heard.size) - newly_correct)
        messages_in_phase = engine.metrics.messages_sent - messages_before
        summary = StageOnePhaseSummary(
            phase=phase.index,
            rounds=phase.length,
            senders=int(senders.size),
            activated_total=population.num_activated(),
            newly_activated=int(newly_heard.size),
            newly_correct=newly_correct,
            bias_of_new=bias_of_new,
            messages_sent=messages_in_phase,
        )
        summaries.append(summary)
        engine.metrics.observe_phase(
            PhaseRecord(
                stage="stage1",
                phase=phase.index,
                start_round=phase_start,
                end_round=engine.now,
                activated_total=summary.activated_total,
                newly_activated=summary.newly_activated,
                bias=summary.bias_of_new,
                correct_fraction=population.correct_fraction(correct_opinion),
                messages_sent=summary.messages_sent,
            )
        )
        engine.trace.record(engine.now, "stage1_phase_end", phase=phase.index, activated=summary.activated_total)

    initially_correct = population.count_opinion(correct_opinion)
    opinionated = population.num_opinionated()
    wrong = opinionated - initially_correct
    return StageOneResult(
        phases=tuple(summaries),
        rounds=engine.now - start_round,
        messages_sent=engine.metrics.messages_sent - total_messages_before,
        all_activated=population.num_activated() == population.size,
        initially_correct=initially_correct,
        initially_correct_fraction=initially_correct / population.size,
        final_bias=bias_from_counts(initially_correct, wrong),
    )
