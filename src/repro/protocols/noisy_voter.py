"""A noisy voter model with a zealot source (Section 1.2's physics baseline).

The paper contrasts its approach with the physics literature on voter models
and consensus around a zealot [49, 50]: those dynamics are simple — an agent
adopts whatever opinion it just heard — but their convergence time around a
single zealot is polynomial in ``n``, and under channel noise the population
never locks onto the correct opinion at all (the adopt-the-last-bit map has
its fixed point at bias 0 because every received bit is only ``2 eps`` -
correlated with the sender's opinion).

:class:`NoisyVoterBroadcast` implements the push-flavoured version inside
the Flip model: every opinionated agent pushes its current opinion each
round, the zealot source never changes its opinion, and a receiver adopts
whatever (noisy) bit it accepted.  Experiment E7 uses it to show the
long-convergence / no-convergence behaviour the paper predicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.opinions import validate_opinion
from ..errors import ParameterError, SimulationError
from ..substrate.engine import SimulationEngine
from ..substrate.population import NO_OPINION
from .base import BaselineProtocol, ProtocolResult

__all__ = ["NoisyVoterBroadcast"]


@dataclass
class NoisyVoterBroadcast(BaselineProtocol):
    """Push voter dynamics with a zealot source under channel noise.

    Parameters
    ----------
    max_rounds:
        Round budget; the dynamics rarely reach full consensus under noise,
        so a finite budget is mandatory.  Must be at least 1.
    check_every:
        How often (in rounds) to test for full consensus.  Must be at
        least 1.
    """

    max_rounds: int = 2000
    check_every: int = 16
    name: str = "noisy-voter"

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ParameterError(f"max_rounds must be at least 1, got {self.max_rounds}")
        if self.check_every < 1:
            raise ParameterError(f"check_every must be at least 1, got {self.check_every}")

    def run(self, engine: SimulationEngine, correct_opinion: int = 1) -> ProtocolResult:
        correct_opinion = validate_opinion(correct_opinion)
        population = engine.population
        if population.source is None:
            raise SimulationError("the voter baseline requires a zealot source agent")
        population.set_source_opinion(correct_opinion)
        source = population.source

        messages_before = engine.metrics.messages_sent
        converged = False
        rounds_run = 0

        for round_index in range(self.max_rounds):
            senders = np.flatnonzero(population.opinions != NO_OPINION)
            bits = population.opinions[senders].astype(np.int8)
            report = engine.gossip_round(senders, bits, correct_opinion=correct_opinion)
            rounds_run += 1
            if report.recipients.size:
                # Every receiver adopts the bit it accepted, except the zealot.
                keep = report.recipients != source
                population.set_opinions(report.recipients[keep], report.bits[keep])
                population.activate(report.recipients, phase=0, round_index=engine.now)
            if (round_index + 1) % self.check_every == 0 and population.all_correct(correct_opinion):
                converged = True
                break

        return self._result(
            engine,
            correct_opinion,
            converged=converged,
            rounds=rounds_run,
            messages_sent=engine.metrics.messages_sent - messages_before,
        )
