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
:meth:`NoisyVoterBroadcast.simulate` is the dynamics' only rule, run on
``(R, n)`` grids (``R = 1`` for a serial trial).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..core.opinions import NO_OPINION
from ..errors import ParameterError
from ..substrate.network import PushGossipNetwork
from ..substrate.noise import NoiseChannel
from .base import BaselineProtocol, BatchBaselineResult

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
    name: ClassVar[str] = "noisy-voter"

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ParameterError(f"max_rounds must be at least 1, got {self.max_rounds}")
        if self.check_every < 1:
            raise ParameterError(f"check_every must be at least 1, got {self.check_every}")

    def simulate(
        self,
        n: int,
        num_replicates: int,
        network: PushGossipNetwork,
        channel: NoiseChannel,
        rng: np.random.Generator,
        correct_opinion: int,
    ) -> BatchBaselineResult:
        """Every opinionated agent pushes its opinion; every receiver except
        the zealot adopts the accepted bit.

        Every ``check_every`` rounds the replicates that reached full
        correct consensus stop: their rows are frozen and they stop sending
        or counting rounds.  Under channel noise this essentially never
        happens — the paper's point — so ``rounds`` typically equals the
        budget with ``converged`` false.
        """
        R = num_replicates
        opinions = np.full((R, n), NO_OPINION, dtype=np.int8)
        opinions[:, 0] = correct_opinion  # the zealot source never changes opinion
        messages = np.zeros(R, dtype=np.int64)
        rounds = np.zeros(R, dtype=np.int64)
        converged = np.zeros(R, dtype=bool)
        alive = np.ones(R, dtype=bool)

        for round_index in range(self.max_rounds):
            if not alive.any():
                break
            send_mask = (opinions != NO_OPINION) & alive[:, None]
            bits = np.where(send_mask, opinions, 0).astype(np.int8)
            report = network.deliver_batch(send_mask, bits, channel, rng)
            adopt = report.accepted.copy()
            adopt[:, 0] = False  # the zealot keeps its opinion
            opinions = np.where(adopt, report.bits, opinions)
            messages += send_mask.sum(axis=1)
            rounds += alive
            if (round_index + 1) % self.check_every == 0:
                now_correct = alive & (opinions == correct_opinion).all(axis=1)
                converged |= now_correct
                alive &= ~now_correct

        correct_final = (opinions == correct_opinion).sum(axis=1)
        return BatchBaselineResult(
            protocol=self.name,
            n=n,
            epsilon=float(channel.epsilon),
            correct_opinion=int(correct_opinion),
            rounds=rounds,
            converged=converged,
            success=correct_final == n,
            final_correct_fraction=correct_final / n,
            messages_sent=messages,
        )
