"""The "forward immediately" strategy discussed in Section 1.6.

In this naive broadcast strategy every agent, as soon as it hears its first
message, adopts the received bit as its opinion and starts repeating it every
round.  There is no breathing period and no majority correction.

The paper explains why this fails: the dissemination pattern forms a tree of
depth ``Theta(log n)``, and a bit relayed over ``c`` noisy hops is correct
with probability only ``1/2 + (2 eps)^c``, so the typical agent's opinion is
barely better than a coin flip.  Experiment E7 measures exactly this: the
final correct fraction of the population hovers near ``1/2`` while the
paper's protocol reaches 1.

:meth:`ImmediateForwardingBroadcast.simulate` is the strategy's only rule,
run on ``(R, n)`` grids (``R = 1`` for a serial trial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from ..core.opinions import NO_OPINION
from ..substrate.network import PushGossipNetwork
from ..substrate.noise import NoiseChannel
from .base import BaselineProtocol, BatchBaselineResult

__all__ = ["ImmediateForwardingBroadcast"]


@dataclass
class ImmediateForwardingBroadcast(BaselineProtocol):
    """Broadcast by immediate, unfiltered forwarding of the first heard bit.

    Parameters
    ----------
    max_rounds:
        Round budget.  ``None`` uses :meth:`default_budget`, which is ample
        for the rumor itself to reach everyone — the point of the baseline
        is that *reach* is easy but *reliability* is lost.
    keep_first_opinion:
        When ``True`` (the default, matching Section 1.6's description) an
        agent adopts only the first bit it ever hears and repeats it forever.
        When ``False`` the agent re-adopts every bit it hears, which turns
        the strategy into the noisy voter dynamic of
        :mod:`repro.protocols.noisy_voter`.
    """

    max_rounds: Optional[int] = None
    keep_first_opinion: bool = True
    name: ClassVar[str] = "immediate-forwarding"

    @staticmethod
    def default_budget(n: int) -> int:
        """Default round budget ``ceil(4 log2 n) + 8`` (ample for full reach)."""
        return int(math.ceil(4 * math.log2(n))) + 8

    def simulate(
        self,
        n: int,
        num_replicates: int,
        network: PushGossipNetwork,
        channel: NoiseChannel,
        rng: np.random.Generator,
        correct_opinion: int,
    ) -> BatchBaselineResult:
        """Every opinionated agent pushes its bit each round.

        With ``keep_first_opinion`` a recipient adopts only the first bit it
        ever hears, otherwise it re-adopts every bit.  The budget always
        runs to completion, so ``rounds`` equals the budget for every
        replicate and ``converged`` records whether everyone got informed.
        """
        budget = self.max_rounds
        if budget is None:
            budget = self.default_budget(n)

        R = num_replicates
        opinions = np.full((R, n), NO_OPINION, dtype=np.int8)
        activated = np.zeros((R, n), dtype=bool)
        opinions[:, 0] = correct_opinion
        activated[:, 0] = True
        messages = np.zeros(R, dtype=np.int64)
        all_informed_round = np.full(R, np.nan)

        for round_index in range(budget):
            send_mask = opinions != NO_OPINION
            bits = np.where(send_mask, opinions, 0).astype(np.int8)
            report = network.deliver_batch(send_mask, bits, channel, rng)
            if self.keep_first_opinion:
                adopt = report.accepted & ~activated
            else:
                adopt = report.accepted
            opinions = np.where(adopt, report.bits, opinions)
            activated |= report.accepted
            messages += send_mask.sum(axis=1)
            newly_informed = activated.all(axis=1) & np.isnan(all_informed_round)
            all_informed_round[newly_informed] = round_index + 1

        correct_final = (opinions == correct_opinion).sum(axis=1)
        return BatchBaselineResult(
            protocol=self.name,
            n=n,
            epsilon=float(channel.epsilon),
            correct_opinion=int(correct_opinion),
            rounds=np.full(R, budget, dtype=np.int64),
            converged=activated.all(axis=1),
            success=correct_final == n,
            final_correct_fraction=correct_final / n,
            messages_sent=messages,
            extra={"all_informed_round": all_informed_round},
        )
