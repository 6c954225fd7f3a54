"""The "stay silent and wait" strategy discussed in Sections 1.4 and 1.6.

In this strategy nobody relays anything: only the source speaks, one message
per round, and every other agent simply accumulates the (noisy) bits it
happens to receive directly from the source and decides by majority once it
has collected ``threshold`` of them.

Two facts from the paper are reproduced with this baseline:

* Section 1.6 (birthday paradox): the first agent to hear *two* messages
  needs ``Omega(sqrt(n))`` rounds, because the source's pushes must collide
  on a recipient.
* Section 1.4: completing the broadcast this way — every agent individually
  collecting ``Theta(log n / eps^2)`` source samples — takes
  ``Theta(n log n / eps^2)`` rounds, a factor ``n`` slower than the paper's
  protocol even though it uses the same number of messages.

:meth:`SilentWaitBroadcast.simulate` is the strategy's only rule, run on
``(R, n)`` grids (``R = 1`` for a serial trial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from ..core.opinions import NO_OPINION
from ..errors import ParameterError
from ..substrate.network import PushGossipNetwork
from ..substrate.noise import NoiseChannel
from .base import BaselineProtocol, BatchBaselineResult

__all__ = ["SilentWaitBroadcast", "default_decision_threshold"]


def default_decision_threshold(n: int, epsilon: float, constant: float = 4.0) -> int:
    """Samples an agent needs for a w.h.p.-correct majority: ``Theta(log n / eps^2)``."""
    if n < 2:
        raise ParameterError("n must be at least 2")
    threshold = int(math.ceil(constant * math.log(n) / (epsilon * epsilon)))
    # An odd threshold avoids ties in the final majority vote.
    return threshold | 1


@dataclass
class SilentWaitBroadcast(BaselineProtocol):
    """Broadcast in which only the source ever speaks.

    Parameters
    ----------
    threshold:
        Number of source samples an agent waits for before deciding by
        majority.  ``None`` uses :func:`default_decision_threshold`; an
        explicit value must be at least 1.
    max_rounds:
        Round budget; ``None`` uses :meth:`default_budget`; an explicit
        value must be at least 1.
    """

    threshold: Optional[int] = None
    max_rounds: Optional[int] = None
    name: ClassVar[str] = "silent-wait"

    def __post_init__(self) -> None:
        if self.threshold is not None and self.threshold < 1:
            raise ParameterError("threshold must be at least 1")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ParameterError("max_rounds must be at least 1")

    @staticmethod
    def default_budget(n: int, threshold: int) -> int:
        """Default round budget ``8 * n * threshold``: enough for every agent
        to collect its quota w.h.p. (the coupon-collector style slowdown is
        the point of the baseline)."""
        return 8 * n * threshold

    def simulate(
        self,
        n: int,
        num_replicates: int,
        network: PushGossipNetwork,
        channel: NoiseChannel,
        rng: np.random.Generator,
        correct_opinion: int,
    ) -> BatchBaselineResult:
        """Only the source speaks — one message per round per replicate.

        The per-round work is a single uniform target draw plus one noisy
        bit per replicate instead of a full ``(R, n)`` delivery grid.  Every
        other agent accumulates the noisy source bits it receives and
        decides by majority once it has collected ``threshold`` of them,
        re-deciding on every later receipt.  Replicates stop as soon as
        every agent has decided; budget exhaustion shows up as ``converged``
        false.  The extra vector ``first_two_messages_round`` is the
        Section 1.6 birthday observation (``NaN`` — reported as ``None`` —
        when no agent ever heard two messages).
        """
        threshold = self.threshold
        if threshold is None:
            threshold = default_decision_threshold(n, channel.epsilon)
        budget = self.max_rounds
        if budget is None:
            budget = self.default_budget(n, threshold)

        R = num_replicates
        received = np.zeros((R, n), dtype=np.int64)
        ones = np.zeros((R, n), dtype=np.int64)
        decided = np.zeros((R, n), dtype=bool)
        decided[:, 0] = True  # agent 0 is the source in every replicate
        opinions = np.full((R, n), NO_OPINION, dtype=np.int8)
        opinions[:, 0] = correct_opinion
        rounds = np.zeros(R, dtype=np.int64)
        messages = np.zeros(R, dtype=np.int64)
        first_double = np.full(R, np.nan)
        alive = np.ones(R, dtype=bool)
        alive_rows = np.flatnonzero(alive)

        for round_index in range(budget):
            if alive_rows.size == 0:
                break
            # One message per replicate: the source (agent 0) pushes its bit to a
            # uniformly random other agent; no collisions are possible, so the
            # single-accept rule of PushGossipNetwork.deliver is trivial here —
            # but the target distribution mirrors PushGossipNetwork._draw_targets
            # exactly.
            draws = rng.integers(0, n - 1, size=alive_rows.size)
            targets = draws + 1  # skip over the source's own index
            bits = channel.transmit(
                np.full(alive_rows.size, correct_opinion, dtype=np.int8), rng
            )
            received[alive_rows, targets] += 1
            ones[alive_rows, targets] += bits.astype(np.int64)
            rounds[alive_rows] += 1
            messages[alive_rows] += 1

            counts_now = received[alive_rows, targets]
            fresh_double = (counts_now >= 2) & np.isnan(first_double[alive_rows])
            first_double[alive_rows[fresh_double]] = round_index + 1

            ready = counts_now >= threshold
            if ready.any():
                ready_rows = alive_rows[ready]
                ready_cols = targets[ready]
                decided[ready_rows, ready_cols] = True
                opinions[ready_rows, ready_cols] = (
                    2 * ones[ready_rows, ready_cols] > received[ready_rows, ready_cols]
                ).astype(np.int8)
                done = decided[ready_rows].all(axis=1)
                if done.any():
                    alive[ready_rows[done]] = False
                    alive_rows = np.flatnonzero(alive)

        correct_final = (opinions == correct_opinion).sum(axis=1)
        return BatchBaselineResult(
            protocol=self.name,
            n=n,
            epsilon=float(channel.epsilon),
            correct_opinion=int(correct_opinion),
            rounds=rounds,
            converged=decided.all(axis=1),
            success=correct_final == n,
            final_correct_fraction=correct_final / n,
            messages_sent=messages,
            extra={
                "threshold": np.full(R, threshold, dtype=np.int64),
                "decided_fraction": decided.sum(axis=1) / n,
                "first_two_messages_round": first_double,
            },
        )
