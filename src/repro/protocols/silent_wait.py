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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.opinions import validate_opinion
from ..errors import ParameterError, SimulationError
from ..substrate.engine import SimulationEngine
from .base import BaselineProtocol, ProtocolResult

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
    name: str = "silent-wait"

    def __post_init__(self) -> None:
        if self.threshold is not None and self.threshold < 1:
            raise ParameterError("threshold must be at least 1")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ParameterError("max_rounds must be at least 1")

    @staticmethod
    def default_budget(n: int, threshold: int) -> int:
        """Default round budget ``8 * n * threshold``: enough for every agent
        to collect its quota w.h.p. (the coupon-collector style slowdown is
        the point of the baseline).

        Single source of truth shared with the batched step rule in
        :mod:`repro.exec.batching`, so the two paths can never drift apart.
        """
        return 8 * n * threshold

    def run(self, engine: SimulationEngine, correct_opinion: int = 1) -> ProtocolResult:
        correct_opinion = validate_opinion(correct_opinion)
        population = engine.population
        if population.source is None:
            raise SimulationError("silent-wait requires a source agent")
        population.set_source_opinion(correct_opinion)
        source = population.source
        n = engine.n

        threshold = self.threshold
        if threshold is None:
            threshold = default_decision_threshold(n, engine.epsilon)
        budget = self.max_rounds
        if budget is None:
            budget = self.default_budget(n, threshold)

        received = np.zeros(n, dtype=np.int64)
        ones = np.zeros(n, dtype=np.int64)
        decided = np.zeros(n, dtype=bool)
        decided[source] = True

        messages_before = engine.metrics.messages_sent
        first_double_round: Optional[int] = None
        senders = np.asarray([source], dtype=np.int64)
        sender_bits = np.asarray([correct_opinion], dtype=np.int8)

        rounds_run = 0
        for round_index in range(budget):
            report = engine.gossip_round(senders, sender_bits, correct_opinion=correct_opinion)
            rounds_run += 1
            if report.recipients.size:
                received[report.recipients] += 1
                ones[report.recipients] += report.bits.astype(np.int64)
                if first_double_round is None and int(received[report.recipients].max()) >= 2:
                    first_double_round = round_index + 1
                ready = report.recipients[received[report.recipients] >= threshold]
                if ready.size:
                    verdict = (2 * ones[ready] > received[ready]).astype(np.int8)
                    population.set_opinions(ready, verdict)
                    population.activate(ready, phase=0, round_index=engine.now)
                    decided[ready] = True
            if bool(decided.all()):
                break

        return self._result(
            engine,
            correct_opinion,
            converged=bool(decided.all()),
            rounds=rounds_run,
            messages_sent=engine.metrics.messages_sent - messages_before,
            threshold=threshold,
            decided_fraction=float(np.count_nonzero(decided)) / n,
            first_round_with_two_messages=first_double_round,
        )
