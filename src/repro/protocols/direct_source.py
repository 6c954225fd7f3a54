"""The idealised "everyone hears the source directly" reference (Section 1.4).

The paper's lower-bound argument observes that even if every agent received
an *independent noisy copy of the source's bit in every round* — a far
stronger communication model than the Flip model — each agent would still
need ``Theta(log n / eps^2)`` copies before a majority vote is correct with
probability ``1 - 1/n^c``.  The paper's protocol matches this bound up to
constants, which is why it is called "as fast as if each agent were informed
directly by the source".

:class:`DirectSourceReference` simulates that idealised process: it is *not*
a Flip-model protocol (the source magically reaches all agents at once); it
exists purely as the optimal-reference series in experiments E1/E2/E11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.opinions import validate_opinion
from ..errors import ParameterError
from ..substrate.engine import SimulationEngine
from .base import BaselineProtocol, ProtocolResult

__all__ = ["DirectSourceReference"]


@dataclass
class DirectSourceReference(BaselineProtocol):
    """Every agent receives one independent noisy source sample per round.

    Parameters
    ----------
    rounds:
        Number of sampling rounds; ``None`` uses ``ceil(4 ln n / eps^2)``;
        an explicit value must be at least 1.
    """

    rounds: Optional[int] = None
    name: str = "direct-source-reference"

    def __post_init__(self) -> None:
        if self.rounds is not None and self.rounds < 1:
            raise ParameterError("rounds must be at least 1")

    @staticmethod
    def default_rounds(n: int, epsilon: float) -> int:
        """Default sampling budget ``ceil(4 ln n / eps^2)``.

        Single source of truth shared with the batched step rule in
        :mod:`repro.exec.batching`, so the two paths can never drift apart.
        """
        return int(math.ceil(4.0 * math.log(n) / (epsilon**2)))

    def run(self, engine: SimulationEngine, correct_opinion: int = 1) -> ProtocolResult:
        correct_opinion = validate_opinion(correct_opinion)
        population = engine.population
        n = engine.n
        total_rounds = self.rounds
        if total_rounds is None:
            total_rounds = self.default_rounds(n, engine.epsilon)

        rng = engine.random.stream("direct-source")
        ones = np.zeros(n, dtype=np.int64)
        start_round = engine.now
        first_all_correct: Optional[int] = None

        source_bits = np.full(n, correct_opinion, dtype=np.int8)
        for round_index in range(1, total_rounds + 1):
            noisy = engine.channel.transmit(source_bits, rng)
            ones += noisy.astype(np.int64)
            engine.clock.tick()
            engine.metrics.observe_round(messages_sent=n, messages_delivered=n, messages_dropped=0)
            if first_all_correct is None:
                majority_now = self._majority(ones, round_index, rng)
                if bool(np.all(majority_now == correct_opinion)):
                    first_all_correct = round_index

        final = self._majority(ones, total_rounds, rng)
        population.set_opinions(np.arange(n), final)
        population.activate(np.arange(n), phase=0, round_index=engine.now)

        return self._result(
            engine,
            correct_opinion,
            converged=True,
            rounds=engine.now - start_round,
            messages_sent=n * total_rounds,
            first_all_correct_round=first_all_correct,
        )

    @staticmethod
    def _majority(ones: np.ndarray, rounds_so_far: int, rng: np.random.Generator) -> np.ndarray:
        """Per-agent majority of the samples collected so far (random tie-break)."""
        doubled = 2 * ones
        verdict = np.where(doubled > rounds_so_far, 1, 0).astype(np.int8)
        ties = doubled == rounds_so_far
        if np.any(ties):
            verdict[ties] = rng.integers(0, 2, size=int(np.count_nonzero(ties))).astype(np.int8)
        return verdict
