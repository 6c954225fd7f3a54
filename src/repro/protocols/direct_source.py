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
exists purely as the optimal-reference series in experiments E7 and E11.
:meth:`DirectSourceReference.simulate` is its only rule, run on ``(R, n)``
grids (``R = 1`` for a serial trial).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from ..errors import ParameterError
from ..substrate.network import PushGossipNetwork
from ..substrate.noise import NoiseChannel
from .base import BaselineProtocol, BatchBaselineResult

__all__ = ["DirectSourceReference"]


@dataclass
class DirectSourceReference(BaselineProtocol):
    """Every agent receives one independent noisy source sample per round.

    Parameters
    ----------
    rounds:
        Number of sampling rounds; ``None`` uses :meth:`default_rounds`; an
        explicit value must be at least 1.
    """

    rounds: Optional[int] = None
    name: ClassVar[str] = "direct-source-reference"

    def __post_init__(self) -> None:
        if self.rounds is not None and self.rounds < 1:
            raise ParameterError("rounds must be at least 1")

    @staticmethod
    def default_rounds(n: int, epsilon: float) -> int:
        """Default sampling budget ``ceil(4 ln n / eps^2)``."""
        return int(math.ceil(4.0 * math.log(n) / (epsilon**2)))

    def simulate(
        self,
        n: int,
        num_replicates: int,
        network: PushGossipNetwork,
        channel: NoiseChannel,
        rng: np.random.Generator,
        correct_opinion: int,
    ) -> BatchBaselineResult:
        """Every agent receives one independent noisy source sample per round.

        The samples go through
        :meth:`~repro.substrate.noise.NoiseChannel.transmit_batch` on the
        full ``(R, n)`` grid (``network`` is unused: the source reaches
        everyone directly).  Each replicate records the first round at which
        every agent's running majority was correct; the extra vector
        ``rounds_to_all_correct`` is ``NaN`` — reported as ``None`` in
        measurements — for replicates whose majority never went all-correct
        within the sampling budget, never the budget in disguise.
        """
        total_rounds = self.rounds
        if total_rounds is None:
            total_rounds = self.default_rounds(n, channel.epsilon)

        R = num_replicates
        ones = np.zeros((R, n), dtype=np.int64)
        first_all_correct = np.full(R, np.nan)
        source_bits = np.full((R, n), correct_opinion, dtype=np.int8)
        full_mask = np.ones((R, n), dtype=bool)

        for round_index in range(1, total_rounds + 1):
            noisy = channel.transmit_batch(source_bits, full_mask, rng)
            ones += noisy.astype(np.int64)
            pending = np.isnan(first_all_correct)
            if pending.any():
                majority_now = _running_majority(ones[pending], round_index, rng)
                all_correct = (majority_now == correct_opinion).all(axis=1)
                first_all_correct[np.flatnonzero(pending)[all_correct]] = round_index

        final = _running_majority(ones, total_rounds, rng)
        correct_final = (final == correct_opinion).sum(axis=1)
        return BatchBaselineResult(
            protocol=self.name,
            n=n,
            epsilon=float(channel.epsilon),
            correct_opinion=int(correct_opinion),
            rounds=np.full(R, total_rounds, dtype=np.int64),
            converged=np.ones(R, dtype=bool),
            success=correct_final == n,
            final_correct_fraction=correct_final / n,
            messages_sent=np.full(R, n * total_rounds, dtype=np.int64),
            extra={
                "rounds_to_all_correct": first_all_correct,
                "all_correct": ~np.isnan(first_all_correct),
            },
        )


def _running_majority(
    ones: np.ndarray, rounds_so_far: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-agent majority of the samples collected so far (random tie-break)."""
    doubled = 2 * ones
    verdict = np.where(doubled > rounds_so_far, 1, 0).astype(np.int8)
    ties = doubled == rounds_so_far
    if np.any(ties):
        verdict[ties] = rng.integers(0, 2, size=int(np.count_nonzero(ties))).astype(np.int8)
    return verdict
