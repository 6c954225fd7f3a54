"""The noisy broadcast protocol (Theorem 2.17).

This module glues the two stages together into the complete
"breathe before speaking" protocol for the fully-synchronous setting:

1. **Stage I** (:mod:`repro.core.stage1`) activates every agent and leaves
   the population with a bias of ``Omega(sqrt(log n / n))`` towards the
   source's opinion ``B``.
2. **Stage II** (:mod:`repro.core.stage2`) boosts that bias to 1 by repeated
   noisy majority votes.

The entry point :func:`solve_noisy_broadcast` builds the population (an
``int8`` opinion array and a ``bool`` activation array, agent 0 the source),
runs both stages on it and returns a :class:`BroadcastResult`.  This is the
one serial delivery path: one
:meth:`~repro.substrate.network.PushGossipNetwork.deliver` call per round,
with every phase summary recorded.  Its ``(R, n)`` counterpart is
:func:`repro.exec.batching.run_broadcast_batch`, which also runs under
E12's fault models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import SimulationError
from ..substrate.noise import BinarySymmetricChannel
from ..substrate.rng import RandomSource
from .opinions import NO_OPINION, validate_opinion
from .parameters import ProtocolParameters
from .stage1 import StageOneResult, execute_stage_one
from .stage2 import StageTwoResult, execute_stage_two

__all__ = ["BroadcastResult", "solve_noisy_broadcast"]


@dataclass(frozen=True)
class BroadcastResult:
    """Outcome of a noisy-broadcast run.

    Attributes
    ----------
    success:
        True when *every* agent ended the run holding the correct opinion
        ``B`` (the paper's success criterion).
    correct_opinion:
        The opinion ``B`` held by the source.
    rounds / messages_sent:
        Complexity actually incurred, to be compared against
        ``O(log n / eps^2)`` and ``O(n log n / eps^2)``.
    final_correct_fraction:
        Fraction of agents holding ``B`` at the end.
    stage1 / stage2:
        Per-stage results with per-phase detail.
    """

    success: bool
    correct_opinion: int
    n: int
    epsilon: float
    rounds: int
    messages_sent: int
    final_correct_fraction: float
    stage1: StageOneResult
    stage2: StageTwoResult

    @property
    def messages_per_agent(self) -> float:
        """Average number of messages sent per agent."""
        return self.messages_sent / self.n


def solve_noisy_broadcast(
    n: int,
    epsilon: float,
    seed: int = 0,
    correct_opinion: int = 1,
    parameters: Optional[ProtocolParameters] = None,
    **calibration_overrides: float,
) -> BroadcastResult:
    """Run the noisy broadcast protocol once, agent 0 being the source.

    Parameters
    ----------
    n, epsilon, seed:
        Instance size, noise margin and root seed.
    correct_opinion:
        The source's opinion ``B``.
    parameters:
        Optional explicit :class:`ProtocolParameters` built for ``n``; when
        omitted the calibrated preset is used (``calibration_overrides`` are
        forwarded to :meth:`ProtocolParameters.calibrated`).

    Returns
    -------
    BroadcastResult
    """
    if parameters is None:
        parameters = ProtocolParameters.calibrated(n, epsilon, **calibration_overrides)
    channel = BinarySymmetricChannel(epsilon=epsilon)
    streams = RandomSource(seed=seed)
    correct_opinion = validate_opinion(correct_opinion)
    if parameters.n != n:
        raise SimulationError(f"{n} agents but parameters were built for {parameters.n}")

    opinions = np.full(n, NO_OPINION, dtype=np.int8)
    opinions[0] = correct_opinion
    activated = np.zeros(n, dtype=bool)
    activated[0] = True
    stage1 = execute_stage_one(
        opinions, activated, parameters.stage1, correct_opinion, channel, streams
    )
    stage2 = execute_stage_two(opinions, parameters.stage2, correct_opinion, channel, streams)

    return BroadcastResult(
        success=stage2.consensus_reached,
        correct_opinion=correct_opinion,
        n=n,
        epsilon=channel.epsilon,
        rounds=stage1.rounds + stage2.rounds,
        messages_sent=stage1.messages_sent + stage2.messages_sent,
        final_correct_fraction=stage2.final_correct_fraction,
        stage1=stage1,
        stage2=stage2,
    )
