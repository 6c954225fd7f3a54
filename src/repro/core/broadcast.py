"""The noisy broadcast protocol (Theorem 2.17).

This module glues the two stages together into the complete
"breathe before speaking" protocol for the fully-synchronous setting:

1. **Stage I** (:mod:`repro.core.stage1`) activates every agent and leaves
   the population with a bias of ``Omega(sqrt(log n / n))`` towards the
   source's opinion ``B``.
2. **Stage II** (:mod:`repro.core.stage2`) boosts that bias to 1 by repeated
   noisy majority votes.

The public entry points are :class:`NoisyBroadcastProtocol` (operates on an
existing :class:`~repro.substrate.engine.SimulationEngine`) and the
convenience function :func:`solve_noisy_broadcast` which builds the engine,
runs the protocol and returns a :class:`BroadcastResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import SimulationError
from ..substrate.engine import SimulationEngine
from .opinions import validate_opinion
from .parameters import ProtocolParameters
from .stage1 import StageOneResult, execute_stage_one
from .stage2 import StageTwoResult, execute_stage_two

__all__ = ["BroadcastResult", "NoisyBroadcastProtocol", "solve_noisy_broadcast"]


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


class NoisyBroadcastProtocol:
    """The paper's two-stage noisy broadcast algorithm (fully-synchronous)."""

    name = "breathe-before-speaking"

    def __init__(self, parameters: ProtocolParameters) -> None:
        self.parameters = parameters

    def run(self, engine: SimulationEngine, correct_opinion: int = 1) -> BroadcastResult:
        """Execute the protocol on ``engine``.

        The engine must have a source agent; the source is given
        ``correct_opinion`` and everything else follows the paper.
        """
        correct_opinion = validate_opinion(correct_opinion)
        if engine.population.source is None:
            raise SimulationError("noisy broadcast requires a population with a source agent")
        if engine.n != self.parameters.n:
            raise SimulationError(
                f"engine has {engine.n} agents but parameters were built for {self.parameters.n}"
            )
        engine.population.set_source_opinion(correct_opinion)

        stage1 = execute_stage_one(engine, self.parameters.stage1, correct_opinion)
        stage2 = execute_stage_two(engine, self.parameters.stage2, correct_opinion)

        return BroadcastResult(
            success=engine.population.all_correct(correct_opinion),
            correct_opinion=correct_opinion,
            n=engine.n,
            epsilon=engine.epsilon,
            rounds=stage1.rounds + stage2.rounds,
            messages_sent=stage1.messages_sent + stage2.messages_sent,
            final_correct_fraction=stage2.final_correct_fraction,
            stage1=stage1,
            stage2=stage2,
        )


def solve_noisy_broadcast(
    n: int,
    epsilon: float,
    seed: int = 0,
    correct_opinion: int = 1,
    parameters: Optional[ProtocolParameters] = None,
    record_time_series: bool = False,
    faults=None,
    **calibration_overrides: float,
) -> BroadcastResult:
    """Build an engine and run the noisy broadcast protocol once.

    Parameters
    ----------
    n, epsilon, seed:
        Instance size, noise margin and root seed.
    correct_opinion:
        The source's opinion ``B``.
    parameters:
        Optional explicit :class:`ProtocolParameters`; when omitted the
        calibrated preset is used (``calibration_overrides`` are forwarded to
        :meth:`ProtocolParameters.calibrated`).
    record_time_series:
        Store per-round correct-fraction series in the engine metrics.
    faults:
        Optional :data:`~repro.substrate.faults.FaultModel` forwarded to
        :meth:`SimulationEngine.create`; the default ``None`` keeps the
        pre-fault code path byte for byte.

    Returns
    -------
    BroadcastResult
    """
    if parameters is None:
        parameters = ProtocolParameters.calibrated(n, epsilon, **calibration_overrides)
    engine = SimulationEngine.create(
        n=n,
        epsilon=epsilon,
        seed=seed,
        record_time_series=record_time_series,
        faults=faults,
    )
    return NoisyBroadcastProtocol(parameters).run(engine, correct_opinion=correct_opinion)
