"""Common interface for baseline protocols.

Every comparator implemented in :mod:`repro.protocols` — the naive
strategies of Section 1.6, the idealised direct-from-source reference and
the physics-style noisy voter model — exposes the same ``run`` interface
and produces the same :class:`ProtocolResult` so the experiment drivers can
sweep over protocols uniformly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict

from ..core.opinions import validate_opinion
from ..substrate.engine import SimulationEngine

__all__ = ["ProtocolResult", "BaselineProtocol"]


@dataclass(frozen=True)
class ProtocolResult:
    """Uniform result record for baseline protocols.

    Attributes
    ----------
    name:
        Protocol identifier.
    success:
        True when every agent ended holding the correct opinion.
    converged:
        True when the protocol stopped because it reached (some) consensus or
        met its own stopping rule, as opposed to exhausting the round budget.
    rounds / messages_sent:
        Complexity actually incurred.
    final_correct_fraction / final_bias:
        State of the population at the end.
    extra:
        Protocol-specific measurements (e.g. the round at which the first
        agent heard two messages for the silent-wait strategy).
    """

    name: str
    success: bool
    converged: bool
    n: int
    epsilon: float
    rounds: int
    messages_sent: int
    final_correct_fraction: float
    final_bias: float
    extra: Dict[str, Any] = field(default_factory=dict)


class BaselineProtocol(abc.ABC):
    """Abstract base class for baseline dissemination/consensus protocols."""

    #: Short, stable identifier used by result records and the batched rules.
    name: str = "baseline"

    @abc.abstractmethod
    def run(self, engine: SimulationEngine, correct_opinion: int = 1) -> ProtocolResult:
        """Run the protocol to completion (or budget exhaustion) on ``engine``."""

    # ------------------------------------------------------------------
    def _result(
        self,
        engine: SimulationEngine,
        correct_opinion: int,
        converged: bool,
        rounds: int,
        messages_sent: int,
        **extra: Any,
    ) -> ProtocolResult:
        """Assemble a :class:`ProtocolResult` from the engine's final state."""
        correct_opinion = validate_opinion(correct_opinion)
        population = engine.population
        return ProtocolResult(
            name=self.name,
            success=population.all_correct(correct_opinion),
            converged=converged,
            n=engine.n,
            epsilon=engine.epsilon,
            rounds=rounds,
            messages_sent=messages_sent,
            final_correct_fraction=population.correct_fraction(correct_opinion),
            final_bias=population.bias(correct_opinion),
            extra=dict(extra),
        )
