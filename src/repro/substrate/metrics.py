"""Run-time metric collection for simulations.

The experiments in this repository (the E1–E11 table in README.md) report three kinds
of quantities:

* *complexities* — rounds executed and messages sent, matching the paper's
  ``O(log n / eps^2)`` round and ``O(n log n / eps^2)`` message bounds;
* *phase-level summaries* — number of agents activated per Stage-I phase and
  the bias of their initial opinions (the paper's ``X_i``, ``Y_i``, ``eps_i``)
  and the per-phase bias trajectory of Stage II (``delta_i``);
* *time series* — correct fraction over rounds, used for convergence plots.

:class:`MetricsCollector` accumulates all three without imposing any cost on
code that does not ask for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["PhaseRecord", "MetricsCollector"]


@dataclass(frozen=True)
class PhaseRecord:
    """Summary of one protocol phase.

    Attributes
    ----------
    stage:
        Human-readable stage label (``"stage1"``, ``"stage2"``, ...).
    phase:
        Phase index within the stage.
    start_round / end_round:
        Global round interval ``[start_round, end_round)`` the phase occupied.
    activated_total:
        Activated agents at the end of the phase (Stage I's ``X_i``).
    newly_activated:
        Agents activated during the phase (Stage I's ``Y_i``).
    bias:
        Bias towards the correct opinion among the relevant group at the end
        of the phase (Stage I: the newly activated agents' initial opinions,
        i.e. ``eps_i``; Stage II: the whole population, i.e. ``delta_i``).
    correct_fraction:
        Fraction of all agents holding the correct opinion at phase end.
    messages_sent:
        Messages pushed during the phase.
    """

    stage: str
    phase: int
    start_round: int
    end_round: int
    activated_total: int
    newly_activated: int
    bias: float
    correct_fraction: float
    messages_sent: int

    @property
    def duration(self) -> int:
        """Number of rounds the phase lasted."""
        return self.end_round - self.start_round


@dataclass
class MetricsCollector:
    """Accumulates rounds, messages, phase records and optional time series."""

    record_time_series: bool = False
    rounds: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    phases: List[PhaseRecord] = field(default_factory=list)
    correct_fraction_series: List[float] = field(default_factory=list)
    activated_series: List[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    def observe_round(
        self,
        messages_sent: int,
        messages_delivered: int,
        messages_dropped: int,
        correct_fraction: Optional[float] = None,
        activated: Optional[int] = None,
    ) -> None:
        """Record the outcome of one simulated round."""
        self.rounds += 1
        self.messages_sent += messages_sent
        self.messages_delivered += messages_delivered
        self.messages_dropped += messages_dropped
        if self.record_time_series:
            if correct_fraction is not None:
                self.correct_fraction_series.append(float(correct_fraction))
            if activated is not None:
                self.activated_series.append(int(activated))

    def observe_phase(self, record: PhaseRecord) -> None:
        """Append a completed phase summary."""
        self.phases.append(record)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Plain-dict summary used by the experiment harness and CLI."""
        return {
            "rounds": self.rounds,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "phases": len(self.phases),
        }

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector's counters into this one (sequential stages)."""
        self.rounds += other.rounds
        self.messages_sent += other.messages_sent
        self.messages_delivered += other.messages_delivered
        self.messages_dropped += other.messages_dropped
        self.phases.extend(other.phases)
        self.correct_fraction_series.extend(other.correct_fraction_series)
        self.activated_series.extend(other.activated_series)
