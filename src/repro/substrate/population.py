"""Population state for Flip-model simulations.

A :class:`Population` holds the per-agent state that the paper's protocols
manipulate:

* ``opinions`` — an ``int8`` vector where ``-1`` means *no opinion yet* and
  ``0``/``1`` are the two abstract opinions of Section 1.3.1;
* ``activated`` — a boolean vector; a non-source agent becomes *activated*
  the first time it receives a message (Section 2.1.2);
* ``activation_phase`` — the Stage-I phase (layer) in which each agent was
  activated, ``-1`` for dormant agents.

The class is deliberately dumb: it stores state and offers cheap vectorised
accessors (bias, counts), while all protocol logic lives in
:mod:`repro.core` and :mod:`repro.protocols`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ParameterError, SimulationError

__all__ = ["NO_OPINION", "Population"]

#: Sentinel opinion value meaning "this agent has not adopted any opinion".
NO_OPINION: int = -1


@dataclass
class Population:
    """Mutable per-agent state for a single simulation run.

    Parameters
    ----------
    size:
        Number of agents ``n``.
    source:
        Index of the designated source agent for broadcast instances, or
        ``None`` for majority-consensus instances that have no source.
    """

    size: int
    source: Optional[int] = 0
    opinions: np.ndarray = field(init=False, repr=False)
    activated: np.ndarray = field(init=False, repr=False)
    activation_phase: np.ndarray = field(init=False, repr=False)
    activation_round: np.ndarray = field(init=False, repr=False)
    crashed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ParameterError(f"population size must be at least 2, got {self.size}")
        if self.source is not None and not 0 <= self.source < self.size:
            raise ParameterError(
                f"source index {self.source} out of range for population of size {self.size}"
            )
        self.opinions = np.full(self.size, NO_OPINION, dtype=np.int8)
        self.activated = np.zeros(self.size, dtype=bool)
        self.activation_phase = np.full(self.size, -1, dtype=np.int32)
        self.activation_round = np.full(self.size, -1, dtype=np.int64)
        self.crashed = np.zeros(self.size, dtype=bool)
        if self.source is not None:
            self.activated[self.source] = True
            self.activation_phase[self.source] = 0
            self.activation_round[self.source] = 0

    # ------------------------------------------------------------------
    # Initialisation helpers
    # ------------------------------------------------------------------
    def set_source_opinion(self, opinion: int) -> None:
        """Give the source its (correct) opinion ``B``."""
        if self.source is None:
            raise SimulationError("population has no source agent")
        self._check_opinion(opinion)
        self.opinions[self.source] = opinion

    def seed_opinionated_set(
        self,
        members: np.ndarray,
        opinions: np.ndarray,
        phase: int = 0,
        round_index: int = 0,
    ) -> None:
        """Initialise a majority-consensus instance.

        ``members`` are the indices of the initial opinionated set ``A`` and
        ``opinions`` their opinions; all of them are marked activated.
        """
        members = np.asarray(members, dtype=np.int64)
        opinions = np.asarray(opinions, dtype=np.int8)
        if members.shape != opinions.shape:
            raise ParameterError("members and opinions must have the same shape")
        if members.size and (members.min() < 0 or members.max() >= self.size):
            raise ParameterError("member index out of range")
        if members.size != np.unique(members).size:
            raise ParameterError("members must be distinct agent indices")
        if opinions.size and (opinions.min() < 0 or opinions.max() > 1):
            raise ParameterError("opinions must be 0 or 1")
        self.opinions[members] = opinions
        self.activated[members] = True
        self.activation_phase[members] = phase
        self.activation_round[members] = round_index

    # ------------------------------------------------------------------
    # Mutation used by protocols
    # ------------------------------------------------------------------
    def activate(self, agents: np.ndarray, phase: int, round_index: int) -> np.ndarray:
        """Mark ``agents`` as activated in ``phase`` (idempotent).

        Returns the subset of ``agents`` that were newly activated by this
        call (agents already activated keep their original phase).
        """
        agents = np.asarray(agents, dtype=np.int64)
        newly = agents[~self.activated[agents]]
        if newly.size:
            self.activated[newly] = True
            self.activation_phase[newly] = phase
            self.activation_round[newly] = round_index
        return newly

    def set_opinions(self, agents: np.ndarray, opinions: np.ndarray) -> None:
        """Overwrite the opinions of ``agents``."""
        agents = np.asarray(agents, dtype=np.int64)
        opinions = np.asarray(opinions, dtype=np.int8)
        if opinions.size and (opinions.min() < 0 or opinions.max() > 1):
            raise ParameterError("opinions must be 0 or 1")
        self.opinions[agents] = opinions

    def mark_crashed(self, crashed: np.ndarray) -> None:
        """Record which agents have crashed (fault-model runs only).

        ``crashed`` is a boolean mask of all agents, typically the fault
        injector's :meth:`~repro.substrate.faults.FaultInjector.crashed_serial`
        after a run; surviving-agent accessors use it.
        """
        crashed = np.asarray(crashed, dtype=bool)
        if crashed.shape != (self.size,):
            raise ParameterError(
                f"crashed mask must have shape ({self.size},), got {crashed.shape}"
            )
        self.crashed = crashed.copy()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Alias for the population size (the paper's ``n``)."""
        return self.size

    def num_activated(self) -> int:
        """Number of activated agents (the paper's ``X_i`` at phase boundaries)."""
        return int(np.count_nonzero(self.activated))

    def opinionated(self) -> np.ndarray:
        """Boolean mask of agents that currently hold an opinion."""
        return self.opinions != NO_OPINION

    def num_opinionated(self) -> int:
        """Number of agents holding an opinion (0 or 1)."""
        return int(np.count_nonzero(self.opinionated()))

    def count_opinion(self, opinion: int) -> int:
        """Number of agents currently holding ``opinion``."""
        self._check_opinion(opinion)
        return int(np.count_nonzero(self.opinions == opinion))

    def correct_fraction(self, correct_opinion: int) -> float:
        """Fraction of *all* agents holding ``correct_opinion``."""
        self._check_opinion(correct_opinion)
        return self.count_opinion(correct_opinion) / self.size

    def bias(self, correct_opinion: int) -> float:
        """Majority-bias of the opinionated agents towards ``correct_opinion``.

        Defined as in Section 1.3.1: ``(A_B - A_notB) / (2 |A|)`` where ``A``
        is the set of opinionated agents.  Returns ``0.0`` when no agent has
        an opinion.
        """
        self._check_opinion(correct_opinion)
        holders = self.num_opinionated()
        if holders == 0:
            return 0.0
        correct = self.count_opinion(correct_opinion)
        wrong = holders - correct
        return (correct - wrong) / (2 * holders)

    def all_correct(self, correct_opinion: int) -> bool:
        """True when every agent holds ``correct_opinion``."""
        self._check_opinion(correct_opinion)
        return bool(np.all(self.opinions == correct_opinion))

    def num_crashed(self) -> int:
        """Number of agents marked as crashed (see :meth:`mark_crashed`)."""
        return int(np.count_nonzero(self.crashed))

    def surviving_correct_fraction(self, correct_opinion: int) -> float:
        """Fraction of *non-crashed* agents holding ``correct_opinion``.

        The success notion for crash-fault runs: a crashed agent cannot be
        expected to learn the opinion, so it is excluded from the account.
        Returns ``0.0`` when every agent crashed.
        """
        self._check_opinion(correct_opinion)
        alive = ~self.crashed
        total = int(np.count_nonzero(alive))
        if total == 0:
            return 0.0
        correct = int(np.count_nonzero(self.opinions[alive] == correct_opinion))
        return correct / total

    def all_surviving_correct(self, correct_opinion: int) -> bool:
        """True when every non-crashed agent holds ``correct_opinion``."""
        self._check_opinion(correct_opinion)
        alive = ~self.crashed
        return bool(np.all(self.opinions[alive] == correct_opinion))

    def snapshot(self) -> dict:
        """Return a plain-dict summary of the population state."""
        return {
            "size": self.size,
            "activated": self.num_activated(),
            "opinionated": self.num_opinionated(),
            "count_zero": self.count_opinion(0),
            "count_one": self.count_opinion(1),
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _check_opinion(opinion: int) -> None:
        if opinion not in (0, 1):
            raise ParameterError(f"opinion must be 0 or 1, got {opinion!r}")
