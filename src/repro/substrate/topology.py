"""Non-uniform contact graphs as pluggable target-sampling policies.

The paper's model pushes every message to a uniformly random other agent.
ROADMAP item 3 asks what happens on less friendly contact structures; this
module supplies three of them as drop-in replacements for the uniform
sampler in :mod:`repro.substrate.network`:

* :class:`DegreeLimitedTopology` — each agent only ever contacts its next
  ``degree`` neighbours on a ring (a sparse, directed contact graph);
* :class:`TwoClusterTopology` — two equal communities, with a message
  crossing to the other community only with probability
  ``cross_probability`` (a bottleneck graph);
* :class:`ChurnTopology` — uniform contacts, but every agent is offline in
  any given round with probability ``offline_probability`` (offline agents
  neither send nor receive that round).

Every topology draws *positionally*: one fixed-shape grid of uniforms per
logical decision, mapped to integer ranges with ``floor(u * k)`` instead of
``Generator.integers`` (whose rejection sampling consumes a data-dependent
number of variates).  Per round a topology therefore consumes an amount of
the delivery stream that depends only on the grid shape — the same
stability contract the fault layer relies on (see
:mod:`repro.substrate.faults`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "ContactTopology",
    "DegreeLimitedTopology",
    "TwoClusterTopology",
    "ChurnTopology",
]


class ContactTopology(abc.ABC):
    """A pluggable per-round target-sampling policy for push gossip.

    Implementations return, for every ``(replicate, agent)`` cell, the target
    that agent would contact this round, plus an optional per-agent offline
    mask (offline agents drop out of the round entirely).  Targets are drawn
    for *every* cell — senders and non-senders alike — so the delivery
    stream's consumption is positional, independent of who actually sends.
    """

    def validate(self, size: int) -> None:
        """Raise :class:`~repro.errors.ParameterError` if ``size`` is unusable."""
        if size < 2:
            raise ParameterError(f"topology needs size >= 2, got {size}")

    @abc.abstractmethod
    def draw_round_grid(
        self, num_replicates: int, size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Draw one round of contacts for an ``(num_replicates, size)`` grid.

        Returns ``(targets, offline)``: ``targets`` is an int64 grid of
        contact ids (never self), ``offline`` is a boolean grid of agents
        sitting out this round, or ``None`` when the topology has no churn.
        """


@dataclass(frozen=True)
class DegreeLimitedTopology(ContactTopology):
    """Ring contact graph: agent ``j`` only contacts ``j+1 .. j+degree`` (mod n)."""

    degree: int = 4
    kind: str = field(default="degree-limited", init=False)

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ParameterError(f"degree must be >= 1, got {self.degree}")

    def validate(self, size: int) -> None:
        super().validate(size)
        if self.degree > size - 1:
            raise ParameterError(
                f"degree {self.degree} exceeds size-1 ({size - 1}); use a uniform network"
            )

    def draw_round_grid(
        self, num_replicates: int, size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        self.validate(size)
        cols = np.arange(size, dtype=np.int64)
        offsets = np.floor(rng.random((num_replicates, size)) * self.degree).astype(np.int64)
        targets = (cols + 1 + offsets) % size
        return targets, None


@dataclass(frozen=True)
class TwoClusterTopology(ContactTopology):
    """Two equal communities with a sparse bridge between them.

    Agents ``0 .. size//2 - 1`` form cluster A, the rest cluster B.  Each
    contact stays within the sender's own cluster (uniform, excluding self)
    except with probability ``cross_probability``, when it targets a uniform
    member of the other cluster.
    """

    cross_probability: float = 0.05
    kind: str = field(default="two-cluster", init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.cross_probability <= 1.0:
            raise ParameterError(
                f"cross_probability must be in [0, 1], got {self.cross_probability}"
            )

    def validate(self, size: int) -> None:
        super().validate(size)
        if size < 4:
            raise ParameterError(f"two-cluster topology needs size >= 4, got {size}")

    def draw_round_grid(
        self, num_replicates: int, size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        self.validate(size)
        half = size // 2
        cols = np.arange(size, dtype=np.int64)
        in_a = cols < half
        own_start = np.where(in_a, 0, half)
        own_size = np.where(in_a, half, size - half)
        other_start = np.where(in_a, half, 0)
        other_size = np.where(in_a, size - half, half)

        cross = rng.random((num_replicates, size)) < self.cross_probability
        pick = rng.random((num_replicates, size))
        # Within-cluster pick excludes self by the usual skip trick.
        local = np.floor(pick * (own_size - 1)).astype(np.int64)
        local_pos = cols - own_start
        within = own_start + local + (local >= local_pos)
        across = other_start + np.floor(pick * other_size).astype(np.int64)
        return np.where(cross, across, within), None


@dataclass(frozen=True)
class ChurnTopology(ContactTopology):
    """Uniform contacts with per-round churn: agents are sometimes offline.

    Every round each agent is independently offline with probability
    ``offline_probability``; offline agents neither send nor receive that
    round (their inbound messages are lost, like a dropped connection).
    """

    offline_probability: float = 0.1
    kind: str = field(default="churn", init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.offline_probability < 1.0:
            raise ParameterError(
                f"offline_probability must be in [0, 1), got {self.offline_probability}"
            )

    def draw_round_grid(
        self, num_replicates: int, size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        self.validate(size)
        cols = np.arange(size, dtype=np.int64)
        offline = rng.random((num_replicates, size)) < self.offline_probability
        draws = np.floor(rng.random((num_replicates, size)) * (size - 1)).astype(np.int64)
        targets = draws + (draws >= cols)
        return targets, offline
