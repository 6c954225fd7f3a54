"""Clock models: the global clock of Section 2 and local clocks of Section 3.

The fully-synchronous setting assumes a single global round counter that all
agents share.  Section 3 of the paper removes this assumption: each agent has
a private clock that starts (at zero) when the agent is activated, and the
algorithm is modified so that agents whose clocks are at most ``D`` apart
still execute each phase during disjoint global-time windows.

:class:`GlobalClock` is the trivial shared counter.  :class:`LocalClocks`
keeps a per-agent clock *offset*: the global round at which the agent's clock
last read zero.  The Section-3 simulation advances global time and derives
every agent's local reading from its offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError

__all__ = ["GlobalClock", "LocalClocks"]


@dataclass
class GlobalClock:
    """A single shared round counter."""

    now: int = 0

    def tick(self, rounds: int = 1) -> int:
        """Advance the clock by ``rounds`` and return the new time."""
        if rounds < 0:
            raise ParameterError("cannot tick a clock backwards")
        self.now += rounds
        return self.now

    def reset(self) -> None:
        """Reset the clock to zero."""
        self.now = 0


@dataclass
class LocalClocks:
    """Per-agent clocks defined by activation offsets.

    Attributes
    ----------
    size:
        Number of agents.
    offsets:
        ``offsets[a]`` is the global round at which agent ``a``'s clock read
        zero, or ``-1`` if the agent's clock has not started yet.
    """

    size: int
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ParameterError("need at least one agent")
        self.offsets = np.full(self.size, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    def start(self, agents: np.ndarray, global_time: int) -> None:
        """Start the clocks of ``agents`` at ``global_time`` if not yet started."""
        agents = np.asarray(agents, dtype=np.int64)
        fresh = agents[self.offsets[agents] < 0]
        self.offsets[fresh] = global_time

    def reset(self, agents: np.ndarray, global_time: int) -> None:
        """Force the clocks of ``agents`` to read zero at ``global_time``.

        Used by the Section-3 activation phase, which resets an agent's clock
        ``4 log n`` rounds after it first heard a message.
        """
        agents = np.asarray(agents, dtype=np.int64)
        self.offsets[agents] = global_time

    def started(self) -> np.ndarray:
        """Boolean mask of agents whose clocks are running."""
        return self.offsets >= 0

    def skew(self) -> int:
        """Maximum difference between any two running clocks (the paper's ``D``)."""
        running = self.offsets[self.offsets >= 0]
        if running.size == 0:
            return 0
        return int(running.max() - running.min())
