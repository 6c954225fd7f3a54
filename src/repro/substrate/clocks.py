"""The global round clock of the simulation.

The fully-synchronous setting of Section 2 assumes a single global round
counter that all agents share; :class:`GlobalClock` is that counter.
Section 3 of the paper removes the assumption: each agent has a private
clock that starts (at zero) when the agent is activated.  The Section-3
code keeps those clocks as a plain int64 array of per-agent *offsets* (the
global round at which each agent's clock reads zero) and derives every
local reading from the global clock (see :mod:`repro.core.synchronizer`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParameterError

__all__ = ["GlobalClock"]


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
