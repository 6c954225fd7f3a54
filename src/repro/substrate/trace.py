"""Structured event tracing for small-scale debugging runs.

Traces are never required for correctness; they exist so that unit tests and
human debugging sessions can inspect the exact sequence of deliveries and
opinion changes a protocol produced at small ``n``.  The trace is bounded so
that accidentally enabling it on a large run cannot exhaust memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

__all__ = ["TraceEvent", "EventTrace"]


@dataclass(frozen=True)
class TraceEvent:
    """A single traced event.

    Attributes
    ----------
    round_index:
        Global round at which the event happened.
    kind:
        Event category, e.g. ``"deliver"``, ``"adopt"``, ``"phase_start"``.
    payload:
        Arbitrary JSON-serialisable details.
    """

    round_index: int
    kind: str
    payload: Dict[str, Any]


@dataclass
class EventTrace:
    """A bounded, append-only list of :class:`TraceEvent`.

    Parameters
    ----------
    enabled:
        When ``False`` (the default) every call is a no-op, so hot loops can
        call :meth:`record` unconditionally.
    max_events:
        Hard cap on stored events; once reached, further events are counted
        but not stored.
    """

    enabled: bool = False
    max_events: int = 100_000
    events: List[TraceEvent] = field(default_factory=list)
    dropped: int = 0

    def record(self, round_index: int, kind: str, **payload: Any) -> None:
        """Record an event (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(TraceEvent(round_index=round_index, kind=kind, payload=payload))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def clear(self) -> None:
        """Drop all stored events."""
        self.events.clear()
        self.dropped = 0
