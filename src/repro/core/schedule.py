"""Explicit phase schedules for the two-stage protocol.

Section 2.1.2 of the paper defines Stage I's phases by explicit round
intervals (``phase 0 = [0, beta_s)``, ``phase i = [beta_s + (i-1) beta,
beta_s + i beta)``, ...) and Section 3 shifts each phase ``i`` by an extra
``i * D`` rounds to tolerate clock skew ``D``.  This module materialises
those intervals so that executors, tests and the Section-3 synchronizer all
share one source of truth about *when* each phase happens, and maps a
local-time schedule onto the global rounds in which agents with skewed
clocks run it (:func:`phase_windows`, :func:`gossip_phase`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ParameterError, ScheduleError
from ..substrate.engine import SimulationEngine
from ..substrate.network import DeliveryReport
from .parameters import StageOneParameters, StageTwoParameters

__all__ = [
    "PhaseInterval",
    "PhaseSchedule",
    "build_stage1_schedule",
    "build_stage2_schedule",
    "phase_windows",
    "gossip_phase",
]


@dataclass(frozen=True)
class PhaseInterval:
    """A half-open round interval ``[start, end)`` assigned to one phase."""

    index: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ScheduleError(f"phase {self.index} has non-positive length: [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        """Number of rounds in the phase."""
        return self.end - self.start


@dataclass(frozen=True)
class PhaseSchedule:
    """An ordered sequence of non-overlapping :class:`PhaseInterval`.

    Synchronous schedules are contiguous (each phase starts where the
    previous one ended); dilated schedules (Section 3) leave guard gaps
    between phases.  Both are valid; overlapping or out-of-order phases are
    not.
    """

    stage: str
    phases: Sequence[PhaseInterval]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ScheduleError("a schedule must contain at least one phase")
        previous_end = self.phases[0].start
        for phase in self.phases:
            if phase.start < previous_end:
                raise ScheduleError(
                    f"{self.stage} schedule overlaps at phase {phase.index}: "
                    f"phase starts at {phase.start} before the previous one ends at {previous_end}"
                )
            previous_end = phase.end

    def __iter__(self) -> Iterator[PhaseInterval]:
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)

    @property
    def start(self) -> int:
        """First round covered by the schedule."""
        return self.phases[0].start

    @property
    def end(self) -> int:
        """One past the last round covered by the schedule."""
        return self.phases[-1].end

    @property
    def total_rounds(self) -> int:
        """Total rounds covered."""
        return self.end - self.start

    def dilated(self, guard: int) -> "PhaseSchedule":
        """Insert ``guard`` idle rounds before each phase (Section 3.1's ``i*D`` shifts).

        Phase ``j`` (by position in this schedule) starts ``(j + 1) * guard``
        rounds later than in the original schedule, so consecutive phases are
        separated by a guard window long enough to absorb clock skew ``guard``.
        """
        if guard < 0:
            raise ParameterError("guard must be non-negative")
        if guard == 0:
            return self
        dilated: List[PhaseInterval] = []
        cursor = self.start
        for phase in self.phases:
            cursor += guard
            dilated.append(PhaseInterval(phase.index, cursor, cursor + phase.length))
            cursor += phase.length
        return PhaseSchedule(stage=self.stage, phases=tuple(dilated))


def build_stage1_schedule(
    parameters: StageOneParameters, start_round: int = 0, start_phase: int = 0
) -> PhaseSchedule:
    """Materialise Stage I's phase intervals.

    Parameters
    ----------
    parameters:
        Stage-I round budget.
    start_round:
        Global round at which the first scheduled phase begins.
    start_phase:
        First phase to include.  Corollary 2.18 starts majority-consensus
        instances at phase ``i_A > 0``; broadcast instances start at 0.
    """
    if not 0 <= start_phase < parameters.num_phases:
        raise ParameterError(
            f"start_phase {start_phase} out of range (stage has {parameters.num_phases} phases)"
        )
    phases: List[PhaseInterval] = []
    cursor = start_round
    for index in range(start_phase, parameters.num_phases):
        length = parameters.phase_length(index)
        phases.append(PhaseInterval(index=index, start=cursor, end=cursor + length))
        cursor += length
    return PhaseSchedule(stage="stage1", phases=tuple(phases))


def build_stage2_schedule(parameters: StageTwoParameters, start_round: int = 0) -> PhaseSchedule:
    """Materialise Stage II's phase intervals (phases are 1-based as in the paper)."""
    phases: List[PhaseInterval] = []
    cursor = start_round
    for index in range(1, parameters.num_phases + 1):
        length = parameters.phase_length(index)
        phases.append(PhaseInterval(index=index, start=cursor, end=cursor + length))
        cursor += length
    return PhaseSchedule(stage="stage2", phases=tuple(phases))


def phase_windows(
    schedule: PhaseSchedule, offsets: Optional[np.ndarray], size: int, now: int
) -> Tuple[np.ndarray, List[Tuple[PhaseInterval, range, range]]]:
    """Map a local-time schedule onto global rounds for ``size`` agents.

    Agent ``a`` runs local round ``t`` at global round ``offsets[a] + t``
    (Section 3.1); ``offsets=None`` means every clock reads zero at global
    round ``now``.  Returns the offsets as an int64 array and, per phase,
    its *window* — the global rounds in which some agent's clock is inside
    the phase — and its *interior*, the rounds in which every agent's clock
    is.  With equal clocks the two coincide; the interior is empty when the
    phase is shorter than the clock skew.

    Raises
    ------
    ParameterError
        When ``offsets`` does not hold one entry per agent, or a window
        starts before ``now`` or before the previous window ends: the gap
        before each phase must absorb the clock skew.
    """
    if offsets is None:
        offsets = np.full(size, now, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.shape != (size,):
        raise ParameterError("offsets must contain one entry per agent")
    earliest, latest = int(offsets.min()), int(offsets.max())
    windows = []
    previous_end = now
    for phase in schedule:
        window = range(phase.start + earliest, phase.end + latest)
        if window.start < previous_end:
            raise ParameterError(
                f"phase {phase.index} starts at global round {window.start}, before round "
                f"{previous_end}: the guard before each phase must be at least the clock skew"
            )
        windows.append((phase, window, range(phase.start + latest, phase.end + earliest)))
        previous_end = window.stop
    return offsets, windows


def gossip_phase(
    engine: SimulationEngine,
    phase: PhaseInterval,
    window: range,
    interior: range,
    offsets: np.ndarray,
    senders: np.ndarray,
    bits: np.ndarray,
    correct_opinion: int,
) -> Iterator[Tuple[int, DeliveryReport]]:
    """Run one phase's global ``window`` on ``engine``; yield ``(speakers, report)`` per round.

    ``senders``/``bits`` are the agents that speak in the phase.  In
    interior rounds all of them speak, exactly as in the synchronous
    setting; in the window's edge rounds only those whose own clock is
    inside the phase do, and a round in which nobody's is idles without
    drawing randomness.  Rounds before the window idle too.
    """
    while engine.now < window.start:
        engine.idle_round()
    while engine.now < window.stop:
        speaking_senders, speaking_bits = senders, bits
        if engine.now not in interior:
            local = engine.now - offsets[senders]
            speaking = (local >= phase.start) & (local < phase.end)
            if not speaking.any():
                engine.idle_round()
                continue
            speaking_senders, speaking_bits = senders[speaking], bits[speaking]
        report = engine.gossip_round(speaking_senders, speaking_bits, correct_opinion=correct_opinion)
        yield speaking_senders.size, report
