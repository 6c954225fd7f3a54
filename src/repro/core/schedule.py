"""Explicit phase schedules for the two-stage protocol.

Section 2.1.2 of the paper defines Stage I's phases by explicit round
intervals (``phase 0 = [0, beta_s)``, ``phase i = [beta_s + (i-1) beta,
beta_s + i beta)``, ...) and Section 3 shifts each phase ``i`` by an extra
``i * D`` rounds to tolerate clock skew ``D``.  This module materialises
those intervals so that executors, tests and the Section-3 synchronizer all
share one source of truth about *when* each phase happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

from ..errors import ParameterError, ScheduleError
from .parameters import StageOneParameters, StageTwoParameters

__all__ = ["PhaseInterval", "PhaseSchedule", "build_stage1_schedule", "build_stage2_schedule"]


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

    def contains(self, round_index: int) -> bool:
        """True when ``round_index`` falls inside the phase."""
        return self.start <= round_index < self.end

    def shifted(self, offset: int) -> "PhaseInterval":
        """The same phase shifted by ``offset`` rounds."""
        return PhaseInterval(self.index, self.start + offset, self.end + offset)


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
