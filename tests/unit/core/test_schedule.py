"""Unit tests for repro.core.schedule."""

import pytest

from repro.core.parameters import StageOneParameters, StageTwoParameters
from repro.core.schedule import (
    PhaseInterval,
    PhaseSchedule,
    build_stage1_schedule,
    build_stage2_schedule,
)
from repro.errors import ParameterError, ScheduleError


@pytest.fixture
def stage1_params():
    return StageOneParameters(beta_s=20, beta=5, beta_f=30, num_intermediate_phases=2)


@pytest.fixture
def stage2_params():
    return StageTwoParameters(gamma=7, num_boost_phases=3, final_phase_rounds=40)


class TestPhaseInterval:
    def test_length(self):
        assert PhaseInterval(index=1, start=5, end=9).length == 4

    def test_empty_interval_rejected(self):
        with pytest.raises(ScheduleError):
            PhaseInterval(index=0, start=5, end=5)


class TestStage1Schedule:
    def test_matches_paper_intervals(self, stage1_params):
        schedule = build_stage1_schedule(stage1_params)
        # Paper Section 2.1.2: phase 0 = [0, beta_s), phase i = [beta_s+(i-1)beta, beta_s+i beta),
        # phase T+1 = [beta_s+T beta, beta_s+T beta+beta_f).
        assert [(p.index, p.start, p.end) for p in schedule] == [
            (0, 0, 20),
            (1, 20, 25),
            (2, 25, 30),
            (3, 30, 60),
        ]
        assert schedule.total_rounds == stage1_params.total_rounds

    def test_start_round_offset(self, stage1_params):
        schedule = build_stage1_schedule(stage1_params, start_round=100)
        assert schedule.start == 100
        assert schedule.end == 100 + stage1_params.total_rounds

    def test_start_phase_skips_early_phases(self, stage1_params):
        schedule = build_stage1_schedule(stage1_params, start_phase=2)
        assert [phase.index for phase in schedule] == [2, 3]
        assert schedule.total_rounds == 5 + 30

    def test_invalid_start_phase(self, stage1_params):
        with pytest.raises(ParameterError):
            build_stage1_schedule(stage1_params, start_phase=4)

class TestStage2Schedule:
    def test_phases_are_one_based_and_contiguous(self, stage2_params):
        schedule = build_stage2_schedule(stage2_params, start_round=7)
        assert [phase.index for phase in schedule] == [1, 2, 3, 4]
        assert schedule.start == 7
        assert all(
            later.start == earlier.end for earlier, later in zip(schedule.phases, schedule.phases[1:])
        )
        assert schedule.phases[-1].length == 40


class TestDilation:
    def test_dilated_inserts_guards(self, stage1_params):
        schedule = build_stage1_schedule(stage1_params)
        dilated = schedule.dilated(guard=10)
        assert len(dilated) == len(schedule)
        for original, shifted in zip(schedule, dilated):
            assert shifted.length == original.length
            assert shifted.index == original.index
        # Consecutive dilated phases are separated by exactly the guard.
        for earlier, later in zip(dilated.phases, dilated.phases[1:]):
            assert later.start - earlier.end == 10
        # Every phase is pushed back by one extra guard window.
        assert dilated.end == schedule.end + 10 * len(schedule)

    def test_zero_guard_returns_same_schedule(self, stage1_params):
        schedule = build_stage1_schedule(stage1_params)
        assert schedule.dilated(0) is schedule

    def test_negative_guard_rejected(self, stage1_params):
        with pytest.raises(ParameterError):
            build_stage1_schedule(stage1_params).dilated(-1)


class TestScheduleValidation:
    def test_overlapping_phases_rejected(self):
        with pytest.raises(ScheduleError):
            PhaseSchedule(stage="x", phases=(PhaseInterval(0, 0, 10), PhaseInterval(1, 5, 15)))

    def test_gaps_are_allowed(self):
        schedule = PhaseSchedule(stage="x", phases=(PhaseInterval(0, 0, 10), PhaseInterval(1, 20, 30)))
        assert schedule.total_rounds == 30

    def test_empty_schedule_rejected(self):
        with pytest.raises(ScheduleError):
            PhaseSchedule(stage="x", phases=())
