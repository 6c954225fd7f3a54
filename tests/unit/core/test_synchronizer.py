"""Unit tests for repro.core.synchronizer (Section 3: removing the global clock)."""

import numpy as np
import pytest

from repro.core.parameters import ProtocolParameters, StageOneParameters, StageTwoParameters
from repro.core.schedule import build_stage1_schedule, build_stage2_schedule
from repro.core.stage1 import execute_stage_one
from repro.core.stage2 import execute_stage_two
from repro.core.synchronizer import (
    ClockFreeBroadcastProtocol,
    default_guard,
    guarded_schedules,
    run_activation_phase,
    run_clock_free_broadcast,
    run_with_bounded_skew,
)
from repro.errors import ParameterError, SimulationError
from repro.exec.stage_batching import run_bounded_skew_batch, run_clock_free_batch
from repro.substrate import SimulationEngine


def small_parameters(n=250, epsilon=0.3):
    return ProtocolParameters.calibrated(n, epsilon)


class TestDefaultGuard:
    def test_matches_two_log_n(self):
        assert default_guard(1024) == 20
        assert default_guard(1000) == 20

    def test_invalid_n(self):
        with pytest.raises(ParameterError):
            default_guard(1)


class TestActivationPhase:
    def test_informs_everyone_and_bounds_skew(self):
        engine = SimulationEngine.create(n=400, epsilon=0.3, seed=21)
        result = run_activation_phase(engine)
        assert result.all_informed
        assert result.offsets.shape == (400,)
        # The skew is bounded by the broadcast duration (2 log2 n), w.h.p.
        assert result.skew <= default_guard(400)
        # The source is the earliest agent to reset its clock.
        assert result.offsets[0] == result.offsets.min()

    def test_does_not_touch_protocol_state(self):
        engine = SimulationEngine.create(n=200, epsilon=0.3, seed=22)
        run_activation_phase(engine)
        assert engine.population.num_opinionated() == 0
        assert engine.population.num_activated() == 1  # just the source

    def test_requires_informed_agent(self):
        engine = SimulationEngine.create(n=100, epsilon=0.3, seed=23, source=None)
        with pytest.raises(SimulationError):
            run_activation_phase(engine)

    def test_explicit_initial_set(self):
        engine = SimulationEngine.create(n=200, epsilon=0.3, seed=24, source=None)
        result = run_activation_phase(engine, initially_informed=np.asarray([5, 9]))
        assert result.all_informed

    def test_invalid_durations(self):
        engine = SimulationEngine.create(n=100, epsilon=0.3, seed=25)
        with pytest.raises(ParameterError):
            run_activation_phase(engine, broadcast_duration=10, reset_delay=5)

    def test_message_count_bounded_by_n_times_duration(self):
        engine = SimulationEngine.create(n=300, epsilon=0.3, seed=26)
        duration = default_guard(300)
        result = run_activation_phase(engine, broadcast_duration=duration)
        assert result.messages_sent <= 300 * duration


class TestStagesOnSkewedClocks:
    """The synchronous stage executors run on per-agent clock offsets."""

    STAGE1 = StageOneParameters(beta_s=40, beta=10, beta_f=80, num_intermediate_phases=1)

    def _source_engine(self, seed, n=250):
        engine = SimulationEngine.create(n=n, epsilon=0.3, seed=seed)
        engine.population.set_source_opinion(1)
        return engine

    def test_equal_clocks_reproduce_the_synchronous_run(self):
        """With identical offsets and the undilated schedule, the run is the
        synchronous one, draw for draw."""
        synchronous = execute_stage_one(self._source_engine(31), self.STAGE1, correct_opinion=1)
        skewed = execute_stage_one(
            self._source_engine(31), self.STAGE1, correct_opinion=1,
            offsets=np.zeros(250, dtype=np.int64), schedule=build_stage1_schedule(self.STAGE1),
        )
        assert skewed == synchronous
        assert skewed.all_activated
        assert skewed.rounds == self.STAGE1.total_rounds

    def test_stage1_with_skew_still_activates_everyone(self):
        engine = self._source_engine(32)
        skew = 12
        offsets = engine.random.stream("skew").integers(0, skew, size=250).astype(np.int64)
        result = execute_stage_one(
            engine, self.STAGE1, correct_opinion=1, offsets=offsets,
            schedule=build_stage1_schedule(self.STAGE1).dilated(skew),
        )
        assert result.all_activated
        # Guard gaps cost extra rounds on top of the base schedule.
        assert result.rounds >= self.STAGE1.total_rounds
        # Each phase's global window is its length plus the realised skew.
        realised = int(offsets.max() - offsets.min())
        assert [summary.rounds for summary in result.phases] == [
            phase.length + realised for phase in build_stage1_schedule(self.STAGE1)
        ]

    def test_guard_smaller_than_skew_rejected(self):
        stage1 = StageOneParameters(beta_s=10, beta=5, beta_f=10, num_intermediate_phases=0)
        engine = self._source_engine(33, n=100)
        offsets = np.zeros(100, dtype=np.int64)
        offsets[5] = 30
        with pytest.raises(ParameterError, match="at least the clock skew"):
            execute_stage_one(
                engine, stage1, 1, offsets=offsets,
                schedule=build_stage1_schedule(stage1).dilated(10),
            )
        assert engine.now == 0, "rejected before any round runs"

    def test_stage2_window_must_start_after_stage1_ends(self):
        """The gap before a stage's first phase must absorb the skew too."""
        stage2 = StageTwoParameters(gamma=15, num_boost_phases=3, final_phase_rounds=120)
        engine = SimulationEngine.create(n=100, epsilon=0.3, seed=36, source=None)
        engine.population.seed_opinionated_set(np.arange(100), np.ones(100, dtype=np.int8))
        engine.idle_round()
        with pytest.raises(ParameterError):
            execute_stage_two(
                engine, stage2, 1, offsets=np.zeros(100, dtype=np.int64),
                schedule=build_stage2_schedule(stage2),
            )

    def test_stage2_on_skewed_clocks_boosts_bias(self):
        stage2 = StageTwoParameters(gamma=15, num_boost_phases=3, final_phase_rounds=120)
        engine = SimulationEngine.create(n=250, epsilon=0.3, seed=34, source=None)
        members = np.arange(250)
        opinions = np.asarray([1] * 160 + [0] * 90, dtype=np.int8)
        engine.population.seed_opinionated_set(members, opinions)
        skew = 9
        offsets = engine.random.stream("skew").integers(0, skew, size=250).astype(np.int64)
        result = execute_stage_two(
            engine, stage2, correct_opinion=1, offsets=offsets,
            schedule=build_stage2_schedule(stage2).dilated(skew),
        )
        assert result.final_correct_fraction > 0.95

    def test_offsets_shape_validated(self):
        stage1 = StageOneParameters(beta_s=10, beta=5, beta_f=10, num_intermediate_phases=0)
        engine = self._source_engine(35, n=100)
        with pytest.raises(ParameterError, match="one entry per agent"):
            execute_stage_one(
                engine, stage1, 1, offsets=np.zeros(5),
                schedule=build_stage1_schedule(stage1).dilated(10),
            )

    def test_guarded_schedules_dilate_both_stages(self):
        parameters = small_parameters()
        stage1, stage2 = guarded_schedules(parameters, 7)
        assert stage1 == build_stage1_schedule(parameters.stage1).dilated(7)
        assert stage2 == build_stage2_schedule(parameters.stage2, start_round=stage1.end).dilated(7)


class TestClockFreeProtocol:
    def test_full_run_reaches_consensus(self):
        result = run_clock_free_broadcast(n=250, epsilon=0.3, seed=41)
        assert result.success
        assert result.final_correct_fraction == 1.0
        assert result.activation is not None
        assert result.guard >= result.activation.skew

    def test_overhead_is_additive_and_bounded(self):
        parameters = small_parameters()
        clock_free = run_clock_free_broadcast(n=250, epsilon=0.3, seed=42, parameters=parameters)
        num_phases = parameters.stage1.num_phases + parameters.stage2.num_phases
        # Guards + window extensions + activation: at most ~3 guard-lengths per phase.
        assert clock_free.rounds <= parameters.total_rounds + 3 * clock_free.guard * (num_phases + 2)
        assert clock_free.rounds > parameters.total_rounds

    def test_bounded_skew_variant(self):
        result = run_with_bounded_skew(n=250, epsilon=0.3, max_skew=16, seed=43)
        assert result.success
        assert result.guard == 16
        assert result.activation is None

    @pytest.mark.parametrize("entry_point", [run_clock_free_broadcast, run_clock_free_batch])
    def test_guard_below_the_activation_skew_rejected(self, entry_point):
        settings = {"seed": 3} if entry_point is run_clock_free_broadcast else {"num_replicates": 2}
        with pytest.raises(ParameterError, match="at least the clock skew"):
            entry_point(n=150, epsilon=0.3, guard=1, **settings)

    def test_bounded_skew_validation(self):
        with pytest.raises(ParameterError):
            run_with_bounded_skew(n=100, epsilon=0.3, max_skew=0, seed=1)

    def test_protocol_requires_source(self):
        parameters = small_parameters(100)
        engine = SimulationEngine.create(n=100, epsilon=0.3, seed=44, source=None)
        with pytest.raises(SimulationError):
            ClockFreeBroadcastProtocol(parameters).run(engine)


@pytest.mark.parametrize(
    "entry_point, settings",
    [
        (run_with_bounded_skew, {"max_skew": 4, "seed": 0}),
        (run_clock_free_broadcast, {"seed": 0}),
        (run_bounded_skew_batch, {"max_skew": 4, "num_replicates": 2}),
        (run_clock_free_batch, {"num_replicates": 2}),
    ],
    ids=["serial-skew", "serial-clock-free", "batch-skew", "batch-clock-free"],
)
def test_parameters_built_for_another_n_are_rejected(entry_point, settings):
    """Like the synchronous protocols, the Section-3 entry points refuse to
    run the schedule of another population size."""
    foreign = ProtocolParameters.calibrated(2000, 0.3)
    with pytest.raises(SimulationError, match="built for n=2000, not n=120"):
        entry_point(n=120, epsilon=0.3, parameters=foreign, **settings)
