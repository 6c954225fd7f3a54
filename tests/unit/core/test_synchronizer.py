"""Unit tests for repro.core.synchronizer (Section 3: removing the global clock)."""

import numpy as np
import pytest

from repro.core.parameters import ProtocolParameters, StageOneParameters, StageTwoParameters
from repro.core.schedule import build_stage1_schedule
from repro.core.synchronizer import (
    ClockFreeBroadcastProtocol,
    default_guard,
    execute_stage_one_windowed,
    execute_stage_two_windowed,
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


class TestWindowedExecutors:
    def test_zero_skew_windowed_stage1_matches_synchronous_schedule(self):
        """With identical offsets the windowed executor behaves like the synchronous one."""
        stage1 = StageOneParameters(beta_s=40, beta=10, beta_f=80, num_intermediate_phases=1)
        engine = SimulationEngine.create(n=250, epsilon=0.3, seed=31)
        engine.population.set_source_opinion(1)
        offsets = np.zeros(250, dtype=np.int64)
        result = execute_stage_one_windowed(
            engine, stage1, correct_opinion=1, offsets=offsets, guard=0,
            schedule=build_stage1_schedule(stage1),
        )
        assert result.all_activated
        assert result.rounds == stage1.total_rounds
        assert result.final_bias > 0

    def test_windowed_stage1_with_skew_still_activates_everyone(self):
        stage1 = StageOneParameters(beta_s=40, beta=10, beta_f=80, num_intermediate_phases=1)
        engine = SimulationEngine.create(n=250, epsilon=0.3, seed=32)
        engine.population.set_source_opinion(1)
        skew = 12
        offsets = engine.random.stream("skew").integers(0, skew, size=250).astype(np.int64)
        result = execute_stage_one_windowed(
            engine, stage1, correct_opinion=1, offsets=offsets, guard=skew
        )
        assert result.all_activated
        # Guard gaps cost extra rounds on top of the base schedule.
        assert result.rounds >= stage1.total_rounds

    def test_guard_smaller_than_skew_rejected(self):
        stage1 = StageOneParameters(beta_s=10, beta=5, beta_f=10, num_intermediate_phases=0)
        engine = SimulationEngine.create(n=100, epsilon=0.3, seed=33)
        engine.population.set_source_opinion(1)
        offsets = np.zeros(100, dtype=np.int64)
        offsets[5] = 30
        with pytest.raises(ParameterError):
            execute_stage_one_windowed(engine, stage1, 1, offsets=offsets, guard=10)

    def test_windowed_stage2_boosts_bias(self):
        stage2 = StageTwoParameters(gamma=15, num_boost_phases=3, final_phase_rounds=120)
        engine = SimulationEngine.create(n=250, epsilon=0.3, seed=34, source=None)
        members = np.arange(250)
        opinions = np.asarray([1] * 160 + [0] * 90, dtype=np.int8)
        engine.population.seed_opinionated_set(members, opinions)
        skew = 9
        offsets = engine.random.stream("skew").integers(0, skew, size=250).astype(np.int64)
        result = execute_stage_two_windowed(
            engine, stage2, correct_opinion=1, offsets=offsets, guard=skew
        )
        assert result.final_correct_fraction > 0.95

    def test_offsets_shape_validated(self):
        stage1 = StageOneParameters(beta_s=10, beta=5, beta_f=10, num_intermediate_phases=0)
        engine = SimulationEngine.create(n=100, epsilon=0.3, seed=35)
        engine.population.set_source_opinion(1)
        with pytest.raises(ParameterError):
            execute_stage_one_windowed(engine, stage1, 1, offsets=np.zeros(5), guard=10)


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
