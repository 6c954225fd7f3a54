"""Unit tests for repro.core.synchronizer (Section 3: removing the global clock)."""

import numpy as np
import pytest

from repro.core.parameters import ProtocolParameters, StageOneParameters, StageTwoParameters
from repro.core.schedule import build_stage1_schedule, build_stage2_schedule
from repro.core.synchronizer import (
    default_guard,
    guarded_schedules,
    run_clock_free_broadcast,
    run_with_bounded_skew,
)
from repro.errors import ParameterError, SimulationError
from repro.exec.stage_batching import (
    _run_activation_phase_batch,
    run_bounded_skew_batch,
    run_clock_free_batch,
    run_stage1_batch,
    run_stage2_batch,
    seeded_batch_state,
    source_batch_state,
)
from repro.substrate.network import PushGossipNetwork
from repro.substrate.noise import BinarySymmetricChannel


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
    """Section 3.2's activation phase, one replicate."""

    @staticmethod
    def _activation(n, seed):
        return _run_activation_phase_batch(
            n, 1, PushGossipNetwork(size=n), BinarySymmetricChannel(epsilon=0.3),
            np.random.default_rng(seed),
        )

    def test_informs_everyone_and_bounds_skew(self):
        offsets, _, _, all_informed = self._activation(400, 21)
        assert all_informed.all()
        assert offsets.shape == (1, 400)
        # The skew is bounded by the broadcast duration (2 log2 n), w.h.p.
        assert offsets.max() - offsets.min() <= default_guard(400)
        # The source is the earliest agent to reset its clock.
        assert offsets[0, 0] == offsets.min()

    def test_message_count_bounded_by_n_times_duration(self):
        _, _, messages, _ = self._activation(300, 26)
        assert messages[0] <= 300 * default_guard(300)


class TestStagesOnSkewedClocks:
    """The stage kernels run on per-agent clock offsets."""

    STAGE1 = StageOneParameters(beta_s=40, beta=10, beta_f=80, num_intermediate_phases=1)

    @staticmethod
    def _kernel_inputs(n, seed):
        network = PushGossipNetwork(size=n)
        return network, BinarySymmetricChannel(epsilon=0.3), np.random.default_rng(seed)

    def test_stage1_with_skew_still_activates_everyone(self):
        network, channel, rng = self._kernel_inputs(250, 32)
        skew = 12
        offsets = rng.integers(0, skew, size=(1, 250)).astype(np.int64)
        result = run_stage1_batch(
            source_batch_state(250, 1, 1), network, channel, rng, self.STAGE1, 1,
            offsets=offsets, schedules=[build_stage1_schedule(self.STAGE1).dilated(skew)],
        )
        assert result.all_activated.all()
        # Guard gaps cost extra rounds on top of the base schedule.
        assert result.rounds >= self.STAGE1.total_rounds
        # Each phase's global window is its length plus the realised skew.
        realised = int(offsets.max() - offsets.min())
        assert [summary.rounds for summary in result.phases] == [
            phase.length + realised for phase in build_stage1_schedule(self.STAGE1)
        ]

    def test_stage2_on_skewed_clocks_boosts_bias(self):
        stage2 = StageTwoParameters(gamma=15, num_boost_phases=3, final_phase_rounds=120)
        network, channel, rng = self._kernel_inputs(250, 34)
        # 160 of 250 agents hold the correct opinion: majority-bias 0.14.
        state = seeded_batch_state(250, 1, 250, 0.14, 1, rng)
        skew = 9
        offsets = rng.integers(0, skew, size=(1, 250)).astype(np.int64)
        result = run_stage2_batch(
            state, network, channel, rng, stage2, 1,
            offsets=offsets, schedules=[build_stage2_schedule(stage2).dilated(skew)],
        )
        assert result.final_correct_fraction[0] > 0.95

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
        assert result.guard >= result.skew

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
        assert result.skew < 16

    @pytest.mark.parametrize(
        "entry_point, settings",
        [(run_with_bounded_skew, {"max_skew": 8}), (run_clock_free_broadcast, {})],
        ids=["bounded-skew", "clock-free"],
    )
    def test_overhead_counts_every_round_beyond_the_synchronous_schedule(
        self, entry_point, settings
    ):
        """The guard rounds are overhead too: at n = 300, max_skew = 8 the
        bounded-skew run takes 702 rounds against a 631-round schedule."""
        parameters = ProtocolParameters.calibrated(300, 0.3)
        result = entry_point(n=300, epsilon=0.3, seed=1, **settings)
        assert result.overhead_rounds == result.rounds - parameters.total_rounds
        assert result.overhead_rounds > 0

    @pytest.mark.parametrize("entry_point", [run_clock_free_broadcast, run_clock_free_batch])
    def test_guard_below_the_activation_skew_rejected(self, entry_point):
        settings = {"seed": 3} if entry_point is run_clock_free_broadcast else {"num_replicates": 2}
        with pytest.raises(ParameterError, match="at least the clock skew"):
            entry_point(n=150, epsilon=0.3, guard=1, **settings)

    def test_bounded_skew_validation(self):
        with pytest.raises(ParameterError):
            run_with_bounded_skew(n=100, epsilon=0.3, max_skew=0, seed=1)


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
