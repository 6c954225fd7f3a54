"""Unit tests for repro.core.broadcast."""

import pytest

from repro.core.broadcast import solve_noisy_broadcast
from repro.core.parameters import ProtocolParameters
from repro.errors import ParameterError, SimulationError


@pytest.fixture(scope="module")
def small_result():
    """One shared small broadcast run (kept module-scoped for speed)."""
    return solve_noisy_broadcast(n=300, epsilon=0.3, seed=123)


class TestSolveNoisyBroadcast:
    def test_reaches_correct_consensus(self, small_result):
        assert small_result.success
        assert small_result.final_correct_fraction == 1.0
        assert small_result.n == 300
        assert small_result.epsilon == 0.3

    def test_complexity_accounting_is_consistent(self, small_result):
        assert small_result.rounds == small_result.stage1.rounds + small_result.stage2.rounds
        assert (
            small_result.messages_sent
            == small_result.stage1.messages_sent + small_result.stage2.messages_sent
        )
        assert small_result.messages_per_agent == pytest.approx(small_result.messages_sent / 300)

    def test_rounds_match_parameter_schedule(self):
        parameters = ProtocolParameters.calibrated(300, 0.3)
        result = solve_noisy_broadcast(n=300, epsilon=0.3, seed=5, parameters=parameters)
        assert result.rounds == parameters.total_rounds

    def test_messages_bounded_by_agents_times_rounds(self, small_result):
        assert small_result.messages_sent <= 300 * small_result.rounds

    def test_reproducible_for_fixed_seed(self):
        first = solve_noisy_broadcast(n=200, epsilon=0.3, seed=77)
        second = solve_noisy_broadcast(n=200, epsilon=0.3, seed=77)
        assert first.rounds == second.rounds
        assert first.messages_sent == second.messages_sent
        assert first.stage1.final_bias == second.stage1.final_bias

    def test_different_seeds_differ(self):
        first = solve_noisy_broadcast(n=200, epsilon=0.3, seed=1)
        second = solve_noisy_broadcast(n=200, epsilon=0.3, seed=2)
        assert first.messages_sent != second.messages_sent or (
            first.stage1.final_bias != second.stage1.final_bias
        )

    def test_broadcast_of_opinion_zero(self):
        result = solve_noisy_broadcast(n=250, epsilon=0.3, seed=9, correct_opinion=0)
        assert result.success
        assert result.correct_opinion == 0

    def test_calibration_overrides_forwarded(self):
        result = solve_noisy_broadcast(n=250, epsilon=0.3, seed=3, extra_boost_phases=0, g0=1.0)
        smaller = result.rounds
        default = solve_noisy_broadcast(n=250, epsilon=0.3, seed=3).rounds
        assert smaller < default

    def test_each_stage_runs_its_schedule(self, small_result):
        parameters = ProtocolParameters.calibrated(300, 0.3)
        for stage, stage_parameters in (
            (small_result.stage1, parameters.stage1),
            (small_result.stage2, parameters.stage2),
        ):
            assert stage.rounds == stage_parameters.total_rounds
            assert stage.messages_sent == sum(phase.messages_sent for phase in stage.phases)

    def test_rejects_parameters_built_for_another_n(self):
        parameters = ProtocolParameters.calibrated(100, 0.3)
        with pytest.raises(SimulationError, match="built for 100"):
            solve_noisy_broadcast(n=200, epsilon=0.3, seed=1, parameters=parameters)

    def test_stage_results_exposed(self, small_result):
        assert small_result.stage1.all_activated
        assert small_result.stage1.final_bias > 0
        assert small_result.stage2.consensus_reached


class TestSolveNoisyBroadcastInputs:
    @pytest.mark.parametrize("correct_opinion", [-1, 2, 7])
    def test_rejects_an_opinion_outside_zero_one(self, correct_opinion):
        with pytest.raises(ParameterError, match="opinion must be 0 or 1"):
            solve_noisy_broadcast(n=100, epsilon=0.3, seed=1, correct_opinion=correct_opinion)

    @pytest.mark.parametrize("built_for", [50, 199, 201])
    def test_rejects_parameters_of_any_other_size(self, built_for):
        parameters = ProtocolParameters.calibrated(built_for, 0.3)
        with pytest.raises(SimulationError, match=f"built for {built_for}"):
            solve_noisy_broadcast(n=200, epsilon=0.3, seed=1, parameters=parameters)


class TestSolveNoisyBroadcastDeterminism:
    @pytest.mark.parametrize("seed", [0, 7, 77])
    def test_same_seed_gives_an_equal_result(self, seed):
        assert solve_noisy_broadcast(n=150, epsilon=0.3, seed=seed) == solve_noisy_broadcast(
            n=150, epsilon=0.3, seed=seed
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_message_pattern_is_blind_to_the_correct_opinion(self, seed):
        """Who hears whom does not depend on the bits (Section 1.3.4), seed for seed."""
        one = solve_noisy_broadcast(n=150, epsilon=0.3, seed=seed, correct_opinion=1)
        zero = solve_noisy_broadcast(n=150, epsilon=0.3, seed=seed, correct_opinion=0)
        assert one.rounds == zero.rounds
        assert one.messages_sent == zero.messages_sent
        assert [p.activated_total for p in one.stage1.phases] == [
            p.activated_total for p in zero.stage1.phases
        ]
        assert [p.successful_agents for p in one.stage2.phases] == [
            p.successful_agents for p in zero.stage2.phases
        ]
