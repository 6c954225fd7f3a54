"""Unit tests for repro.core.broadcast."""

import pytest

from repro.core.broadcast import NoisyBroadcastProtocol, solve_noisy_broadcast
from repro.core.parameters import ProtocolParameters
from repro.errors import SimulationError
from repro.substrate import (
    BinarySymmetricChannel,
    Population,
    PushGossipNetwork,
    RandomSource,
    SimulationEngine,
)


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

    def test_time_series_recording(self):
        result = solve_noisy_broadcast(n=200, epsilon=0.3, seed=11, record_time_series=True)
        assert result.success


class TestNoisyBroadcastProtocol:
    def test_requires_source(self):
        parameters = ProtocolParameters.calibrated(100, 0.3)
        engine = SimulationEngine(
            population=Population(size=100, source=None),
            network=PushGossipNetwork(size=100),
            channel=BinarySymmetricChannel(epsilon=0.3),
            random=RandomSource(seed=1),
        )
        with pytest.raises(SimulationError):
            NoisyBroadcastProtocol(parameters).run(engine)

    def test_rejects_mismatched_engine_size(self):
        parameters = ProtocolParameters.calibrated(100, 0.3)
        engine = SimulationEngine.create(n=200, epsilon=0.3, seed=1)
        with pytest.raises(SimulationError):
            NoisyBroadcastProtocol(parameters).run(engine)

    def test_stage_results_exposed(self, small_result):
        assert small_result.stage1.all_activated
        assert small_result.stage1.final_bias > 0
        assert small_result.stage2.consensus_reached
