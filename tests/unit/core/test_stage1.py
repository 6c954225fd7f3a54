"""Unit tests for repro.core.stage1 (the spreading stage)."""

import numpy as np
import pytest

from repro.core.parameters import StageOneParameters
from repro.core.stage1 import ReceptionAccumulator, execute_stage_one
from repro.errors import ParameterError, SimulationError
from repro.exec.stage_batching import BatchState, run_stage1_batch, source_batch_state
from repro.substrate import BinarySymmetricChannel, PushGossipNetwork, SimulationEngine
from repro.substrate.noise import PerfectChannel
from repro.substrate.population import NO_OPINION


def small_stage1_params():
    return StageOneParameters(beta_s=60, beta=20, beta_f=120, num_intermediate_phases=1)


class TestReceptionAccumulator:
    def test_counts_and_choice(self, rng):
        accumulator = ReceptionAccumulator(size=5)
        accumulator.observe(np.asarray([1, 2]), np.asarray([1, 0], dtype=np.int8), rng)
        accumulator.observe(np.asarray([1]), np.asarray([0], dtype=np.int8), rng)
        heard = accumulator.heard_anything()
        assert heard[1] and heard[2] and not heard[0]
        # Agent 2 heard a single 0 message, so its choice is forced.
        assert accumulator.chosen_bits(np.asarray([2]))[0] == 0

    def test_choice_is_uniform_over_heard_messages(self, rng):
        """Reservoir sampling picks each of k messages with probability 1/k."""
        picks = []
        for _ in range(4000):
            accumulator = ReceptionAccumulator(size=1)
            accumulator.observe(np.asarray([0]), np.asarray([1], dtype=np.int8), rng)
            accumulator.observe(np.asarray([0]), np.asarray([0], dtype=np.int8), rng)
            accumulator.observe(np.asarray([0]), np.asarray([0], dtype=np.int8), rng)
            picks.append(int(accumulator.chosen_bits(np.asarray([0]))[0]))
        assert np.mean(picks) == pytest.approx(1 / 3, abs=0.03)

    def test_chosen_bits_for_silent_agent_raises(self, rng):
        accumulator = ReceptionAccumulator(size=3)
        with pytest.raises(SimulationError):
            accumulator.chosen_bits(np.asarray([0]))

    def test_reset(self, rng):
        accumulator = ReceptionAccumulator(size=2)
        accumulator.observe(np.asarray([0]), np.asarray([1], dtype=np.int8), rng)
        accumulator.reset()
        assert not accumulator.heard_anything().any()


class TestExecuteStageOne:
    def test_requires_an_opinionated_agent(self):
        engine = SimulationEngine.create(n=50, epsilon=0.25, seed=3)
        with pytest.raises(SimulationError):
            execute_stage_one(engine, small_stage1_params(), correct_opinion=1)

    def test_round_and_phase_accounting(self):
        engine = SimulationEngine.create(n=300, epsilon=0.25, seed=3)
        engine.population.set_source_opinion(1)
        params = small_stage1_params()
        result = execute_stage_one(engine, params, correct_opinion=1)
        assert result.rounds == params.total_rounds == engine.now
        assert [summary.phase for summary in result.phases] == [0, 1, 2]
        assert [summary.rounds for summary in result.phases] == [60, 20, 120]
        assert result.messages_sent == engine.metrics.messages_sent
        assert sum(record.stage == "stage1" for record in engine.metrics.phases) == 3

    def test_phase0_only_source_speaks(self):
        engine = SimulationEngine.create(n=300, epsilon=0.25, seed=7)
        engine.population.set_source_opinion(1)
        result = execute_stage_one(engine, small_stage1_params(), correct_opinion=1)
        phase0 = result.phase(0)
        assert phase0.senders == 1
        assert phase0.messages_sent == 60
        # Source cannot activate more agents than it sent messages.
        assert phase0.newly_activated <= 60

    def test_activation_grows_and_covers_population(self):
        engine = SimulationEngine.create(n=300, epsilon=0.25, seed=11)
        engine.population.set_source_opinion(1)
        result = execute_stage_one(engine, small_stage1_params(), correct_opinion=1)
        totals = [summary.activated_total for summary in result.phases]
        assert totals == sorted(totals)
        assert result.all_activated
        assert engine.population.num_opinionated() == 300

    def test_noiseless_channel_gives_perfect_bias(self):
        engine = SimulationEngine.create(
            n=300, epsilon=0.5, seed=13, channel=PerfectChannel()
        )
        engine.population.set_source_opinion(1)
        result = execute_stage_one(engine, small_stage1_params(), correct_opinion=1)
        assert result.final_bias == pytest.approx(0.5)
        assert result.initially_correct == 300

    def test_noisy_channel_keeps_positive_bias(self):
        engine = SimulationEngine.create(n=400, epsilon=0.3, seed=17)
        engine.population.set_source_opinion(1)
        result = execute_stage_one(engine, small_stage1_params(), correct_opinion=1)
        assert 0.0 < result.final_bias < 0.5

    def test_symmetry_between_opinions(self):
        """The message pattern must not depend on which opinion is correct (Section 1.3.4)."""

        def run(correct_opinion):
            engine = SimulationEngine.create(n=200, epsilon=0.3, seed=23)
            engine.population.set_source_opinion(correct_opinion)
            result = execute_stage_one(engine, small_stage1_params(), correct_opinion=correct_opinion)
            return result.messages_sent, [s.activated_total for s in result.phases], result.final_bias

        messages_one, totals_one, bias_one = run(1)
        messages_zero, totals_zero, bias_zero = run(0)
        assert messages_one == messages_zero
        assert totals_one == totals_zero
        assert bias_one == pytest.approx(bias_zero)

    def test_dormant_agents_never_send(self):
        """In every phase the number of senders equals the agents activated before it."""
        engine = SimulationEngine.create(n=300, epsilon=0.25, seed=31)
        engine.population.set_source_opinion(1)
        result = execute_stage_one(engine, small_stage1_params(), correct_opinion=1)
        previous_total = 1
        for summary in result.phases:
            assert summary.senders == previous_total
            previous_total = summary.activated_total


class TestLateStart:
    """Corollary 2.18's late start, on the Stage-I kernel at one replicate."""

    @staticmethod
    def _run(state, start_phase):
        n = state.shape[1]
        return run_stage1_batch(
            state, PushGossipNetwork(size=n), BinarySymmetricChannel(epsilon=0.25),
            np.random.default_rng(29), small_stage1_params(), 1, start_phase=start_phase,
        )

    def test_start_phase_with_seeded_set(self):
        opinions = np.full((1, 300), NO_OPINION, dtype=np.int8)
        opinions[0, :40] = [1] * 30 + [0] * 10
        state = BatchState(
            opinions=opinions, activated=opinions != NO_OPINION,
            messages_sent=np.zeros(1, dtype=np.int64),
        )
        params = small_stage1_params()
        result = self._run(state, start_phase=1)
        assert [summary.phase for summary in result.phases] == [1, 2]
        assert result.rounds == params.phase_length(1) + params.phase_length(2)
        assert result.all_activated.all()

    @pytest.mark.parametrize("start_phase", [-1, 3, 5])
    def test_start_phase_outside_the_stage_rejected(self, start_phase):
        """A start phase the stage does not have is an error, not a skipped stage."""
        state = source_batch_state(300, 1, 1)
        with pytest.raises(ParameterError, match="out of range"):
            self._run(state, start_phase)
        assert state.rounds == 0
