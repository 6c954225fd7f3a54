"""Unit tests for repro.core.stage1 (the spreading stage)."""

import numpy as np
import pytest

from repro.core.opinions import NO_OPINION, bias_from_counts
from repro.core.parameters import StageOneParameters
from repro.core.stage1 import ReceptionAccumulator, execute_stage_one
from repro.errors import ParameterError, SimulationError
from repro.exec.stage_batching import BatchState, run_stage1_batch, source_batch_state
from repro.substrate import BinarySymmetricChannel, PushGossipNetwork, RandomSource
from repro.substrate.noise import PerfectChannel


def small_stage1_params():
    return StageOneParameters(beta_s=60, beta=20, beta_f=120, num_intermediate_phases=1)


def source_population(n, source_opinion=1):
    """``(opinions, activated)`` of ``n`` agents, agent 0 the activated source."""
    opinions = np.full(n, NO_OPINION, dtype=np.int8)
    activated = np.zeros(n, dtype=bool)
    activated[0] = True
    if source_opinion is not None:
        opinions[0] = source_opinion
    return opinions, activated


def run_stage_one(n, epsilon, seed, correct_opinion=1, channel=None):
    """Stage I from a source holding ``correct_opinion``.

    Returns the result and the final ``(opinions, activated)`` arrays.
    """
    opinions, activated = source_population(n, correct_opinion)
    channel = channel if channel is not None else BinarySymmetricChannel(epsilon=epsilon)
    result = execute_stage_one(
        opinions, activated, small_stage1_params(), correct_opinion, channel, RandomSource(seed)
    )
    return result, opinions, activated


class TestReceptionAccumulator:
    def test_counts_and_choice(self, rng):
        accumulator = ReceptionAccumulator(size=5)
        accumulator.observe(np.asarray([1, 2]), np.asarray([1, 0], dtype=np.int8))
        accumulator.observe(np.asarray([1]), np.asarray([0], dtype=np.int8))
        heard = accumulator.heard_anything()
        assert heard[1] and heard[2] and not heard[0]
        # Agent 2 heard a single 0 message, so its choice is forced.
        assert accumulator.chosen_bits(np.asarray([2]), rng)[0] == 0

    def test_choice_is_uniform_over_heard_messages(self, rng):
        """The phase-end draw picks each of k messages with probability 1/k."""
        picks = []
        for _ in range(4000):
            accumulator = ReceptionAccumulator(size=1)
            accumulator.observe(np.asarray([0]), np.asarray([1], dtype=np.int8))
            accumulator.observe(np.asarray([0]), np.asarray([0], dtype=np.int8))
            accumulator.observe(np.asarray([0]), np.asarray([0], dtype=np.int8))
            picks.append(int(accumulator.chosen_bits(np.asarray([0]), rng)[0]))
        assert np.mean(picks) == pytest.approx(1 / 3, abs=0.03)

    def test_chosen_bits_for_silent_agent_raises(self, rng):
        accumulator = ReceptionAccumulator(size=3)
        with pytest.raises(SimulationError):
            accumulator.chosen_bits(np.asarray([0]), rng)

    def test_reset(self, rng):
        accumulator = ReceptionAccumulator(size=2)
        accumulator.observe(np.asarray([0]), np.asarray([1], dtype=np.int8))
        accumulator.reset()
        assert not accumulator.heard_anything().any()


class TestExecuteStageOne:
    def test_requires_an_opinionated_agent(self):
        opinions, activated = source_population(50, source_opinion=None)
        with pytest.raises(SimulationError, match="at least one initially opinionated"):
            execute_stage_one(
                opinions, activated, small_stage1_params(), 1,
                BinarySymmetricChannel(epsilon=0.25), RandomSource(3),
            )

    def test_round_and_phase_accounting(self):
        params = small_stage1_params()
        result, _, _ = run_stage_one(300, 0.25, seed=3)
        assert result.rounds == params.total_rounds
        assert [summary.phase for summary in result.phases] == [0, 1, 2]
        assert [summary.rounds for summary in result.phases] == [60, 20, 120]
        assert result.messages_sent == sum(summary.messages_sent for summary in result.phases)

    def test_phase0_only_source_speaks(self):
        result, _, _ = run_stage_one(300, 0.25, seed=7)
        phase0 = result.phase(0)
        assert phase0.senders == 1
        assert phase0.messages_sent == 60
        # Source cannot activate more agents than it sent messages.
        assert phase0.newly_activated <= 60

    def test_activation_grows_and_covers_population(self):
        result, opinions, activated = run_stage_one(300, 0.25, seed=11)
        totals = [summary.activated_total for summary in result.phases]
        assert totals == sorted(totals)
        assert result.all_activated
        assert activated.all()
        assert np.count_nonzero(opinions != NO_OPINION) == 300

    def test_noiseless_channel_gives_perfect_bias(self):
        result, _, _ = run_stage_one(300, 0.5, seed=13, channel=PerfectChannel())
        assert result.final_bias == pytest.approx(0.5)
        assert result.initially_correct == 300

    def test_noisy_channel_keeps_positive_bias(self):
        result, _, _ = run_stage_one(400, 0.3, seed=17)
        assert 0.0 < result.final_bias < 0.5

    def test_symmetry_between_opinions(self):
        """The message pattern must not depend on which opinion is correct (Section 1.3.4).

        Who hears whom does not depend on the bits, so message counts and
        activation totals are equal seed for seed.  The bits an agent keeps
        are drawn from counts of 1s, so the bias agrees in distribution.
        """

        def run(correct_opinion, seed):
            result, _, _ = run_stage_one(200, 0.3, seed=seed, correct_opinion=correct_opinion)
            return result.messages_sent, [s.activated_total for s in result.phases], result.final_bias

        biases = {1: [], 0: []}
        for seed in range(23, 53):
            messages_one, totals_one, bias_one = run(1, seed)
            messages_zero, totals_zero, bias_zero = run(0, seed)
            assert messages_one == messages_zero
            assert totals_one == totals_zero
            biases[1].append(bias_one)
            biases[0].append(bias_zero)
        difference = np.mean(biases[1]) - np.mean(biases[0])
        spread = np.hypot(np.std(biases[1]), np.std(biases[0])) / np.sqrt(len(biases[1]))
        assert abs(difference) <= 4 * spread

    def test_dormant_agents_never_send(self):
        """In every phase the number of senders equals the agents activated before it."""
        result, _, _ = run_stage_one(300, 0.25, seed=31)
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


#: ``(n, epsilon, seed)`` instances the per-phase invariants are checked on.
INVARIANT_CASES = [
    (64, 0.2, 1),
    (64, 0.4, 2),
    (300, 0.25, 3),
    (300, 0.1, 4),
    (500, 0.3, 5),
    (1000, 0.45, 6),
]


@pytest.fixture(scope="module", params=INVARIANT_CASES, ids=lambda case: "n%d-eps%s-seed%d" % case)
def stage_one_run(request):
    """One Stage-I run per case: the result and the final population arrays."""
    n, epsilon, seed = request.param
    return run_stage_one(n, epsilon, seed)


class TestStageOneInvariants:
    """Per-phase bookkeeping that must hold on every run, whatever the draws."""

    def test_source_keeps_its_opinion(self, stage_one_run):
        _, opinions, activated = stage_one_run
        assert activated[0]
        assert opinions[0] == 1

    def test_opinionated_exactly_when_activated(self, stage_one_run):
        _, opinions, activated = stage_one_run
        np.testing.assert_array_equal(opinions != NO_OPINION, activated)
        assert set(np.unique(opinions[activated]).tolist()) <= {0, 1}

    def test_activation_totals_add_up(self, stage_one_run):
        result, _, activated = stage_one_run
        total = 1
        for summary in result.phases:
            total += summary.newly_activated
            assert summary.activated_total == total
        assert total == np.count_nonzero(activated)
        assert result.all_activated == bool(activated.all())

    def test_new_agents_and_their_bias(self, stage_one_run):
        result, _, _ = stage_one_run
        for summary in result.phases:
            assert 0 <= summary.newly_correct <= summary.newly_activated
            wrong = summary.newly_activated - summary.newly_correct
            assert summary.bias_of_new == bias_from_counts(summary.newly_correct, wrong)

    def test_messages_are_senders_times_rounds(self, stage_one_run):
        result, _, _ = stage_one_run
        for summary in result.phases:
            assert summary.messages_sent == summary.senders * summary.rounds
        assert result.rounds == small_stage1_params().total_rounds

    def test_aggregates_agree_with_the_arrays(self, stage_one_run):
        result, opinions, _ = stage_one_run
        correct = int(np.count_nonzero(opinions == 1))
        wrong = int(np.count_nonzero(opinions == 0))
        assert result.initially_correct == correct
        assert result.initially_correct_fraction == correct / opinions.size
        assert result.final_bias == bias_from_counts(correct, wrong)


class TestStageOnePopulations:
    @pytest.mark.parametrize("seeded", [1, 5, 20])
    def test_seeded_set_speaks_in_phase0_and_keeps_its_opinions(self, seeded):
        """Every opinionated, activated agent sends from phase 0 and is never rewritten."""
        opinions = np.full(300, NO_OPINION, dtype=np.int8)
        opinions[:seeded] = np.arange(seeded) % 2
        activated = opinions != NO_OPINION
        before = opinions[:seeded].copy()
        result = execute_stage_one(
            opinions, activated, small_stage1_params(), 1,
            BinarySymmetricChannel(epsilon=0.25), RandomSource(seeded),
        )
        phase0 = result.phase(0)
        assert phase0.senders == seeded
        assert phase0.messages_sent == seeded * phase0.rounds
        np.testing.assert_array_equal(opinions[:seeded], before)

    @pytest.mark.parametrize("correct_opinion", [0, 1])
    @pytest.mark.parametrize("seed", [41, 42])
    def test_noiseless_channel_makes_every_new_agent_correct(self, correct_opinion, seed):
        result, opinions, activated = run_stage_one(
            200, 0.5, seed, correct_opinion=correct_opinion, channel=PerfectChannel()
        )
        for summary in result.phases:
            assert summary.newly_correct == summary.newly_activated
            if summary.newly_activated:
                assert summary.bias_of_new == 0.5
        assert np.all(opinions[activated] == correct_opinion)

    def test_same_seed_reproduces_the_run(self):
        first, first_opinions, first_activated = run_stage_one(300, 0.25, seed=61)
        second, second_opinions, second_activated = run_stage_one(300, 0.25, seed=61)
        assert first == second
        np.testing.assert_array_equal(first_opinions, second_opinions)
        np.testing.assert_array_equal(first_activated, second_activated)


class TestStageOneStreams:
    """Delivery draws from the ``"delivery"`` stream, the phase-end choices from ``"protocol"``."""

    @staticmethod
    def _run(streams):
        opinions, activated = source_population(300)
        result = execute_stage_one(
            opinions, activated, small_stage1_params(), 1,
            BinarySymmetricChannel(epsilon=0.25), streams,
        )
        return result, opinions

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_protocol_stream_moves_choices_not_deliveries(self, seed):
        reference, reference_opinions = self._run(RandomSource(seed))
        shifted = RandomSource(seed)
        shifted.stream("protocol").random(17)
        result, opinions = self._run(shifted)
        assert [s.activated_total for s in result.phases] == [
            s.activated_total for s in reference.phases
        ]
        assert result.messages_sent == reference.messages_sent
        assert not np.array_equal(opinions, reference_opinions)

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_delivery_stream_moves_deliveries(self, seed):
        reference, _ = self._run(RandomSource(seed))
        shifted = RandomSource(seed)
        shifted.stream("delivery").random(17)
        result, _ = self._run(shifted)
        assert [s.activated_total for s in result.phases] != [
            s.activated_total for s in reference.phases
        ]
