"""Unit tests for repro.core.stage2 (the boosting stage)."""

import numpy as np
import pytest

from repro.core.opinions import NO_OPINION, bias_from_counts, counts_from_bias
from repro.core.parameters import StageTwoParameters
from repro.core.stage2 import (
    execute_stage_two,
    majority_of_random_subset,
    population_bias,
)
from repro.substrate import BinarySymmetricChannel, RandomSource
from repro.substrate.noise import PerfectChannel


def small_stage2_params():
    return StageTwoParameters(gamma=15, num_boost_phases=4, final_phase_rounds=160)


class SeededRun:
    """A population whose every agent holds an opinion, at majority-bias ``bias`` towards 1."""

    def __init__(self, n=400, epsilon=0.25, seed=1, bias=0.15, channel=None):
        self.streams = RandomSource(seed)
        self.channel = channel if channel is not None else BinarySymmetricChannel(epsilon=epsilon)
        correct, _ = counts_from_bias(n, bias)
        self.opinions = np.zeros(n, dtype=np.int8)
        self.opinions[:correct] = 1
        self.streams.stream("seeding").shuffle(self.opinions)

    def stage_two(self, parameters, correct_opinion):
        return execute_stage_two(self.opinions, parameters, correct_opinion, self.channel, self.streams)


class TestMajorityOfRandomSubset:
    def test_unanimous_samples(self, rng):
        totals = np.asarray([10, 10])
        ones = np.asarray([10, 0])
        result = majority_of_random_subset(totals, ones, subset_size=5, rng=rng)
        np.testing.assert_array_equal(result, [1, 0])

    def test_empty_input(self, rng):
        assert majority_of_random_subset(np.asarray([]), np.asarray([]), 3, rng).size == 0

    def test_odd_subset_never_ties_and_tracks_majority(self, rng):
        # 7 ones out of 10 samples, subsets of size 5: majority is 1 most of the time.
        totals = np.full(4000, 10)
        ones = np.full(4000, 7)
        results = majority_of_random_subset(totals, ones, subset_size=5, rng=rng)
        assert results.mean() > 0.75

    def test_even_subset_ties_broken_fairly(self, rng):
        # Exactly half ones: subsets of size 2 tie often; outcomes must stay balanced.
        totals = np.full(6000, 2)
        ones = np.full(6000, 1)
        results = majority_of_random_subset(totals, ones, subset_size=2, rng=rng)
        assert results.mean() == pytest.approx(0.5, abs=0.05)


class TestExecuteStageTwo:
    def test_round_and_phase_accounting(self):
        params = small_stage2_params()
        result = SeededRun(seed=5).stage_two(params, correct_opinion=1)
        assert result.rounds == params.total_rounds
        assert [summary.phase for summary in result.phases] == [1, 2, 3, 4, 5]
        assert result.messages_sent == sum(summary.messages_sent for summary in result.phases)

    def test_boosts_bias_to_consensus(self):
        result = SeededRun(seed=7, bias=0.15).stage_two(small_stage2_params(), correct_opinion=1)
        assert result.consensus_reached
        assert result.final_correct_fraction == 1.0
        biases = [summary.bias_after for summary in result.phases]
        assert biases[-1] == pytest.approx(0.5)

    def test_strong_minority_start_converges_to_majority(self):
        """Starting from a clear majority of 0s, the population converges to 0 (symmetry)."""
        run = SeededRun(seed=9, bias=0.15)
        # The instance above is biased towards opinion 1; measure against 0 and
        # confirm the bias is negative and consensus settles on 1 (i.e. not 0).
        result = run.stage_two(small_stage2_params(), correct_opinion=0)
        assert result.final_bias == pytest.approx(-0.5)
        assert not result.consensus_reached

    def test_most_agents_successful_each_phase(self):
        run = SeededRun(seed=11)
        result = run.stage_two(small_stage2_params(), correct_opinion=1)
        for summary in result.phases:
            # Claim 2.9: at least n/2 successful agents per phase, w.h.p.
            assert summary.successful_agents >= run.opinions.size / 2

    def test_noiseless_channel_converges_fast(self):
        run = SeededRun(seed=13, epsilon=0.5, channel=PerfectChannel(), bias=0.1)
        params = StageTwoParameters(gamma=9, num_boost_phases=3, final_phase_rounds=40)
        assert run.stage_two(params, correct_opinion=1).consensus_reached

    def test_unopinionated_population_gets_opinions_from_samples(self):
        """Agents without an opinion listen, and successful ones adopt the sample majority."""
        opinions = np.full(200, NO_OPINION, dtype=np.int8)
        opinions[:100] = [1] * 80 + [0] * 20
        result = execute_stage_two(
            opinions, small_stage2_params(), 1, BinarySymmetricChannel(epsilon=0.3), RandomSource(17)
        )
        assert np.count_nonzero(opinions != NO_OPINION) == 200
        assert result.final_correct_fraction > 0.9

    def test_opinions_fixed_within_a_phase(self):
        """Messages sent during a phase carry the phase-start opinion (one update per phase)."""
        run = SeededRun(seed=19)
        params = StageTwoParameters(gamma=15, num_boost_phases=1, final_phase_rounds=30)
        before = run.opinions.copy()
        result = run.stage_two(params, correct_opinion=1)
        # Opinions can only have been rewritten at the two phase boundaries, so the
        # number of distinct opinion vectors observed is at most phases + 1; here we
        # simply check the phase summaries expose exactly one bias change per phase.
        assert len(result.phases) == 2
        assert result.phases[0].bias_before == pytest.approx(
            (np.count_nonzero(before == 1) - np.count_nonzero(before == 0)) / (2 * before.size)
        )

    def test_population_bias_matches_the_section_1_3_1_definition(self):
        """Unopinionated agents are left out: (correct - wrong) / (2 |opinionated|)."""
        opinions = np.asarray([1, 1, 1, 0, NO_OPINION, NO_OPINION], dtype=np.int8)
        assert population_bias(opinions, 1) == pytest.approx(0.25)
        assert population_bias(opinions, 0) == pytest.approx(-0.25)
        assert population_bias(np.full(3, NO_OPINION, dtype=np.int8), 1) == 0.0


#: ``(n, epsilon, seed, bias)`` instances the per-phase invariants are checked on.
INVARIANT_CASES = [
    (200, 0.25, 1, 0.15),
    (400, 0.25, 2, 0.05),
    (400, 0.4, 3, 0.0),
    (300, 0.2, 4, -0.1),
    (600, 0.3, 5, 0.2),
    (150, 0.45, 6, 0.3),
]


@pytest.fixture(
    scope="module", params=INVARIANT_CASES, ids=lambda case: "n%d-eps%s-seed%d-bias%s" % case
)
def stage_two_run(request):
    """One Stage-II run per case: the result, the opinions before and after, and the case."""
    n, epsilon, seed, bias = request.param
    run = SeededRun(n=n, epsilon=epsilon, seed=seed, bias=bias)
    before = run.opinions.copy()
    return run.stage_two(small_stage2_params(), correct_opinion=1), before, run.opinions, request.param


class TestStageTwoInvariants:
    """Per-phase bookkeeping that must hold on every run, whatever the draws."""

    def test_bias_chain_links_the_phases(self, stage_two_run):
        result, before, _, _ = stage_two_run
        assert result.phases[0].bias_before == population_bias(before, 1)
        for earlier, later in zip(result.phases, result.phases[1:]):
            assert later.bias_before == earlier.bias_after
        assert result.phases[-1].bias_after == result.final_bias

    def test_every_opinionated_agent_speaks_every_round(self, stage_two_run):
        result, before, _, _ = stage_two_run
        for summary in result.phases:
            assert summary.messages_sent == before.size * summary.rounds
        assert result.rounds == small_stage2_params().total_rounds

    def test_successful_agents_within_the_population(self, stage_two_run):
        result, before, _, _ = stage_two_run
        for summary in result.phases:
            assert 0 <= summary.successful_agents <= before.size

    def test_aggregates_agree_with_the_opinions(self, stage_two_run):
        result, _, after, _ = stage_two_run
        correct_fraction = np.count_nonzero(after == 1) / after.size
        assert result.final_correct_fraction == correct_fraction
        assert result.phases[-1].correct_fraction_after == correct_fraction
        assert result.final_bias == population_bias(after, 1)
        assert result.consensus_reached == bool(np.all(after == 1))

    def test_opinions_stay_binary(self, stage_two_run):
        _, _, after, _ = stage_two_run
        assert set(np.unique(after).tolist()) <= {0, 1}

    def test_same_seed_reproduces_the_run(self, stage_two_run):
        result, before, after, (n, epsilon, seed, bias) = stage_two_run
        rerun = SeededRun(n=n, epsilon=epsilon, seed=seed, bias=bias)
        np.testing.assert_array_equal(rerun.opinions, before)
        assert rerun.stage_two(small_stage2_params(), correct_opinion=1) == result
        np.testing.assert_array_equal(rerun.opinions, after)


class TestStageTwoPopulations:
    @pytest.mark.parametrize("opinionated", [10, 50, 100])
    def test_unopinionated_agents_do_not_speak(self, opinionated):
        """Phase 1's messages come from the opinionated agents alone."""
        opinions = np.full(200, NO_OPINION, dtype=np.int8)
        opinions[:opinionated] = 1
        result = execute_stage_two(
            opinions, small_stage2_params(), 1, BinarySymmetricChannel(epsilon=0.3), RandomSource(23)
        )
        first = result.phase(1)
        assert first.messages_sent == opinionated * first.rounds

    @pytest.mark.parametrize("held", [0, 1])
    def test_unanimity_is_kept_over_a_noiseless_channel(self, held):
        """A unanimous population stays unanimous, whichever opinion it holds."""
        opinions = np.full(200, held, dtype=np.int8)
        result = execute_stage_two(opinions, small_stage2_params(), 1, PerfectChannel(), RandomSource(29))
        assert np.all(opinions == held)
        assert result.consensus_reached == (held == 1)
        assert result.final_bias == (0.5 if held == 1 else -0.5)


class TestPopulationBias:
    @pytest.mark.parametrize(
        "opinions, correct_opinion, expected",
        [
            ([1, 1, 1, 1], 1, 0.5),
            ([0, 0, 0, 0], 1, -0.5),
            ([1, 0, 1, 0], 0, 0.0),
            ([1, 1, 0, NO_OPINION], 1, 1 / 6),
            ([0, NO_OPINION, NO_OPINION, NO_OPINION], 0, 0.5),
            ([], 1, 0.0),
        ],
    )
    def test_equals_bias_from_counts(self, opinions, correct_opinion, expected):
        array = np.asarray(opinions, dtype=np.int8)
        assert population_bias(array, correct_opinion) == pytest.approx(expected)
        correct = int(np.count_nonzero(array == correct_opinion))
        wrong = int(np.count_nonzero(array == 1 - correct_opinion))
        assert population_bias(array, correct_opinion) == bias_from_counts(correct, wrong)
