"""Integration tests: majority-consensus and the clock-free protocol."""

import pytest

from repro import (
    ProtocolParameters,
    run_clock_free_broadcast,
    run_with_bounded_skew,
    solve_noisy_broadcast,
    solve_noisy_majority_consensus,
)
from repro.core.theory import majority_consensus_min_bias


class TestMajorityConsensus:
    def test_succeeds_above_the_corollary_threshold(self):
        """Corollary 2.18's feasible regime, across a few seeds."""
        n, epsilon, set_size = 500, 0.3, 150
        bias = 1.2 * majority_consensus_min_bias(set_size, n)
        successes = sum(
            solve_noisy_majority_consensus(
                n=n, epsilon=epsilon, initial_set_size=set_size, majority_bias=bias, seed=seed
            ).success
            for seed in range(4)
        )
        assert successes >= 3

    def test_tiny_bias_is_not_reliably_recovered(self):
        """Far below the threshold the initial majority frequently loses.

        The success rate here is about 0.8 (0.81 over 300 seeds), so six
        trials all succeed a quarter of the time; thirty do so about once in
        a thousand."""
        n, epsilon, set_size = 500, 0.3, 60
        outcomes = [
            solve_noisy_majority_consensus(
                n=n, epsilon=epsilon, initial_set_size=set_size, majority_bias=0.02, seed=seed
            ).success
            for seed in range(30)
        ]
        assert not all(outcomes)

    def test_population_still_reaches_some_consensus_below_threshold(self):
        """Even when the majority is lost, the protocol converges to a single opinion."""
        result = solve_noisy_majority_consensus(
            n=400, epsilon=0.3, initial_set_size=40, majority_bias=0.05, seed=11
        )
        assert result.final_correct_fraction in (0.0, 1.0) or (
            result.final_correct_fraction > 0.99 or result.final_correct_fraction < 0.01
        )

    def test_majority_is_cheaper_than_full_broadcast(self):
        parameters = ProtocolParameters.calibrated(500, 0.3)
        broadcast = solve_noisy_broadcast(n=500, epsilon=0.3, seed=3, parameters=parameters)
        majority = solve_noisy_majority_consensus(
            n=500, epsilon=0.3, initial_set_size=200, majority_bias=0.3, seed=3, parameters=parameters
        )
        assert majority.rounds < broadcast.rounds


class TestClockFreeProtocol:
    def test_clock_free_matches_synchronous_correctness(self):
        for seed in range(3):
            result = run_clock_free_broadcast(n=300, epsilon=0.3, seed=seed)
            assert result.success

    def test_overhead_grows_with_skew_but_stays_additive(self):
        parameters = ProtocolParameters.calibrated(300, 0.3)
        sync_rounds = solve_noisy_broadcast(n=300, epsilon=0.3, seed=7, parameters=parameters).rounds
        previous_overhead = -1
        for skew in (4, 16, 64):
            result = run_with_bounded_skew(
                n=300, epsilon=0.3, max_skew=skew, seed=7, parameters=parameters
            )
            assert result.success
            overhead = result.rounds - sync_rounds
            assert overhead >= previous_overhead
            num_phases = parameters.stage1.num_phases + parameters.stage2.num_phases
            assert overhead <= 2 * skew * (num_phases + 1)
            previous_overhead = overhead

    def test_messages_unchanged_by_guard_windows(self):
        parameters = ProtocolParameters.calibrated(300, 0.3)
        sync = solve_noisy_broadcast(n=300, epsilon=0.3, seed=9, parameters=parameters)
        skewed = run_with_bounded_skew(n=300, epsilon=0.3, max_skew=32, seed=9, parameters=parameters)
        # Theorem 3.1: the modification only adds silent rounds, so message counts
        # stay within sampling noise of the synchronous run.
        assert skewed.messages_sent == pytest.approx(sync.messages_sent, rel=0.1)
