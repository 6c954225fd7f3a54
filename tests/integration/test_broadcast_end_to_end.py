"""Integration tests: the full broadcast protocol across the whole stack.

These tests exercise the complete pipeline (parameters -> population -> Stage I
-> Stage II -> result) at small scale, including the statistical behaviour
the paper guarantees.  Seeds are fixed so the suite is deterministic.
"""

import math

import pytest

from repro import ProtocolParameters, solve_noisy_broadcast
from repro.core import theory


class TestBroadcastReliability:
    def test_succeeds_across_seeds_and_noise_levels(self):
        """Theorem 2.17's success guarantee, checked over a small seed/noise grid."""
        outcomes = []
        for epsilon in (0.15, 0.3, 0.45):
            for seed in range(4):
                result = solve_noisy_broadcast(n=300, epsilon=epsilon, seed=seed)
                outcomes.append(result.success)
        assert sum(outcomes) >= len(outcomes) - 1, "at most one failure tolerated across 12 runs"

    def test_symmetric_in_the_broadcast_opinion(self):
        """Running with B=0 and B=1 must be statistically indistinguishable (Section 1.3.4)."""
        one = solve_noisy_broadcast(n=300, epsilon=0.3, seed=55, correct_opinion=1)
        zero = solve_noisy_broadcast(n=300, epsilon=0.3, seed=55, correct_opinion=0)
        assert one.success and zero.success
        # Identical seeds produce identical message *counts* regardless of the opinion value.
        assert one.messages_sent == zero.messages_sent
        assert one.rounds == zero.rounds

    def test_noiseless_limit_is_easy(self):
        result = solve_noisy_broadcast(n=300, epsilon=0.5, seed=3)
        assert result.success
        assert result.stage1.final_bias == pytest.approx(0.5)


class TestBroadcastComplexityScaling:
    def test_rounds_track_log_n_over_eps_squared(self):
        """Measured rounds stay within a constant factor of the theoretical scale."""
        for n, epsilon in ((300, 0.2), (1200, 0.2), (300, 0.4)):
            result = solve_noisy_broadcast(n=n, epsilon=epsilon, seed=1)
            scale = theory.broadcast_round_bound(n, epsilon)
            assert 1.0 <= result.rounds / scale <= 60.0

    def test_messages_track_n_log_n_over_eps_squared(self):
        for n, epsilon in ((300, 0.25), (1200, 0.25)):
            result = solve_noisy_broadcast(n=n, epsilon=epsilon, seed=2)
            scale = theory.broadcast_message_bound(n, epsilon)
            assert 0.5 <= result.messages_sent / scale <= 60.0

    def test_doubling_population_adds_few_rounds(self):
        small = solve_noisy_broadcast(n=400, epsilon=0.25, seed=5)
        large = solve_noisy_broadcast(n=1600, epsilon=0.25, seed=5)
        assert large.rounds <= 1.6 * small.rounds, "4x the agents must cost far less than 4x the rounds"


class TestStageHandoff:
    def test_stage1_delivers_the_bias_stage2_needs(self):
        """Lemma 2.3 -> Lemma 2.14 pipeline: Stage I's bias exceeds the Stage II threshold."""
        n = 1200
        result = solve_noisy_broadcast(n=n, epsilon=0.25, seed=13)
        assert result.stage1.all_activated
        stage2_threshold = math.sqrt(math.log(n) / n)
        assert result.stage1.final_bias >= stage2_threshold / 2
        # And Stage II turned that into consensus.
        assert result.stage2.consensus_reached

    def test_phase_records_cover_every_round(self):
        parameters = ProtocolParameters.calibrated(400, 0.3)
        result = solve_noisy_broadcast(n=400, epsilon=0.3, seed=17, parameters=parameters)
        stage1_rounds = sum(phase.rounds for phase in result.stage1.phases)
        stage2_rounds = sum(phase.rounds for phase in result.stage2.phases)
        assert stage1_rounds == parameters.stage1.total_rounds
        assert stage2_rounds == parameters.stage2.total_rounds
        assert result.rounds == stage1_rounds + stage2_rounds
