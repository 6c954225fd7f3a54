"""Unit tests for repro.core.opinions."""

import numpy as np
import pytest

from repro.core.opinions import (
    bias_from_counts,
    correct_probability_after_noise,
    counts_from_bias,
    majority_from_counts,
    majority_opinion,
    opposite,
    validate_opinion,
)
from repro.errors import ParameterError


class TestBasics:
    def test_validate_opinion(self):
        assert validate_opinion(0) == 0
        assert validate_opinion(1) == 1
        with pytest.raises(ParameterError):
            validate_opinion(2)

    def test_opposite(self):
        assert opposite(0) == 1
        assert opposite(1) == 0


class TestMajority:
    def test_clear_majorities(self):
        assert majority_opinion([1, 1, 0]) == 1
        assert majority_opinion([0, 0, 1]) == 0
        assert majority_from_counts(zeros=5, ones=2) == 0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            majority_opinion([])

    def test_tie_needs_rng(self):
        with pytest.raises(ParameterError):
            majority_from_counts(zeros=2, ones=2)

    def test_tie_break_is_roughly_fair(self, rng):
        outcomes = [majority_from_counts(3, 3, rng=rng) for _ in range(2000)]
        assert np.mean(outcomes) == pytest.approx(0.5, abs=0.05)

    def test_accepts_numpy_array(self):
        assert majority_opinion(np.asarray([1, 1, 1, 0])) == 1


class TestBiasAlgebra:
    def test_bias_from_counts(self):
        assert bias_from_counts(6, 4) == pytest.approx(0.1)
        assert bias_from_counts(4, 6) == pytest.approx(-0.1)
        assert bias_from_counts(0, 0) == 0.0

    def test_bias_matches_fraction_advantage(self):
        # The paper's majority-bias (A_B - A_notB)/(2|A|) equals the fraction
        # of correct agents minus 1/2 — the identity used throughout Section 2.
        correct, wrong = 70, 30
        assert bias_from_counts(correct, wrong) == pytest.approx(correct / 100 - 0.5)

    def test_counts_from_bias_round_trip(self):
        for total in (10, 33, 100):
            for bias in (0.0, 0.05, 0.2, 0.5):
                correct, wrong = counts_from_bias(total, bias)
                assert correct + wrong == total
                assert bias_from_counts(correct, wrong) >= bias - 1e-9 or correct == total

    @pytest.mark.parametrize(
        "total, bias", [(1, -0.5), (7, -0.2), (10, 0.0), (33, 0.13), (100, 0.365), (5, 0.5)]
    )
    def test_counts_from_bias_is_the_least_split_reaching_the_bias(self, total, bias):
        correct, wrong = counts_from_bias(total, bias)
        assert correct + wrong == total
        assert bias_from_counts(correct, wrong) >= bias - 1e-9
        if correct:
            # One correct agent fewer would fall short of the requested bias.
            assert bias_from_counts(correct - 1, wrong + 1) < bias

    def test_counts_from_bias_validation(self):
        with pytest.raises(ParameterError):
            counts_from_bias(10, 0.7)

class TestNoiseIdentity:
    def test_matches_paper_formula(self):
        # (1/2+delta)(1/2+eps) + (1/2-delta)(1/2-eps) = 1/2 + 2 eps delta
        for delta in (0.0, 0.01, 0.1, 0.5):
            for eps in (0.05, 0.2, 0.5):
                direct = (0.5 + delta) * (0.5 + eps) + (0.5 - delta) * (0.5 - eps)
                assert correct_probability_after_noise(delta, eps) == pytest.approx(direct)

    def test_noiseless_channel_preserves_bias(self):
        assert correct_probability_after_noise(0.3, 0.5) == pytest.approx(0.8)

    def test_zero_bias_gives_coin_flip(self):
        assert correct_probability_after_noise(0.0, 0.2) == 0.5
