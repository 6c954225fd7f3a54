"""Unit tests for repro.analysis.statistics."""

import math

import pytest

from repro.analysis.statistics import (
    binomial_pmf,
    central_binomial_tail,
    chernoff_deviation_for_confidence,
    chernoff_lower_tail,
    chernoff_upper_tail,
    summarize_bernoulli,
    wilson_interval,
)
from repro.errors import ParameterError


class TestChernoff:
    def test_formulas_match_paper_equations(self):
        assert chernoff_upper_tail(expectation=100, delta=0.1) == pytest.approx(math.exp(-100 * 0.01 / 3))
        assert chernoff_lower_tail(expectation=100, delta=0.1) == pytest.approx(math.exp(-100 * 0.01 / 2))

    def test_bounds_shrink_with_expectation(self):
        assert chernoff_lower_tail(1000, 0.1) < chernoff_lower_tail(100, 0.1)

    def test_bounds_are_actual_bounds_on_binomials(self):
        """The Chernoff expressions upper-bound exact binomial tails."""
        n, p = 400, 0.5
        expectation = n * p
        for delta in (0.1, 0.2, 0.3):
            exact_upper = central_binomial_tail(n, p, math.ceil((1 + delta) * expectation))
            assert exact_upper <= chernoff_upper_tail(expectation, delta) + 1e-12

    @pytest.mark.parametrize("n, p", [(50, 0.1), (200, 0.5), (400, 0.3), (1000, 0.05)])
    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.6])
    def test_both_tails_bound_the_exact_binomial_tails(self, n, p, delta):
        """Equations 1 and 2 against the exact tails of Bin(n, p)."""
        expectation = n * p
        exact_upper = central_binomial_tail(n, p, math.ceil((1 + delta) * expectation))
        assert exact_upper <= chernoff_upper_tail(expectation, delta) + 1e-12
        exact_lower = 1.0 - central_binomial_tail(n, p, math.floor((1 - delta) * expectation) + 1)
        assert exact_lower <= chernoff_lower_tail(expectation, delta) + 1e-12

    def test_deviation_for_confidence_inverts_lower_tail(self):
        delta = chernoff_deviation_for_confidence(expectation=200, failure_probability=1e-3)
        assert chernoff_lower_tail(200, min(delta, 0.999)) == pytest.approx(1e-3, rel=0.05)

    def test_validation(self):
        with pytest.raises(ParameterError):
            chernoff_upper_tail(10, 1.5)
        with pytest.raises(ParameterError):
            chernoff_lower_tail(-1, 0.5)


class TestWilson:
    def test_interval_contains_point_estimate(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high

    def test_extreme_rates_stay_in_unit_interval(self):
        low, high = wilson_interval(100, 100)
        assert 0.9 < low < 1.0 and high >= 0.999
        low, high = wilson_interval(0, 100)
        assert low == 0.0 and 0.0 < high < 0.1

    def test_more_trials_narrow_the_interval(self):
        narrow = wilson_interval(800, 1000)
        wide = wilson_interval(8, 10)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_summarize_bernoulli(self):
        summary = summarize_bernoulli([True] * 9 + [False])
        assert summary.trials == 10
        assert summary.successes == 9
        assert summary.rate == pytest.approx(0.9)
        assert summary.ci_low < 0.9 < summary.ci_high
        assert summary.as_dict()["successes"] == 9

    def test_summarize_empty_rejected(self):
        with pytest.raises(ParameterError):
            summarize_bernoulli([])


class TestBinomialHelpers:
    def test_pmf_sums_to_one(self):
        total = sum(binomial_pmf(k, 20, 0.3) for k in range(21))
        assert total == pytest.approx(1.0)

    def test_pmf_degenerate_probabilities(self):
        assert binomial_pmf(0, 10, 0.0) == 1.0
        assert binomial_pmf(10, 10, 1.0) == 1.0
        assert binomial_pmf(3, 10, 0.0) == 0.0

    @pytest.mark.parametrize(
        "k, n, p", [(0, 1, 0.5), (3, 7, 0.2), (5, 10, 0.5), (12, 30, 0.45), (40, 40, 0.9)]
    )
    def test_pmf_matches_the_closed_form(self, k, n, p):
        expected = math.comb(n, k) * p**k * (1 - p) ** (n - k)
        assert binomial_pmf(k, n, p) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "n, p, threshold", [(1, 0.3, 1), (9, 0.5, 5), (25, 0.2, 3), (60, 0.7, 45)]
    )
    def test_tail_is_the_sum_of_the_upper_masses(self, n, p, threshold):
        expected = sum(
            math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(threshold, n + 1)
        )
        assert central_binomial_tail(n, p, threshold) == pytest.approx(expected, rel=1e-9)

    def test_tail_edge_cases(self):
        assert central_binomial_tail(10, 0.5, 0) == 1.0
        assert central_binomial_tail(10, 0.5, 11) == 0.0
        assert central_binomial_tail(10, 0.5, 5) > 0.5
