"""Unit tests for repro.analysis.estimators, .scaling and .convergence."""

import math

import numpy as np
import pytest

from repro.analysis.convergence import (
    crossover_round,
    final_plateau,
    first_hitting_round,
    sustained_convergence_round,
)
from repro.analysis.estimators import (
    average_trajectories,
    quantiles,
    ratio_of_means,
    success_rate,
    summarize_scalar,
)
from repro.analysis.scaling import (
    fit_inverse_square_epsilon,
    fit_linear,
    fit_log_n_scaling,
    fit_power_law,
)
from repro.errors import ParameterError


class TestEstimators:
    def test_summarize_scalar(self):
        summary = summarize_scalar([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0 and summary.maximum == 4.0
        assert summary.ci_low < 2.5 < summary.ci_high
        assert summary.as_dict()["count"] == 4

    def test_single_observation_has_zero_spread(self):
        summary = summarize_scalar([7.0])
        assert summary.std == 0.0
        assert summary.ci_low == summary.ci_high == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            summarize_scalar([])

    def test_success_rate(self):
        assert success_rate([True, True, False, True]).rate == pytest.approx(0.75)

    def test_quantiles(self):
        values = list(range(101))
        result = quantiles(values, probabilities=(0.1, 0.5, 0.9))
        assert result[0.5] == pytest.approx(50)
        assert result[0.1] == pytest.approx(10)

    def test_average_trajectories_handles_uneven_lengths(self):
        averaged = average_trajectories([[1.0, 2.0, 3.0], [3.0, 4.0]])
        assert averaged == [2.0, 3.0, 3.0]

    def test_ratio_of_means(self):
        assert ratio_of_means([2.0, 4.0], [1.0, 3.0]) == pytest.approx(1.5)
        with pytest.raises(ParameterError):
            ratio_of_means([1.0], [0.0])


class TestScalingFits:
    def test_linear_fit_recovers_exact_line(self):
        x = np.linspace(0, 10, 20)
        fit = fit_linear(x, 3 * x + 2)
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_power_law_fit_recovers_exponent(self):
        x = np.asarray([10, 20, 40, 80, 160], dtype=float)
        y = 5.0 * x**1.5
        fit = fit_power_law(x, y)
        assert fit.slope == pytest.approx(1.5, abs=1e-6)
        assert math.exp(fit.intercept) == pytest.approx(5.0, rel=1e-6)

    def test_log_n_fit(self):
        n_values = [100, 1000, 10_000, 100_000]
        y = [7.0 * math.log(n) + 3.0 for n in n_values]
        fit = fit_log_n_scaling(n_values, y)
        assert fit.slope == pytest.approx(7.0)
        assert fit.intercept == pytest.approx(3.0)

    def test_inverse_square_epsilon_fit(self):
        eps = [0.1, 0.2, 0.3, 0.4]
        y = [2.5 / e**2 + 10.0 for e in eps]
        fit = fit_inverse_square_epsilon(eps, y)
        assert fit.slope == pytest.approx(2.5)
        assert fit.intercept == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            fit_linear([1.0], [2.0])
        with pytest.raises(ParameterError):
            fit_power_law([1.0, -2.0], [1.0, 2.0])
        with pytest.raises(ParameterError):
            fit_linear([1.0, 2.0], [1.0])


class TestConvergence:
    def test_first_hitting_round(self):
        assert first_hitting_round([0.1, 0.4, 0.9, 1.0], threshold=0.9) == 2
        assert first_hitting_round([0.1, 0.2], threshold=0.9) is None

    def test_sustained_convergence(self):
        series = [0.2, 0.95, 0.4, 0.96, 0.97, 0.98, 0.99]
        # The spike at index 1 does not count; the sustained run starts at index 3.
        assert sustained_convergence_round(series, threshold=0.9, window=3) == 3
        assert sustained_convergence_round(series, threshold=0.9, window=5) is None

    def test_crossover_round(self):
        slow_but_steady = [0.1, 0.3, 0.62, 0.9, 1.0]
        fast_then_flat = [0.5, 0.55, 0.58, 0.6, 0.6]
        # The slow series durably overtakes the fast one at index 2 (0.62 >= 0.58).
        assert crossover_round(slow_but_steady, fast_then_flat) == 2
        assert crossover_round(fast_then_flat, slow_but_steady) is None

    def test_crossover_when_always_ahead(self):
        assert crossover_round([1.0, 1.0], [0.5, 0.5]) == 0

    def test_final_plateau(self):
        series = [0.0] * 10 + [1.0] * 20
        assert final_plateau(series, window=20) == pytest.approx(1.0)
        assert final_plateau(series, window=30) == pytest.approx(2 / 3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            first_hitting_round([], 0.5)
        with pytest.raises(ParameterError):
            final_plateau([1.0], window=0)
