"""Unit tests for repro.analysis.estimators and .scaling."""

import math

import numpy as np
import pytest

from repro.analysis.estimators import quantiles, success_rate, summarize_scalar
from repro.analysis.scaling import fit_inverse_square_epsilon, fit_linear, fit_log_n_scaling
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

class TestScalingFits:
    def test_linear_fit_recovers_exact_line(self):
        x = np.linspace(0, 10, 20)
        fit = fit_linear(x, 3 * x + 2)
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)

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
            fit_linear([1.0, 2.0], [1.0])
