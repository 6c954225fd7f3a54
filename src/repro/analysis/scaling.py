"""Scaling-law fits used to check the paper's asymptotic claims.

Experiments E1-E3 verify that the measured round and message complexities
follow ``Theta(log n / eps^2)`` and ``Theta(n log n / eps^2)``.  Because the
simulator's phase lengths are *set* from those formulas, the interesting
check is a goodness-of-fit one: the measurements, including the parts that
are not mechanically scheduled (Stage-I growth, Stage-II success), must track
the predicted functional form across a decade of ``n`` and ``epsilon``.

The fits are ordinary least squares on transformed coordinates, implemented
directly with numpy so the library does not depend on scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ParameterError

__all__ = ["LinearFit", "fit_linear", "fit_log_n_scaling", "fit_inverse_square_epsilon"]


@dataclass(frozen=True)
class LinearFit:
    """Result of a least-squares fit ``y ~ slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float


def _as_arrays(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    x_array = np.asarray(list(x), dtype=float)
    y_array = np.asarray(list(y), dtype=float)
    if x_array.size != y_array.size:
        raise ParameterError("x and y must have the same length")
    if x_array.size < 2:
        raise ParameterError("need at least two points to fit")
    return x_array, y_array


def fit_linear(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Ordinary least squares fit of ``y`` against ``x``."""
    x_array, y_array = _as_arrays(x, y)
    slope, intercept = np.polyfit(x_array, y_array, deg=1)
    predictions = slope * x_array + intercept
    residual = float(np.sum((y_array - predictions) ** 2))
    total = float(np.sum((y_array - y_array.mean()) ** 2))
    r_squared = 1.0 if total == 0.0 else 1.0 - residual / total
    return LinearFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)


def fit_log_n_scaling(n_values: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Fit ``y ~ a * ln(n) + b`` — the Theorem 2.17 round-complexity shape at fixed epsilon."""
    n_array, y_array = _as_arrays(n_values, y)
    if np.any(n_array <= 1):
        raise ParameterError("population sizes must exceed 1")
    return fit_linear(np.log(n_array), y_array)


def fit_inverse_square_epsilon(epsilon_values: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Fit ``y ~ a / eps^2 + b`` — the Theorem 2.17 round-complexity shape at fixed n."""
    eps_array, y_array = _as_arrays(epsilon_values, y)
    if np.any(eps_array <= 0):
        raise ParameterError("epsilon values must be positive")
    return fit_linear(1.0 / eps_array**2, y_array)
