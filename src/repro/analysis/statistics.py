"""Statistical primitives used by the analysis and the paper's proofs.

This module codifies the Chernoff bounds of Section 1.7 together with the
estimation machinery the experiment harness needs (Wilson confidence
intervals, empirical success probabilities, exact binomial tails).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Tuple

from ..errors import ParameterError

__all__ = [
    "chernoff_upper_tail",
    "chernoff_lower_tail",
    "chernoff_deviation_for_confidence",
    "wilson_interval",
    "BernoulliSummary",
    "summarize_bernoulli",
    "binomial_pmf",
    "central_binomial_tail",
]


# ----------------------------------------------------------------------
# Chernoff bounds (Equations 1 and 2 of the paper)
# ----------------------------------------------------------------------
def chernoff_upper_tail(expectation: float, delta: float) -> float:
    """Equation 1: ``Pr(X >= (1 + delta) E[X]) <= exp(-delta^2 E[X] / 3)``."""
    if expectation < 0:
        raise ParameterError("expectation must be non-negative")
    if not 0 < delta < 1:
        raise ParameterError("delta must lie in (0, 1)")
    return math.exp(-delta * delta * expectation / 3.0)


def chernoff_lower_tail(expectation: float, delta: float) -> float:
    """Equation 2: ``Pr(X <= (1 - delta) E[X]) <= exp(-delta^2 E[X] / 2)``."""
    if expectation < 0:
        raise ParameterError("expectation must be non-negative")
    if not 0 < delta < 1:
        raise ParameterError("delta must lie in (0, 1)")
    return math.exp(-delta * delta * expectation / 2.0)


def chernoff_deviation_for_confidence(expectation: float, failure_probability: float) -> float:
    """Smallest relative deviation ``delta`` with lower-tail mass at most ``failure_probability``.

    Inverts Equation 2: ``delta = sqrt(2 ln(1/p) / E[X])`` (may exceed 1, in
    which case the bound is vacuous and the caller needs a larger
    expectation).
    """
    if expectation <= 0:
        raise ParameterError("expectation must be positive")
    if not 0 < failure_probability < 1:
        raise ParameterError("failure_probability must lie in (0, 1)")
    return math.sqrt(2.0 * math.log(1.0 / failure_probability) / expectation)


# ----------------------------------------------------------------------
# Estimation
# ----------------------------------------------------------------------
def wilson_interval(successes: int, trials: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Preferred over the normal approximation because experiment success rates
    are frequently at or near 1.
    """
    if trials <= 0:
        raise ParameterError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ParameterError("successes must lie in [0, trials]")
    p_hat = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denominator
    margin = (z / denominator) * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    return max(0.0, centre - margin), min(1.0, centre + margin)


@dataclass(frozen=True)
class BernoulliSummary:
    """Summary of a sequence of Bernoulli observations (e.g. per-trial success)."""

    trials: int
    successes: int
    rate: float
    ci_low: float
    ci_high: float

    def as_dict(self) -> dict:
        """Plain-dict form for result records."""
        return {
            "trials": self.trials,
            "successes": self.successes,
            "rate": self.rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


def summarize_bernoulli(outcomes: Iterable[bool], z: float = 1.96) -> BernoulliSummary:
    """Summarise boolean outcomes into a rate with a Wilson interval."""
    values = [bool(value) for value in outcomes]
    trials = len(values)
    if trials == 0:
        raise ParameterError("need at least one observation")
    successes = sum(values)
    low, high = wilson_interval(successes, trials, z=z)
    return BernoulliSummary(
        trials=trials, successes=successes, rate=successes / trials, ci_low=low, ci_high=high
    )


# ----------------------------------------------------------------------
# Binomial helpers (Claims 2.12 / 2.13 checks)
# ----------------------------------------------------------------------
def binomial_pmf(k: int, n: int, p: float) -> float:
    """Exact binomial probability mass ``P(Bin(n, p) = k)`` via log-gamma."""
    if not 0 <= k <= n:
        raise ParameterError("k must lie in [0, n]")
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must be a probability")
    if p in (0.0, 1.0):
        certain = n if p == 1.0 else 0
        return 1.0 if k == certain else 0.0
    log_pmf = (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log(1 - p)
    )
    return math.exp(log_pmf)


def central_binomial_tail(n: int, p: float, threshold: int) -> float:
    """Exact upper-tail probability ``P(Bin(n, p) >= threshold)``."""
    if threshold <= 0:
        return 1.0
    if threshold > n:
        return 0.0
    return float(sum(binomial_pmf(k, n, p) for k in range(threshold, n + 1)))
