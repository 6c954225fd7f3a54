"""Estimators that turn raw trial outputs into reportable quantities.

The experiment drivers produce lists of per-trial scalars (rounds, messages,
final bias, success flags).  This module reduces them into the summary rows
shown in the experiment reports: means with confidence intervals, quantiles
and success rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence

import numpy as np

from ..errors import ParameterError
from .statistics import BernoulliSummary, summarize_bernoulli

__all__ = [
    "ScalarSummary",
    "summarize_scalar",
    "success_rate",
    "quantiles",
]


@dataclass(frozen=True)
class ScalarSummary:
    """Mean / spread summary of one scalar measured across trials."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def as_dict(self) -> dict:
        """Plain-dict form for result records."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


def summarize_scalar(values: Iterable[float], z: float = 1.96) -> ScalarSummary:
    """Summarise scalar observations with a normal-approximation CI on the mean."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ParameterError("need at least one observation")
    mean = float(array.mean())
    std = float(array.std(ddof=1)) if array.size > 1 else 0.0
    half_width = z * std / math.sqrt(array.size) if array.size > 1 else 0.0
    return ScalarSummary(
        count=int(array.size),
        mean=mean,
        std=std,
        minimum=float(array.min()),
        maximum=float(array.max()),
        ci_low=mean - half_width,
        ci_high=mean + half_width,
    )


def success_rate(flags: Iterable[bool]) -> BernoulliSummary:
    """Success-rate summary (Wilson interval) over per-trial success flags."""
    return summarize_bernoulli(flags)


def quantiles(values: Iterable[float], probabilities: Sequence[float] = (0.1, 0.5, 0.9)) -> Dict[float, float]:
    """Selected quantiles of the observations."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ParameterError("need at least one observation")
    for probability in probabilities:
        if not 0.0 <= probability <= 1.0:
            raise ParameterError("quantile probabilities must lie in [0, 1]")
    return {
        float(probability): float(np.quantile(array, probability)) for probability in probabilities
    }
