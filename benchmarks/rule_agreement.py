"""Agreement in law between two collision rules, for the delivery benches.

``bench_deliver_serial.py`` and ``bench_deliver_batch.py`` time the count
rule against the old sort-based rule.  The two draw differently, so their
reports cannot be compared bit for bit; :func:`agreement` compares them in
law instead, over the rounds of one timed repeat, and each bench requires
every statistic's gap to stay within :data:`TOLERANCE_SE`.

``benchmarks/`` is not a package: the benches import this file by path.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

#: How many combined standard errors the two rules' means may differ by.
TOLERANCE_SE = 4.0


def agreement(kept_bits: Dict[str, list]) -> Dict[str, Dict[str, float]]:
    """Per statistic, each path's mean and the gap in combined standard errors.

    ``kept_bits`` maps each of two paths to its rounds' accepted noisy bits,
    one array per round; the statistics are a round's accepted-message
    count and its share of accepted 1s.
    """
    rounds = {
        label: {
            "accepted": np.array([bits.size for bits in per_round], dtype=float),
            "ones_rate": np.array([bits.mean() for bits in per_round if bits.size]),
        }
        for label, per_round in kept_bits.items()
    }
    first, second = rounds
    summary: Dict[str, Dict[str, float]] = {}
    for statistic in ("accepted", "ones_rate"):
        means = {label: float(rounds[label][statistic].mean()) for label in rounds}
        errors = [
            rounds[label][statistic].std(ddof=1) / np.sqrt(rounds[label][statistic].size)
            for label in rounds
        ]
        gap = abs(means[first] - means[second]) / max(float(np.hypot(*errors)), 1e-12)
        summary[statistic] = {
            **{label: round(mean, 4) for label, mean in means.items()},
            "gap_se": round(gap, 2),
        }
    return summary
