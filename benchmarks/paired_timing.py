"""Speed ratios from alternating repeats, for the benchmark ratio gates.

A gate that times each side once, one after the other, carries any drift in
machine speed between the two runs into the ratio, and on a small VM that
drift reaches 2x over minutes.  :func:`paired_speedups` times the sides in
turn, ``repeats`` times, reversing the order on every other repeat, and
reports the median and the quartiles of the per-repeat ratios, as
``bench_deliver_batch.py`` does for its two kernels.

``benchmarks/`` is not a package: the gates import this file by path.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Dict, List, Mapping, Tuple


def paired_speedups(
    thunks: Mapping[str, Callable[[], Any]], reference: str, repeats: int
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Time ``thunks`` alternately ``repeats`` times; speedups are against ``reference``.

    Returns ``(results, record)``.  ``results`` maps each label to what its
    thunk returned in the last repeat.  ``record`` holds ``seconds`` (each
    side's median), ``speedup_vs_serial`` (per side, the median over repeats
    of the reference's time divided by that side's time in the same repeat)
    and ``speedup_quartiles`` (the lower and upper quartiles of those
    ratios; both equal the one ratio when ``repeats`` is 1).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    labels = list(thunks)
    samples: Dict[str, List[float]] = {label: [] for label in labels}
    results: Dict[str, Any] = {}
    for index in range(repeats):
        for label in labels if index % 2 == 0 else reversed(labels):
            start = time.perf_counter()
            results[label] = thunks[label]()
            samples[label].append(time.perf_counter() - start)

    record: Dict[str, Any] = {
        "seconds": {label: round(statistics.median(times), 3) for label, times in samples.items()},
        "speedup_vs_serial": {},
        "speedup_quartiles": {},
    }
    for label in labels:
        if label == reference:
            continue
        ratios = [base / other for base, other in zip(samples[reference], samples[label])]
        low = high = ratios[0]
        if len(ratios) > 1:
            low, _, high = statistics.quantiles(ratios, n=4)
        record["speedup_vs_serial"][label] = round(statistics.median(ratios), 2)
        record["speedup_quartiles"][label] = [round(low, 2), round(high, 2)]
    return results, record

