"""A fixed reference kernel that measures the machine's speed, not the program's.

The benchmark's timings are divided by the time of this kernel, run right
beside them in the same process, so a machine that slows down (a busier
host, a slower clock) slows both and the ratio stays.  The kernel imports
nothing from ``repro``: it is the same code on every commit, so a change to
``src/`` moves only the numerator.

It mixes the three kinds of work the workloads spend their time on:

* ``gossip``: serial push-gossip rounds on small numpy arrays (draw targets,
  permute, ``np.unique``, flip bits), the shape of ``PushGossipNetwork.deliver``;
* ``grid``: the same round on ``(R, n)`` grids, the shape of
  ``deliver_batch`` and the stage kernels;
* ``python``: dicts, JSON and hashing on a nested report, the shape of the
  API, store and service code.

Each part takes a few tens of milliseconds; :func:`seconds` times all three.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from typing import Sequence

import numpy as np


def gossip(n: int = 2000, rounds: int = 120) -> int:
    rng = np.random.default_rng(12345)
    informed = np.zeros(n, dtype=bool)
    informed[0] = True
    bits = np.zeros(n, dtype=np.int8)
    total = 0
    for _ in range(rounds):
        senders = np.flatnonzero(informed)
        targets = rng.integers(0, n - 1, size=senders.size)
        targets += targets >= senders
        order = rng.permutation(senders.size)
        recipients, first = np.unique(targets[order], return_index=True)
        flips = rng.random(recipients.size) < 0.2
        bits[recipients] = bits[senders[order[first]]] ^ flips
        informed[recipients] = True
        total += int(recipients.size)
    return total


def grid(replicates: int = 16, n: int = 4000, rounds: int = 6) -> int:
    rng = np.random.default_rng(54321)
    offsets = (np.arange(replicates, dtype=np.int64) * n)[:, None]
    opinions = rng.integers(0, 2, size=(replicates, n), dtype=np.int8)
    total = 0
    for _ in range(rounds):
        targets = rng.integers(0, n, size=(replicates, n)) + offsets
        noisy = opinions ^ (rng.random((replicates, n)) < 0.2)
        ones = np.bincount(targets.ravel(), weights=noisy.ravel(), minlength=replicates * n)
        seen = np.bincount(targets.ravel(), minlength=replicates * n)
        opinions = (2 * ones > seen).reshape(replicates, n).astype(np.int8)
        order = np.argsort(targets, axis=1, kind="stable")
        total += int(order[:, 0].sum()) + int(seen.max())
    return total


def python(rows: int = 800) -> int:
    total = 0
    for repeat in range(4):
        report = {"config": {"n": 2000, "epsilon": 0.2, "seed": repeat},
                  "rows": [{"n": 100 + i, "rate": i / rows, "rounds": [i, i + 1, i + 2],
                            "label": f"point-{i}-{repeat}"} for i in range(rows)]}
        text = json.dumps(report, sort_keys=True)
        back = json.loads(text)
        index = {row["label"]: row for row in back["rows"]}
        total += len(hashlib.sha256(text.encode()).hexdigest()) + len(index)
        total += sum(len(str(row["rounds"])) for row in index.values())
    return total


PARTS = (gossip, grid, python)

#: What :func:`seconds` reads on the machine the bounds were set on, in its
#: usual state.  Times divided by the measured reference and multiplied by
#: this are "seconds at nominal speed".
NOMINAL_S = 0.1


def seconds() -> float:
    """Wall time of one pass over the three parts."""
    started = time.perf_counter()
    for part in PARTS:
        part()
    return time.perf_counter() - started


def slowdown(reference_s: Sequence[float]) -> float:
    """How many times slower than nominal the machine ran: median reference ÷ :data:`NOMINAL_S`."""
    return statistics.median(reference_s) / NOMINAL_S
