"""Micro-benchmarks of the simulation substrate itself.

These do not correspond to a paper claim; they document the simulator's raw
throughput (gossip rounds per second at different population sizes), which is
what determines how far the experiment sweeps can be pushed on a laptop.
"""

import numpy as np
import pytest

from repro.core import solve_noisy_broadcast
from repro.substrate import BinarySymmetricChannel, PushGossipNetwork


@pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
def test_gossip_round_throughput(benchmark, n):
    """One full push-gossip round with every agent speaking."""
    network = PushGossipNetwork(size=n)
    channel = BinarySymmetricChannel(epsilon=0.2)
    rng = np.random.default_rng(12345)
    senders = np.arange(n, dtype=np.int64)
    bits = rng.integers(0, 2, size=n).astype(np.int8)

    benchmark(network.deliver, senders, bits, channel, rng)


def test_full_broadcast_run(benchmark):
    """End-to-end broadcast at n = 2000, eps = 0.25 (the default experiment scale)."""
    result = benchmark.pedantic(
        solve_noisy_broadcast, kwargs=dict(n=2000, epsilon=0.25, seed=99), rounds=3, iterations=1
    )
    assert result.success
