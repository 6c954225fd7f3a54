"""Invariants of the resilient (fault-aware) delivery kernel.

With a fault injector, :meth:`PushGossipNetwork.deliver_batch` runs one
positional kernel (see :mod:`repro.substrate.network`); a serial faulty
trial runs it at one replicate.  The pinned digests in
``tests/unit/test_serial_resilient_regression.py`` fix its output for two
one-replicate configurations; the tests here check the rules it must keep
on every kept fault model, on tiny and moderate networks, over a binary
symmetric channel and the perfect one:

* single-accept delivery: at most one accepted message per recipient cell,
  conserved message counts, no self-delivery, and only live senders
  counted;
* the main stream's consumption depends on the grid shape alone, not on who
  speaks or who crashed;
* over a noiseless channel — the perfect one, or a binary symmetric channel
  at ``epsilon = 1/2`` — a replicate whose live senders are honest and all
  push one bit delivers only that bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.substrate.faults import ByzantineSenders, CrashStop, FaultInjector
from repro.substrate.network import PushGossipNetwork
from repro.substrate.noise import BinarySymmetricChannel, PerfectChannel

MODELS = {
    "crash": CrashStop(fraction=0.5, crash_probability=0.3),
    "crash-everyone": CrashStop(fraction=1.0, crash_probability=1.0),
    "byzantine": ByzantineSenders(fraction=0.4),
    "byzantine-everyone": ByzantineSenders(fraction=1.0),
}

SIZES = (2, 7, 40)

ROUNDS = 5

CHANNELS = {"bsc": BinarySymmetricChannel(epsilon=0.2), "perfect": PerfectChannel()}

#: Two noiseless channels: the perfect one, and a binary symmetric channel
#: whose crossover probability 1/2 - epsilon is zero.
NOISELESS = {"perfect": PerfectChannel(), "bsc-eps0.5": BinarySymmetricChannel(epsilon=0.5)}


def _cases(channels):
    return pytest.mark.parametrize(
        "model, size, channel",
        [
            pytest.param(MODELS[name], size, channels[label], id=f"{name}-n{size}-{label}")
            for name in MODELS
            for size in SIZES
            for label in channels
        ],
    )


def _send_grids(rng: np.random.Generator, num_replicates: int, size: int, round_index: int):
    """A random send mask (silent in round 2) and an int8 bit grid."""
    if round_index == 2:
        send_mask = np.zeros((num_replicates, size), dtype=bool)
    else:
        send_mask = rng.random((num_replicates, size)) < 0.6
    bits = rng.integers(0, 2, size=(num_replicates, size), dtype=np.int8)
    return send_mask, bits


@_cases(CHANNELS)
def test_single_accept_invariants_hold_in_every_replicate(model, size, channel):
    num_replicates = 3
    network = PushGossipNetwork(size=size)
    faults = FaultInjector(model, size, np.random.default_rng(3), num_replicates=num_replicates)
    rng, inputs = np.random.default_rng(4), np.random.default_rng(size + 1)
    for round_index in range(ROUNDS):
        send_mask, bits = _send_grids(inputs, num_replicates, size, round_index)
        report = network.deliver_batch(send_mask, bits, channel, rng, faults=faults)
        # The injector crashed agents at the start of this round: only live
        # agents that asked to speak are counted and delivered.
        speaking = send_mask & faults.alive_mask()
        assert report.messages_sent.tolist() == speaking.sum(axis=1).tolist()
        assert (report.messages_delivered <= report.messages_sent).all()
        assert (report.messages_dropped >= 0).all()
        # A lone live speaker never reaches itself.
        lone = np.flatnonzero(speaking.sum(axis=1) == 1)
        assert not report.heard[lone, speaking[lone].argmax(axis=1)].any()
        # One accepted message per recipient cell, bits stay bits and only
        # where something was accepted.
        assert report.heard.dtype == bool and report.ones.dtype == np.int8
        assert set(np.unique(report.ones).tolist()) <= {0, 1}
        assert not report.ones[~report.heard].any()
    assert faults.rounds_started == ROUNDS


@_cases(CHANNELS)
def test_main_stream_consumption_depends_only_on_the_grid_shape(model, size, channel):
    num_replicates = 2
    tails = []
    for pattern in ("silent", "everyone", "random"):
        network = PushGossipNetwork(size=size)
        faults = FaultInjector(model, size, np.random.default_rng(8), num_replicates=num_replicates)
        rng, inputs = np.random.default_rng(21), np.random.default_rng(34)
        for round_index in range(ROUNDS):
            send_mask, bits = _send_grids(inputs, num_replicates, size, round_index)
            if pattern == "silent":
                send_mask[:] = False
            elif pattern == "everyone":
                send_mask[:] = True
            network.deliver_batch(send_mask, bits, channel, rng, faults=faults)
        tails.append(rng.random(6))
    assert np.array_equal(tails[0], tails[1])
    assert np.array_equal(tails[0], tails[2])


@_cases(NOISELESS)
def test_noiseless_channel_delivers_every_honest_bit_unchanged(model, size, channel):
    num_replicates = 4
    network = PushGossipNetwork(size=size)
    faults = FaultInjector(model, size, np.random.default_rng(13), num_replicates=num_replicates)
    rng, inputs = np.random.default_rng(6), np.random.default_rng(size + 2)
    # Replicate r's agents all push the bit r % 2; in the first two only
    # honest agents speak.
    row_bits = np.arange(num_replicates) % 2
    honest_deliveries = 0
    for round_index in range(ROUNDS):
        send_mask, _ = _send_grids(inputs, num_replicates, size, round_index)
        send_mask[:2] &= ~faults.byzantine[:2]
        bits = np.repeat(row_bits[:, None], size, axis=1).astype(np.int8)
        report = network.deliver_batch(send_mask, bits, channel, rng, faults=faults)
        speaking = send_mask & faults.alive_mask()
        honest_rows = ~(speaking & faults.byzantine).any(axis=1)
        heard = report.heard & honest_rows[:, None]
        expected = np.broadcast_to(row_bits[:, None], heard.shape)
        assert np.array_equal(report.ones[heard], expected[heard])
        honest_deliveries += int(heard.sum())
    if isinstance(model, CrashStop):
        # Crashed agents are silent, never corrupted.
        assert not faults.byzantine.any()
    if model.fraction == 1.0:
        # Everyone crashed before speaking, or every sender is Byzantine.
        assert honest_deliveries == 0
    else:
        assert honest_deliveries > 0  # the comparison must not be vacuous
