"""Invariants of the resilient (fault-aware) delivery kernel.

With a fault injector, :meth:`PushGossipNetwork.deliver` and
:meth:`PushGossipNetwork.deliver_batch` both run one positional kernel
(see :mod:`repro.substrate.network`).  The pinned digests in
``tests/unit/test_serial_resilient_regression.py`` fix its output for two
configurations; the tests here check the rules it must keep on every kept
fault model, on tiny and moderate networks, with and without
self-messages:

* a serial round is the kernel at one replicate;
* single-accept delivery: unique recipients per replicate, conserved message
  counts, no self-delivery unless allowed, and only live senders delivered;
* the main stream's consumption depends on the grid shape alone, not on who
  speaks or who crashed;
* over a noiseless channel, every honest sender's bit arrives unchanged.
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

parametrize_cases = pytest.mark.parametrize(
    "model, size, allow_self",
    [
        pytest.param(MODELS[name], size, allow_self, id=f"{name}-n{size}-{label}")
        for name in MODELS
        for size in SIZES
        for allow_self, label in ((False, "no-self"), (True, "self"))
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


@parametrize_cases
def test_serial_round_is_the_kernel_at_one_replicate(model, size, allow_self):
    serial_net = PushGossipNetwork(size=size, allow_self_messages=allow_self)
    batch_net = PushGossipNetwork(size=size, allow_self_messages=allow_self)
    serial_faults = FaultInjector(model, size, np.random.default_rng(11))
    batch_faults = FaultInjector(model, size, np.random.default_rng(11))
    serial_rng, batch_rng = np.random.default_rng(5), np.random.default_rng(5)
    serial_channel = BinarySymmetricChannel(epsilon=0.2)
    batch_channel = BinarySymmetricChannel(epsilon=0.2)
    inputs = np.random.default_rng(size)
    for round_index in range(ROUNDS):
        send_mask, bits = _send_grids(inputs, 1, size, round_index)
        senders = np.flatnonzero(send_mask[0])
        serial = serial_net.deliver(
            senders, bits[0, senders], serial_channel, serial_rng, faults=serial_faults
        )
        batch = batch_net.deliver_batch(
            send_mask, bits, batch_channel, batch_rng, faults=batch_faults
        )
        assert np.array_equal(serial.recipients, batch.cells)
        assert np.array_equal(serial.bits, batch.cell_bits)
        assert np.array_equal(serial.senders, batch.cell_senders)
        assert serial.messages_sent == int(batch.messages_sent[0])
        assert serial.messages_dropped == int(batch.messages_dropped[0])
    assert np.array_equal(serial_faults.crashed, batch_faults.crashed)
    assert serial_faults.counters == batch_faults.counters
    assert serial_channel.flips_applied() == batch_channel.flips_applied()
    assert np.array_equal(serial_rng.random(4), batch_rng.random(4))


@parametrize_cases
def test_single_accept_invariants_hold_in_every_replicate(model, size, allow_self):
    num_replicates = 3
    network = PushGossipNetwork(size=size, allow_self_messages=allow_self)
    faults = FaultInjector(model, size, np.random.default_rng(3), num_replicates=num_replicates)
    rng, inputs = np.random.default_rng(4), np.random.default_rng(size + 1)
    sent_total = delivered_total = 0
    for round_index in range(ROUNDS):
        send_mask, bits = _send_grids(inputs, num_replicates, size, round_index)
        report = network.deliver_batch(
            send_mask, bits, BinarySymmetricChannel(epsilon=0.3), rng, faults=faults
        )
        # The injector crashed agents at the start of this round: only live
        # agents that asked to speak are counted and delivered.
        speaking = send_mask & faults.alive_mask()
        assert report.messages_sent.tolist() == speaking.sum(axis=1).tolist()
        assert (report.messages_delivered <= report.messages_sent).all()
        assert (report.messages_dropped >= 0).all()
        rows = report.cells // size
        recipients = report.cells % size
        senders = report.cell_senders
        assert speaking[rows, senders].all()
        if not allow_self:
            assert not (recipients == senders).any()
        # One accepted message per recipient cell, bits stay bits.
        assert np.unique(report.cells).size == report.cells.size
        assert set(np.unique(report.cell_bits).tolist()) <= {0, 1}
        sent_total += int(report.messages_sent.sum())
        delivered_total += int(report.messages_delivered.sum())
    assert faults.rounds_started == network.rounds_executed == ROUNDS
    assert network.messages_sent_total == sent_total
    assert network.messages_delivered_total == delivered_total
    assert network.messages_dropped_total == sent_total - delivered_total


@parametrize_cases
def test_main_stream_consumption_depends_only_on_the_grid_shape(model, size, allow_self):
    num_replicates = 2
    tails = []
    for pattern in ("silent", "everyone", "random"):
        network = PushGossipNetwork(size=size, allow_self_messages=allow_self)
        faults = FaultInjector(model, size, np.random.default_rng(8), num_replicates=num_replicates)
        rng, inputs = np.random.default_rng(21), np.random.default_rng(34)
        for round_index in range(ROUNDS):
            send_mask, bits = _send_grids(inputs, num_replicates, size, round_index)
            if pattern == "silent":
                send_mask[:] = False
            elif pattern == "everyone":
                send_mask[:] = True
            network.deliver_batch(
                send_mask, bits, BinarySymmetricChannel(epsilon=0.2), rng, faults=faults
            )
        tails.append(rng.random(6))
    assert np.array_equal(tails[0], tails[1])
    assert np.array_equal(tails[0], tails[2])


@parametrize_cases
def test_noiseless_channel_delivers_every_honest_bit_unchanged(model, size, allow_self):
    num_replicates = 4
    network = PushGossipNetwork(size=size, allow_self_messages=allow_self)
    faults = FaultInjector(model, size, np.random.default_rng(13), num_replicates=num_replicates)
    rng, inputs = np.random.default_rng(6), np.random.default_rng(size + 2)
    honest_deliveries = 0
    for round_index in range(ROUNDS):
        send_mask, bits = _send_grids(inputs, num_replicates, size, round_index)
        report = network.deliver_batch(send_mask, bits, PerfectChannel(), rng, faults=faults)
        rows = report.cells // size
        senders = report.cell_senders
        honest = ~faults.byzantine[rows, senders]
        assert np.array_equal(report.cell_bits[honest], bits[rows, senders][honest])
        honest_deliveries += int(honest.sum())
    if isinstance(model, CrashStop):
        # Crashed agents are silent, never corrupted.
        assert not faults.byzantine.any()
    if model.fraction == 1.0:
        # Everyone crashed before speaking, or every sender is Byzantine.
        assert honest_deliveries == 0
    else:
        assert honest_deliveries > 0  # the comparison must not be vacuous
