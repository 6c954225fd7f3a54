"""Determinism regression: one-replicate fault delivery is pinned across commits.

``PushGossipNetwork.deliver_batch(faults=...)`` switches to the positional
resilient kernel (see ``repro.substrate.network``); a serial faulty trial
runs it at ``R = 1``.  The no-fault pin (``test_fault_none_regression.py``)
never reaches that kernel, and the backend parity tests compare two
backends within one commit, so neither notices a change in what a
one-replicate fault round draws.  The digests below close that gap at two
levels:

* ``SUBSTRATE_DIGESTS`` — multi-round one-replicate runs of the kernel
  under each fault model E12 uses, on uniform push gossip over a binary
  symmetric channel, hashing the reports, the end states of the delivery
  and fault generators, the injector counters, the crash grid, the network
  counters and the channel flip count;
* ``E12_SERIAL_DIGESTS`` — the serial E12 driver (crash and Byzantine),
  digested through ``_golden_grid.grid_digest``; its paper-protocol column
  runs the resilient kernel at ``R = 1``.

The substrate pins were captured through the serial ``deliver(faults=...)``
entry point, which ran this kernel on a one-replicate int8 grid; they were
re-taken at kernel epoch 1, when the injector's three always-zero
``burst_*`` counter keys were dropped (with those keys put back, the code
reproduces the old pins).  Building the grid here, as that entry point did,
reproduces them unchanged.  The E12 pins held at kernel epoch 2, when
serial E12 trials became the batch rules at ``R = 1``: this configuration's
reports came out the same on the new draws.  Neither must be edited to
make a change pass.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from _golden_grid import grid_digest
from repro.store.fingerprint import KERNEL_EPOCH
from repro.substrate.faults import ByzantineSenders, CrashStop, FaultInjector
from repro.substrate.network import PushGossipNetwork
from repro.substrate.noise import BinarySymmetricChannel

FAULTS = {
    "crash": CrashStop(fraction=0.4, crash_probability=0.25),
    "byz-random": ByzantineSenders(fraction=0.3),
}

#: ``(size, allow_self_messages)`` networks every case runs on.
NETWORKS = ((6, True), (41, False))

ROUNDS = 8

#: One ``(fault, topology, channel)`` case per fault model.  Every case runs
#: uniform push gossip over a binary symmetric channel; the "uniform" and
#: "bsc" labels stay because each case's seed hashes its key.
CASES = [(fault, "uniform", "bsc") for fault in FAULTS]


def _run_case(fault: str, topology: str, channel: str, size: int, allow_self: bool) -> dict:
    """Run ``ROUNDS`` one-replicate rounds and collect every observable of the path."""
    seed = sum(map(ord, f"{fault}/{topology}/{channel}/{size}"))
    network = PushGossipNetwork(size=size, allow_self_messages=allow_self)
    noise = BinarySymmetricChannel(epsilon=0.2)
    delivery_rng = np.random.default_rng(seed)
    fault_rng = np.random.default_rng(seed + 1)
    protocol_rng = np.random.default_rng(seed + 2)
    injector = FaultInjector(FAULTS[fault], size, fault_rng)
    reports = []
    for round_index in range(ROUNDS):
        # Unsorted sender subsets of varying size (round 3 is silent), with
        # the bits alternating between int8 and int64 arrays.
        count = 0 if round_index == 3 else int(protocol_rng.integers(1, size + 1))
        senders = protocol_rng.permutation(size)[:count]
        bits = protocol_rng.integers(0, 2, size=count)
        if round_index % 2:
            bits = bits.astype(np.int8)
        # An int8 grid: Byzantine fake bits are drawn with the grid's dtype.
        send_mask = np.zeros((1, size), dtype=bool)
        grid = np.zeros((1, size), dtype=np.int8)
        send_mask[0, senders] = True
        grid[0, senders] = bits
        report = network.deliver_batch(send_mask, grid, noise, delivery_rng, faults=injector)
        sent = int(report.messages_sent[0])
        delivered = int(report.cells.size)
        reports.append(
            {
                "recipients": report.cells.tolist(),
                "bits": report.cell_bits.tolist(),
                "senders": report.cell_senders.tolist(),
                "dtypes": [str(report.cells.dtype), str(report.cell_bits.dtype),
                           str(report.cell_senders.dtype)],
                "counts": [sent, delivered, sent - delivered],
            }
        )
    return {
        "reports": reports,
        "delivery_rng": delivery_rng.bit_generator.state,
        "fault_rng": fault_rng.bit_generator.state,
        "injector_counters": injector.counters,
        "crashed": injector.crashed.tolist(),
        "network": [network.messages_sent_total, network.messages_delivered_total,
                    network.messages_dropped_total, network.rounds_executed],
        "channel_flips": noise.flips_applied(),
    }


def substrate_digest(fault: str, topology: str, channel: str) -> str:
    """First 16 hex chars of the sha256 over both networks' observables."""
    payload = [_run_case(fault, topology, channel, size, allow) for size, allow in NETWORKS]
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


#: Re-taken at kernel epoch 1 without the ``burst_*`` counter keys (the
#: ce8fe37 pins were 7d4fa970e3d6209a and 603b1f417f0df3ec).
SUBSTRATE_DIGESTS = {
    ("crash", "uniform", "bsc"): "16c0b709e78cb2d0",
    ("byz-random", "uniform", "bsc"): "f6a58c6f399a397a",
}

#: Serial E12 on the backend-parity configuration, one per fault kind.
E12_SERIAL_GRID = [
    ("E12", False, dict(n=150, epsilon=0.3, fault_fractions=(0.0, 0.2), trials=2,
                        fault_kind=kind))
    for kind in ("crash", "byzantine")
]

#: Captured at commit ce8fe37, before the serial resilient path was deleted.
#: The Byzantine pin was re-taken at kernel epoch 1, when the serial
#: comparator trials became the batched rule at ``R = 1`` (it was
#: ``3eb05dab...``).  The crash report did not move: with crash faults alone
#: every comparator trial ends in exact agreement on either rule.
E12_SERIAL_DIGESTS = {
    "crash": "803eeb1e7b02f082460ab65cbe2f7410e0ad5c36d3f840e9580a701e6a7b482c",
    "byzantine": "445bd1b3bca5aecedd5e8239208133507ff2ee9c226e46255b983ad358814ef0",
}


#: The ``KERNEL_EPOCH`` these pins were taken (or last re-verified) at.
PINNED_AT_EPOCH = 2


def test_every_case_is_pinned():
    assert set(SUBSTRATE_DIGESTS) == set(CASES)
    assert len(CASES) == 2


@pytest.mark.parametrize("fault, topology, channel", CASES, ids=["-".join(c) for c in CASES])
def test_serial_resilient_delivery_matches_pinned_digest(fault, topology, channel):
    """Multi-round one-replicate delivery with faults is bit-identical to the pin."""
    assert substrate_digest(fault, topology, channel) == SUBSTRATE_DIGESTS[
        (fault, topology, channel)
    ]


@pytest.mark.parametrize(
    "experiment_id, batch, overrides",
    E12_SERIAL_GRID,
    ids=[f"E12-serial-{o['fault_kind']}" for _, _, o in E12_SERIAL_GRID],
)
def test_serial_e12_matches_pinned_digest(experiment_id, batch, overrides):
    """Serial E12 reports (crash and Byzantine) are bit-identical to the pin."""
    digest = grid_digest(experiment_id, batch, overrides)
    assert digest == E12_SERIAL_DIGESTS[overrides["fault_kind"]]


def test_pins_were_taken_at_the_current_kernel_epoch():
    assert PINNED_AT_EPOCH == KERNEL_EPOCH, "re-pin and bump KERNEL_EPOCH"
