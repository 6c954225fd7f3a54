"""Determinism regression: serial fault / topology delivery is pinned across commits.

``PushGossipNetwork.deliver(faults=..., topology=...)`` switches to the
positional resilient path (see ``repro.substrate.network``).  The no-fault
pin (``test_fault_none_regression.py``) never reaches that path, and the
backend parity tests compare two backends within one commit, so neither
notices a change in what a serial fault or topology round draws.  The
digests below close that gap at two levels:

* ``SUBSTRATE_DIGESTS`` — multi-round ``deliver`` runs over every fault
  model x contact topology x noise channel, hashing the reports, the end
  states of the delivery and fault generators, the injector counters, the
  crash grid, the network counters and the channel flip count;
* ``E12_SERIAL_DIGESTS`` — the serial E12 driver (crash and Byzantine),
  digested through ``_golden_grid.grid_digest``.

Both were captured before the serial resilient path was folded into the
batch resilient kernel at ``R = 1``; they must not be edited to make a
change pass.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from _golden_grid import grid_digest
from repro.substrate.faults import BurstNoise, ByzantineSenders, CrashStop, FaultInjector
from repro.substrate.network import PushGossipNetwork
from repro.substrate.noise import (
    AdversarialFlipBudgetChannel,
    BinarySymmetricChannel,
    HeterogeneousChannel,
)
from repro.substrate.topology import ChurnTopology, DegreeLimitedTopology, TwoClusterTopology

FAULTS = {
    "none": None,
    "crash": CrashStop(fraction=0.4, crash_probability=0.25),
    "byz-random": ByzantineSenders(fraction=0.3, mode="random"),
    "byz-adversarial": ByzantineSenders(fraction=0.3, mode="adversarial", adversarial_bit=1),
    "burst": BurstNoise(start_probability=0.4, stop_probability=0.3, flip_probability=0.5),
}

TOPOLOGIES = {
    "uniform": None,
    "degree-limited": DegreeLimitedTopology(degree=3),
    "two-cluster": TwoClusterTopology(cross_probability=0.2),
    "churn": ChurnTopology(offline_probability=0.2),
}

CHANNELS = {
    "bsc": lambda: BinarySymmetricChannel(epsilon=0.2),
    "heterogeneous": lambda: HeterogeneousChannel(epsilon=0.2, low_fraction=0.3),
    "flip-budget": lambda: AdversarialFlipBudgetChannel(epsilon=0.2, budget=15),
}

#: ``(size, allow_self_messages)`` networks every case runs on.
NETWORKS = ((6, True), (41, False))

ROUNDS = 8

#: Every (fault, topology, channel) triple that reaches the resilient path;
#: (none, uniform) is the fault-free path, pinned elsewhere.
CASES = [
    (fault, topology, channel)
    for fault in FAULTS
    for topology in TOPOLOGIES
    for channel in CHANNELS
    if (fault, topology) != ("none", "uniform")
]


def _run_case(fault: str, topology: str, channel: str, size: int, allow_self: bool) -> dict:
    """Run ``ROUNDS`` serial rounds and collect every observable of the path."""
    seed = sum(map(ord, f"{fault}/{topology}/{channel}/{size}"))
    network = PushGossipNetwork(size=size, allow_self_messages=allow_self)
    noise = CHANNELS[channel]()
    delivery_rng = np.random.default_rng(seed)
    fault_rng = np.random.default_rng(seed + 1)
    protocol_rng = np.random.default_rng(seed + 2)
    model = FAULTS[fault]
    injector = None if model is None else FaultInjector(model, size, fault_rng)
    reports = []
    for round_index in range(ROUNDS):
        # Unsorted sender subsets of varying size (round 3 is silent), with
        # the bits alternating between int8 and int64 arrays.
        count = 0 if round_index == 3 else int(protocol_rng.integers(1, size + 1))
        senders = protocol_rng.permutation(size)[:count]
        bits = protocol_rng.integers(0, 2, size=count)
        if round_index % 2:
            bits = bits.astype(np.int8)
        report = network.deliver(
            senders, bits, noise, delivery_rng,
            faults=injector, topology=TOPOLOGIES[topology],
        )
        reports.append(
            {
                "recipients": report.recipients.tolist(),
                "bits": report.bits.tolist(),
                "senders": report.senders.tolist(),
                "dtypes": [str(report.recipients.dtype), str(report.bits.dtype),
                           str(report.senders.dtype)],
                "counts": [report.messages_sent, report.messages_delivered,
                           report.messages_dropped],
            }
        )
    return {
        "reports": reports,
        "delivery_rng": delivery_rng.bit_generator.state,
        "fault_rng": fault_rng.bit_generator.state,
        "injector_counters": None if injector is None else injector.counters,
        "crashed": None if injector is None else injector.crashed.tolist(),
        "network": [network.messages_sent_total, network.messages_delivered_total,
                    network.messages_dropped_total, network.rounds_executed],
        "channel_flips": noise.flips_applied(),
    }


def substrate_digest(fault: str, topology: str, channel: str) -> str:
    """First 16 hex chars of the sha256 over both networks' observables."""
    payload = [_run_case(fault, topology, channel, size, allow) for size, allow in NETWORKS]
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


#: Captured at commit ce8fe37, before the serial resilient path was deleted.
SUBSTRATE_DIGESTS = {
    ("none", "degree-limited", "bsc"): "902948c4e660b4e3",
    ("none", "degree-limited", "heterogeneous"): "2d52c9204d74ac61",
    ("none", "degree-limited", "flip-budget"): "1b72c0190b5597c5",
    ("none", "two-cluster", "bsc"): "b81ca7f340f64896",
    ("none", "two-cluster", "heterogeneous"): "61b4c1f247cb600c",
    ("none", "two-cluster", "flip-budget"): "9727072fd99bb4b5",
    ("none", "churn", "bsc"): "abc020d2b2f8e70a",
    ("none", "churn", "heterogeneous"): "52a5d0644df48876",
    ("none", "churn", "flip-budget"): "e10e4bb3540882fb",
    ("crash", "uniform", "bsc"): "7d4fa970e3d6209a",
    ("crash", "uniform", "heterogeneous"): "96ff8105d1f0604f",
    ("crash", "uniform", "flip-budget"): "9598cb0fd687983e",
    ("crash", "degree-limited", "bsc"): "b47b8218fa89fdf6",
    ("crash", "degree-limited", "heterogeneous"): "ad0c3c7f22dc18d9",
    ("crash", "degree-limited", "flip-budget"): "362d375e65023344",
    ("crash", "two-cluster", "bsc"): "2134dd3f8b0de851",
    ("crash", "two-cluster", "heterogeneous"): "02472fd148462b06",
    ("crash", "two-cluster", "flip-budget"): "6220b4b3f0e90a2c",
    ("crash", "churn", "bsc"): "186283b62d04dbfc",
    ("crash", "churn", "heterogeneous"): "c83807e09900010e",
    ("crash", "churn", "flip-budget"): "8f28216a8023c8d7",
    ("byz-random", "uniform", "bsc"): "603b1f417f0df3ec",
    ("byz-random", "uniform", "heterogeneous"): "a5c3a7a7efe336d2",
    ("byz-random", "uniform", "flip-budget"): "0e95f30fd32ee88c",
    ("byz-random", "degree-limited", "bsc"): "1911ab044c01995b",
    ("byz-random", "degree-limited", "heterogeneous"): "fd8bd7a9f69bdce3",
    ("byz-random", "degree-limited", "flip-budget"): "bd0ee4100e0b594f",
    ("byz-random", "two-cluster", "bsc"): "8002f689a3c1f068",
    ("byz-random", "two-cluster", "heterogeneous"): "c3ba073be95f05f0",
    ("byz-random", "two-cluster", "flip-budget"): "409ea34dc80d3743",
    ("byz-random", "churn", "bsc"): "87414eaf8e5b3f0d",
    ("byz-random", "churn", "heterogeneous"): "d0e4125209fbfe0e",
    ("byz-random", "churn", "flip-budget"): "a3357068e89434a5",
    ("byz-adversarial", "uniform", "bsc"): "12d6affcedd80ab7",
    ("byz-adversarial", "uniform", "heterogeneous"): "ffb5507c24192388",
    ("byz-adversarial", "uniform", "flip-budget"): "7c6acea3219f479e",
    ("byz-adversarial", "degree-limited", "bsc"): "7fd7d9ac227c5e9d",
    ("byz-adversarial", "degree-limited", "heterogeneous"): "3daa7735030c05a8",
    ("byz-adversarial", "degree-limited", "flip-budget"): "476510eb66ac4ff0",
    ("byz-adversarial", "two-cluster", "bsc"): "d1047135d8857f04",
    ("byz-adversarial", "two-cluster", "heterogeneous"): "91840d1d83db4618",
    ("byz-adversarial", "two-cluster", "flip-budget"): "03192734cfbb23d5",
    ("byz-adversarial", "churn", "bsc"): "ce3965df9bba89aa",
    ("byz-adversarial", "churn", "heterogeneous"): "f019bf4322d002a0",
    ("byz-adversarial", "churn", "flip-budget"): "5ffa36f73c8d8e11",
    ("burst", "uniform", "bsc"): "78c74ccc2217b6d9",
    ("burst", "uniform", "heterogeneous"): "ed5d1de0c0564620",
    ("burst", "uniform", "flip-budget"): "951e25d976a94d5f",
    ("burst", "degree-limited", "bsc"): "e9137644bdd27ab4",
    ("burst", "degree-limited", "heterogeneous"): "e6b50e7ac65c9cb5",
    ("burst", "degree-limited", "flip-budget"): "cfedf23541a75791",
    ("burst", "two-cluster", "bsc"): "b54a172fb76412ae",
    ("burst", "two-cluster", "heterogeneous"): "8913c54137e268c5",
    ("burst", "two-cluster", "flip-budget"): "75f027a5e9e6e883",
    ("burst", "churn", "bsc"): "aa880cc74c0f6632",
    ("burst", "churn", "heterogeneous"): "18fadda562605e76",
    ("burst", "churn", "flip-budget"): "dc259a9d8bcd7898",
}

#: Serial E12 on the backend-parity configuration, one per fault kind.
E12_SERIAL_GRID = [
    ("E12", False, dict(n=150, epsilon=0.3, fault_fractions=(0.0, 0.2), trials=2,
                        fault_kind=kind))
    for kind in ("crash", "byzantine")
]

#: Captured at commit ce8fe37, before the serial resilient path was deleted.
E12_SERIAL_DIGESTS = {
    "crash": "803eeb1e7b02f082460ab65cbe2f7410e0ad5c36d3f840e9580a701e6a7b482c",
    "byzantine": "3eb05dab0a1babd79005d1b551e3abd026ab9b74cebb454051bb38cc471845d5",
}


def test_every_case_is_pinned():
    assert set(SUBSTRATE_DIGESTS) == set(CASES)
    assert len(CASES) == 57


@pytest.mark.parametrize("fault, topology, channel", CASES, ids=["-".join(c) for c in CASES])
def test_serial_resilient_delivery_matches_pinned_digest(fault, topology, channel):
    """Multi-round serial ``deliver`` with faults/topology is bit-identical to the pin."""
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
