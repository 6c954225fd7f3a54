"""Serial push-gossip delivery: O(n) scatter vs the sort-based collision rule.

:meth:`repro.substrate.network.PushGossipNetwork.deliver` runs once per round
of every serial simulation.  It used to sort twice per round with
``np.unique``: once for the duplicate-sender check and once to find each
recipient's first message in the permuted order.  Both are now O(n): a
marked-agent count and a ``np.minimum.at`` first-occurrence scatter.  This
benchmark times one full-send round (every agent speaks) both ways on the
same generator seed and records the microseconds per round in
``benchmarks/results/deliver_serial.json``.

The sort-based rule survives only here and in the unit tests, as
:func:`unique_deliver`.  Both paths make the same draws, so ``measure``
first asserts that they return identical reports before it times anything.
Repeats alternate between the two paths, and the speedup is the median of
the per-repeat ratios, so slow drift in machine speed cancels out.

``build_workloads(toy=True)`` shrinks the round and repeat counts so the
smoke gate in ``tests/unit/test_smoke_gates.py`` can check the speed *ratio*
in well under a second.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np

from repro.errors import ProtocolError
from repro.substrate.network import DeliveryReport, PushGossipNetwork
from repro.substrate.noise import BinarySymmetricChannel, NoiseChannel

RESULTS_PATH = Path(__file__).parent / "results" / "deliver_serial.json"

#: Minimum speedup the full-size run asserts (the smoke gate asserts 1.5x).
MIN_SPEEDUP = 2.0


def unique_deliver(
    network: PushGossipNetwork,
    senders: np.ndarray,
    bits: np.ndarray,
    channel: NoiseChannel,
    rng: np.random.Generator,
) -> DeliveryReport:
    """The sort-based ``deliver``: same draws, ``np.unique`` for both checks.

    Kept as the timing reference only; it skips the shape checks and the
    network's counters, which cost the same on both paths.
    """
    senders = np.asarray(senders, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.int8)
    if senders.size == 0:
        return DeliveryReport.empty()
    if senders.min() < 0 or senders.max() >= network.size:
        raise ProtocolError("sender index out of range")
    if np.unique(senders).size != senders.size:
        raise ProtocolError("an agent may send at most one message per round")
    if bits.min() < 0 or bits.max() > 1:
        raise ProtocolError("message bits must be 0 or 1")
    if network.allow_self_messages:
        targets = rng.integers(0, network.size, size=senders.size)
    else:
        draws = rng.integers(0, network.size - 1, size=senders.size)
        targets = draws + (draws >= senders)
    order = rng.permutation(senders.size)
    recipients, first_position = np.unique(targets[order], return_index=True)
    accepted = order[first_position]
    accepted_bits = channel.transmit(bits[accepted], rng)
    sent, delivered = int(senders.size), int(recipients.size)
    return DeliveryReport(
        recipients=recipients.astype(np.int64),
        bits=accepted_bits.astype(np.int8),
        senders=senders[accepted],
        messages_sent=sent,
        messages_delivered=delivered,
        messages_dropped=sent - delivered,
    )


def build_workloads(toy: bool = False) -> Dict[str, Any]:
    """The full-send round workload (``toy=True`` = smoke-gate scale)."""
    if toy:
        return {"n": 2000, "epsilon": 0.2, "rounds": 20, "repeats": 7, "seed": 7}
    return {"n": 2000, "epsilon": 0.2, "rounds": 300, "repeats": 11, "seed": 7}


def _machine_stamp() -> Dict[str, Any]:
    """Commit, CPU count and versions, from ``collect_results.machine_stamp``."""
    script = Path(__file__).with_name("collect_results.py")
    spec = importlib.util.spec_from_file_location("_deliver_bench_collect", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.machine_stamp()


def measure(workload: Dict[str, Any]) -> Dict[str, Any]:
    """Check both paths agree, then time them in alternating repeats."""
    n, rounds, seed = workload["n"], workload["rounds"], workload["seed"]
    network = PushGossipNetwork(size=n)
    channel = BinarySymmetricChannel(epsilon=workload["epsilon"])
    senders = np.arange(n, dtype=np.int64)
    bits = (np.arange(n) % 2).astype(np.int8)

    paths: Dict[str, Callable[..., DeliveryReport]] = {
        "deliver": network.deliver,
        "unique_oracle": lambda s, b, c, r: unique_deliver(network, s, b, c, r),
    }
    new = paths["deliver"](senders, bits, channel, np.random.default_rng(seed))
    old = paths["unique_oracle"](senders, bits, channel, np.random.default_rng(seed))
    for name in ("recipients", "bits", "senders"):
        assert np.array_equal(getattr(new, name), getattr(old, name)), name
        assert getattr(new, name).dtype == getattr(old, name).dtype, name
    assert new.messages_delivered == old.messages_delivered

    def per_round_us(label: str) -> float:
        deliver = paths[label]
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        for _ in range(rounds):
            deliver(senders, bits, channel, rng)
        return 1e6 * (time.perf_counter() - start) / rounds

    for label in paths:  # warm-up: first-call allocation and import costs
        per_round_us(label)
    samples: Dict[str, list] = {label: [] for label in paths}
    for _ in range(workload["repeats"]):
        for label in paths:
            samples[label].append(per_round_us(label))
    ratios = [old / new for old, new in zip(samples["unique_oracle"], samples["deliver"])]

    us_per_round = {label: round(statistics.median(times), 1) for label, times in samples.items()}
    return {
        "description": "serial deliver: O(n) first-occurrence scatter vs np.unique collision rule",
        "workload": {"experiment": "one full-send push-gossip round", **workload},
        "machine": _machine_stamp(),
        "us_per_round": us_per_round,
        "seconds": {
            label: round(sum(times) * rounds / 1e6, 3) for label, times in samples.items()
        },
        "speedup_vs_serial": {"deliver_vs_unique_oracle": round(statistics.median(ratios), 2)},
    }


def test_deliver_serial_speedup():
    """Measure both delivery paths and record the JSON perf record."""
    payload = measure(build_workloads())
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(json.dumps(payload, indent=2))

    speedup = payload["speedup_vs_serial"]["deliver_vs_unique_oracle"]
    assert speedup >= MIN_SPEEDUP, (
        f"expected the O(n) deliver to beat the np.unique rule by {MIN_SPEEDUP}x, "
        f"got {speedup}x (recorded in {RESULTS_PATH})"
    )
