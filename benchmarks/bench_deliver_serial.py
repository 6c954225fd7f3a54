"""Serial push-gossip delivery: the count rule vs the sort-based collision rule.

:meth:`repro.substrate.network.PushGossipNetwork.deliver` runs once per round
of every serial simulation.  It used to sort twice per round with
``np.unique``: once for the duplicate-sender check and once to find each
recipient's first message in a random permutation, whose winner the channel
then noised.  The duplicate check is now a marked-agent count, and each
recipient's noisy bit is one uniform draw against its message and 1-message
counts (``np.add.at`` into reused buffers; the count rule of
:mod:`repro.substrate.network`).  This benchmark times one full-send round
(every agent speaks) both ways and records the microseconds per round in
``benchmarks/results/deliver_serial.json``.

The sort-based rule survives only here, as :func:`unique_deliver`, the
timed baseline.  The two rules draw differently, so ``measure`` checks that
they agree in law instead: over the last timed repeat's rounds, the mean
number of accepted messages and the mean share of accepted 1s of the two
must lie within :data:`TOLERANCE_SE` combined standard errors
(``rule_agreement.py``).  Repeats alternate between the two paths, and the
speedup is the median of the per-repeat ratios, so slow drift in machine
speed cancels out.

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


def _sibling(name: str):
    """``benchmarks/<name>.py`` as a module (``benchmarks/`` is not a package)."""
    script = Path(__file__).with_name(f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_{name}", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_RULE_AGREEMENT = _sibling("rule_agreement")
agreement = _RULE_AGREEMENT.agreement

#: How many combined standard errors the two rules' round statistics may differ.
TOLERANCE_SE = _RULE_AGREEMENT.TOLERANCE_SE


def unique_deliver(
    network: PushGossipNetwork,
    senders: np.ndarray,
    bits: np.ndarray,
    channel: NoiseChannel,
    rng: np.random.Generator,
) -> DeliveryReport:
    """The sort-based ``deliver``: ``np.unique`` for both checks, then the
    channel on each recipient's first message in a random permutation.

    Kept as the timing reference only; it skips the shape checks, which
    cost the same on both paths.  Its report is the network's: the ``(n,)``
    accepted flags and kept bits.
    """
    senders = np.asarray(senders, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.int8)
    heard = np.zeros(network.size, dtype=bool)
    ones = np.zeros(network.size, dtype=np.int8)
    if senders.size == 0:
        return DeliveryReport(heard, ones, 0)
    if senders.min() < 0 or senders.max() >= network.size:
        raise ProtocolError("sender index out of range")
    if np.unique(senders).size != senders.size:
        raise ProtocolError("an agent may send at most one message per round")
    if bits.min() < 0 or bits.max() > 1:
        raise ProtocolError("message bits must be 0 or 1")
    draws = rng.integers(0, network.size - 1, size=senders.size)
    targets = draws + (draws >= senders)
    order = rng.permutation(senders.size)
    recipients, first_position = np.unique(targets[order], return_index=True)
    accepted = order[first_position]
    heard[recipients] = True
    ones[recipients] = channel.transmit(bits[accepted], rng)
    return DeliveryReport(heard, ones, int(senders.size))


def build_workloads(toy: bool = False) -> Dict[str, Any]:
    """The full-send round workload (``toy=True`` = smoke-gate scale)."""
    if toy:
        return {"n": 2000, "epsilon": 0.2, "rounds": 20, "repeats": 7, "seed": 7}
    return {"n": 2000, "epsilon": 0.2, "rounds": 300, "repeats": 11, "seed": 7}


def _machine_stamp() -> Dict[str, Any]:
    """Commit, CPU count and versions, from ``collect_results.machine_stamp``."""
    return _sibling("collect_results").machine_stamp()


def measure(workload: Dict[str, Any]) -> Dict[str, Any]:
    """Time both paths in alternating repeats, then check they agree in law."""
    n, rounds, seed = workload["n"], workload["rounds"], workload["seed"]
    network = PushGossipNetwork(size=n)
    channel = BinarySymmetricChannel(epsilon=workload["epsilon"])
    senders = np.arange(n, dtype=np.int64)
    bits = (np.arange(n) % 2).astype(np.int8)

    paths: Dict[str, Callable[..., DeliveryReport]] = {
        "deliver": network.deliver,
        "unique_oracle": lambda s, b, c, r: unique_deliver(network, s, b, c, r),
    }
    reports: Dict[str, list] = {}

    def per_round_us(label: str) -> float:
        deliver = paths[label]
        rng = np.random.default_rng(seed)
        kept = reports[label] = []
        start = time.perf_counter()
        for _ in range(rounds):
            kept.append(deliver(senders, bits, channel, rng))
        return 1e6 * (time.perf_counter() - start) / rounds

    for label in paths:  # warm-up: first-call allocation and import costs
        per_round_us(label)
    samples: Dict[str, list] = {label: [] for label in paths}
    for _ in range(workload["repeats"]):
        for label in paths:
            samples[label].append(per_round_us(label))
    ratios = [old / new for old, new in zip(samples["unique_oracle"], samples["deliver"])]
    statistics_gap = agreement(
        {
            label: [report.ones[report.heard] for report in kept]
            for label, kept in reports.items()
        }
    )
    for statistic, summary in statistics_gap.items():
        assert summary["gap_se"] <= TOLERANCE_SE, (statistic, summary)

    us_per_round = {label: round(statistics.median(times), 1) for label, times in samples.items()}
    return {
        "description": "serial deliver: count rule vs np.unique collision rule",
        "workload": {"experiment": "one full-send push-gossip round", **workload},
        "machine": _machine_stamp(),
        "us_per_round": us_per_round,
        "seconds": {
            label: round(sum(times) * rounds / 1e6, 3) for label, times in samples.items()
        },
        "speedup_vs_serial": {"deliver_vs_unique_oracle": round(statistics.median(ratios), 2)},
        "agreement": statistics_gap,
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
        f"expected the count-rule deliver to beat the np.unique rule by {MIN_SPEEDUP}x, "
        f"got {speedup}x (recorded in {RESULTS_PATH})"
    )
