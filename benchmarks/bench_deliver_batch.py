"""Batched push-gossip delivery: the count rule vs the sort-based collision rule.

:meth:`repro.substrate.network.PushGossipNetwork.deliver_batch` runs once per
round of every batched simulation, over an ``(R, n)`` replicate grid.  It
used to draw a priority per message, pick each (replicate, recipient)
bucket's winner with one argsort of the combined float key ``bucket +
priority``, and noise the winners in a separate channel pass.  It now counts
each cell's messages and 1-messages (``np.add.at`` into reused buffers, over
a layout that lists the 1-carrying messages first) and draws each heard
cell's noisy bit with one uniform against those counts (the count rule of
:mod:`repro.substrate.network`).  This benchmark times rounds at ``R = 8``,
``n = 2000`` both ways, in three families, and records the microseconds per
round in ``benchmarks/results/deliver_batch.json``:

* ``full_send`` and ``send_10pct``: a loop of one-round calls with the same
  inputs for every round (every Stage-II round is a full send);
* ``fresh_inputs``: full send with a new bit grid every round, as the
  batched baselines of E7 and E11 call it.

A fourth family, ``phase``, times what the stage kernels do with a phase's
fixed inputs: one ``deliver_batch(..., rounds=40)`` call against 40
one-round calls, each side adding its reports into per-cell totals, at
``(R, n)`` = (2, 200), (3, 2000) and (8, 2000).  The two sides draw the same
numbers, so its check is exact equality of the totals and of the
generator's next draw; it records the per-round saving and asserts no
speed.

The sort-based rule survives only here, as :func:`argsort_deliver_batch`,
the timed baseline of the first three families.  The two rules draw
differently, so ``measure`` checks
that they agree in law instead: over the last timed repeat's rounds, each
family's mean number of accepted messages per round and mean share of
accepted 1s must lie within :data:`TOLERANCE_SE` combined standard errors
of each other (``rule_agreement.py``).  Repeats alternate between the two
paths, and the speedup is the median of the per-repeat ratios, so slow
drift in machine speed cancels out.

``build_workloads(toy=True)`` shrinks the round and repeat counts so the
smoke gate in ``tests/unit/test_smoke_gates.py`` can check the full-send
speed *ratio* in about a second.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np

from repro.substrate.network import DeliveryReport, PushGossipNetwork
from repro.substrate.noise import BinarySymmetricChannel, NoiseChannel

RESULTS_PATH = Path(__file__).parent / "results" / "deliver_batch.json"

#: Minimum full-send speedup the full-size run asserts (the smoke gate asserts 1.1x).
MIN_SPEEDUP = 1.25


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

#: Families timed: the share of agents that speak, and whether every round
#: gets fresh inputs (``True``) or repeats one phase's inputs (``False``).
FAMILIES = {
    "full_send": (1.0, False),
    "send_10pct": (0.1, False),
    "fresh_inputs": (1.0, True),
}

#: The ``phase`` family: the ``(R, n)`` grids timed, at full send, and the
#: rounds one call runs.
PHASE_SHAPES = ((2, 200), (3, 2000), (8, 2000))
PHASE_ROUNDS = 40


def argsort_deliver_batch(
    network: PushGossipNetwork,
    send_mask: np.ndarray,
    bits: np.ndarray,
    channel: NoiseChannel,
    rng: np.random.Generator,
) -> DeliveryReport:
    """The sort-based ``deliver_batch``: a priority per message, the lowest
    per bucket found by one combined-key argsort, then the channel on the
    winners.

    Kept as the timing reference only; it checks bits like the network does
    but skips the shape checks, which cost the same on both paths.  Its
    report is the network's one-round report: the ``(R, n)`` accepted flags
    and kept bits.
    """
    num_replicates, size = send_mask.shape
    network._check_bits(bits[send_mask])
    sent = send_mask.sum(axis=1).astype(np.int64)
    heard = np.zeros(num_replicates * size, dtype=bool)
    ones = np.zeros(num_replicates * size, dtype=np.int8)
    rows, cols = np.nonzero(send_mask)
    if rows.size:
        draws = rng.integers(0, size - 1, size=rows.size)
        targets = draws + (draws >= cols)
        priorities = rng.random(rows.size)
        buckets = rows * size + targets
        order = np.argsort(buckets + priorities)
        sorted_buckets = buckets[order]
        is_first = np.ones(order.size, dtype=bool)
        is_first[1:] = sorted_buckets[1:] != sorted_buckets[:-1]
        winners = order[is_first]
        heard[buckets[winners]] = True
        ones[buckets[winners]] = channel.transmit(bits[rows[winners], cols[winners]], rng)
    shape = (num_replicates, size)
    return DeliveryReport(heard.reshape(shape), ones.reshape(shape), sent)


def build_workloads(toy: bool = False) -> Dict[str, Any]:
    """The one-round workload (``toy=True`` = smoke-gate scale)."""
    if toy:
        return {"n": 2000, "replicates": 8, "epsilon": 0.2, "rounds": 20, "repeats": 7, "seed": 7}
    return {"n": 2000, "replicates": 8, "epsilon": 0.2, "rounds": 200, "repeats": 11, "seed": 7}


def _measure_family(workload: Dict[str, Any], fraction: float, fresh: bool) -> Dict[str, Any]:
    """Time both paths on one family alternately, then check they agree in law."""
    n, replicates = workload["n"], workload["replicates"]
    rounds, seed = workload["rounds"], workload["seed"]
    network = PushGossipNetwork(size=n)
    channel = BinarySymmetricChannel(epsilon=workload["epsilon"])
    picker = np.random.default_rng(seed)
    send_mask = picker.random((replicates, n)) < fraction
    # One bit grid per round with fresh inputs (made before any timing),
    # otherwise one grid for the whole phase.
    grids = [
        picker.integers(0, 2, size=(replicates, n)).astype(np.int8)
        for _ in range(rounds if fresh else 1)
    ]
    inputs = [(send_mask, grids[index % len(grids)]) for index in range(rounds)]

    paths: Dict[str, Callable[..., DeliveryReport]] = {
        "deliver_batch": network.deliver_batch,
        "argsort_oracle": lambda m, b, c, r: argsort_deliver_batch(network, m, b, c, r),
    }
    reports: Dict[str, list] = {}

    def per_round_us(label: str) -> float:
        deliver = paths[label]
        rng = np.random.default_rng(seed)
        kept = reports[label] = []
        start = time.perf_counter()
        for mask, bits in inputs:
            kept.append(deliver(mask, bits, channel, rng))
        return 1e6 * (time.perf_counter() - start) / rounds

    for label in paths:  # warm-up: first-call allocation and import costs
        per_round_us(label)
    samples: Dict[str, list] = {label: [] for label in paths}
    for _ in range(workload["repeats"]):
        for label in paths:
            samples[label].append(per_round_us(label))
    ratios = [old / new for old, new in zip(samples["argsort_oracle"], samples["deliver_batch"])]
    statistics_gap = agreement(
        {
            label: [report.ones[report.heard] for report in kept]
            for label, kept in reports.items()
        }
    )
    for statistic, summary in statistics_gap.items():
        assert summary["gap_se"] <= TOLERANCE_SE, (statistic, summary)

    return {
        "description": (
            f"deliver_batch at {fraction:.0%} send, {'fresh' if fresh else 'phase'} inputs: "
            "count rule vs argsort collision rule"
        ),
        "workload": {
            "experiment": "one push-gossip round over an (R, n) grid",
            "send_fraction": fraction,
            "fresh_inputs_every_round": fresh,
            **workload,
        },
        "us_per_round": {
            label: round(statistics.median(times), 1) for label, times in samples.items()
        },
        "seconds": {
            label: round(sum(times) * rounds / 1e6, 3) for label, times in samples.items()
        },
        "speedup_vs_serial": {
            "deliver_batch_vs_argsort_oracle": round(statistics.median(ratios), 2)
        },
        "agreement": statistics_gap,
    }


def _phase_totals(network, send_mask, bits, channel, rng, fused: bool):
    """One phase's per-cell totals ``(heard, ones)`` and per-replicate
    ``(sent, delivered)``: one ``rounds=PHASE_ROUNDS`` call, or that many
    one-round calls added up as the stage kernels used to."""
    heard = np.zeros(send_mask.shape, dtype=np.int32)
    ones = np.zeros(send_mask.shape, dtype=np.int32)
    sent = np.zeros(send_mask.shape[0], dtype=np.int64)
    delivered = np.zeros(send_mask.shape[0], dtype=np.int64)
    for _ in range(1 if fused else PHASE_ROUNDS):
        report = network.deliver_batch(
            send_mask, bits, channel, rng, rounds=PHASE_ROUNDS if fused else 1
        )
        heard += report.heard
        ones += report.ones
        sent += report.messages_sent
        delivered += report.messages_delivered
    return heard, ones, sent, delivered


def _measure_phase(workload: Dict[str, Any]) -> Dict[str, Any]:
    """Time one multi-round call against one-round calls at each shape."""
    channel = BinarySymmetricChannel(epsilon=workload["epsilon"])
    seed = workload["seed"]
    shapes: Dict[str, Any] = {}
    for replicates, n in PHASE_SHAPES:
        network = PushGossipNetwork(size=n)
        send_mask = np.ones((replicates, n), dtype=bool)
        bits = np.random.default_rng(seed).integers(0, 2, size=(replicates, n)).astype(np.int8)
        outcomes = {}

        def per_round_us(label: str) -> float:
            rng = np.random.default_rng(seed)
            start = time.perf_counter()
            totals = _phase_totals(network, send_mask, bits, channel, rng, label == "rounds_call")
            elapsed = time.perf_counter() - start
            outcomes[label] = (totals, rng.random())
            return 1e6 * elapsed / PHASE_ROUNDS

        labels = ("rounds_call", "one_round_calls")
        for label in labels:  # warm-up
            per_round_us(label)
        samples: Dict[str, list] = {label: [] for label in labels}
        for _ in range(workload["repeats"]):
            for label in labels:
                samples[label].append(per_round_us(label))
        (fused, fused_next), (looped, looped_next) = (outcomes[label] for label in labels)
        assert all(np.array_equal(a, b) for a, b in zip(fused, looped)), "totals differ"
        assert fused_next == looped_next, "the generator ended in another state"

        medians = {label: statistics.median(times) for label, times in samples.items()}
        ratios = [old / new for old, new in zip(samples["one_round_calls"], samples["rounds_call"])]
        shapes[f"R{replicates}_n{n}"] = (medians, statistics.median(ratios))
    return {
        "description": (
            f"one deliver_batch(rounds={PHASE_ROUNDS}) call vs {PHASE_ROUNDS} one-round calls "
            "of the same full-send inputs, each added into per-cell totals"
        ),
        "workload": {
            "shapes": [list(shape) for shape in PHASE_SHAPES],
            "rounds": PHASE_ROUNDS,
            "send_fraction": 1.0,
            "epsilon": workload["epsilon"],
            "repeats": workload["repeats"],
            "seed": seed,
        },
        "us_per_round": {
            shape: {label: round(value, 1) for label, value in medians.items()}
            for shape, (medians, _) in shapes.items()
        },
        "saving_us_per_round": {
            shape: round(medians["one_round_calls"] - medians["rounds_call"], 1)
            for shape, (medians, _) in shapes.items()
        },
        "speedup_vs_serial": {shape: round(ratio, 2) for shape, (_, ratio) in shapes.items()},
        "agreement": "exact: equal totals and equal next generator draw",
    }


def measure(workload: Dict[str, Any]) -> Dict[str, Any]:
    """Every family of :data:`FAMILIES`, then the ``phase`` family."""
    families = {
        family: _measure_family(workload, fraction, fresh)
        for family, (fraction, fresh) in FAMILIES.items()
    }
    families["phase"] = _measure_phase(workload)
    return {"families": families}


def test_deliver_batch_speedup(machine_stamp):
    """Measure every family and record the JSON perf record; only the
    full-send ratio against the argsort rule is gated."""
    payload = {**measure(build_workloads()), "machine": machine_stamp}
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(json.dumps(payload, indent=2))

    full = payload["families"]["full_send"]["speedup_vs_serial"]
    speedup = full["deliver_batch_vs_argsort_oracle"]
    assert speedup >= MIN_SPEEDUP, (
        f"expected the count-rule deliver_batch to beat the argsort rule by {MIN_SPEEDUP}x "
        f"at full send, got {speedup}x (recorded in {RESULTS_PATH})"
    )
