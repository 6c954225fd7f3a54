#!/usr/bin/env python
"""Scenario: spreading a predator alarm through a flock (noisy broadcast).

The paper motivates the broadcast problem with vigilance in animal groups: a
single individual that has spotted a predator ("the source") must propagate
the escape direction to the whole group through short, unreliable signals
(Section 1.2 and footnote 2 — the two opinions are symmetric directions,
e.g. north/south).

This example compares three ways the flock could spread the alarm:

* the paper's "breathe before speaking" protocol;
* naive immediate forwarding (every bird repeats the first signal it hears);
* the adopt-the-last-signal (noisy voter) dynamic.

It prints the fraction of the flock that ends up fleeing in the *correct*
direction under each strategy, at two noise levels, reproducing the
Section 1.6 story: fast-but-unreliable relaying leaves the flock split, while
the paper's protocol aligns everyone.

Run with::

    python examples/predator_alarm.py
"""

from __future__ import annotations

from repro import solve_noisy_broadcast
from repro.analysis import render_table
from repro.exec.batching import run_baseline_batch

FLOCK_SIZE = 1500
TRIALS = 3


def run_strategy(name: str, epsilon: float, seed: int) -> dict:
    """Run one strategy once and report its outcome."""
    if name == "breathe-before-speaking":
        result = solve_noisy_broadcast(n=FLOCK_SIZE, epsilon=epsilon, seed=seed)
        return {"fraction": result.final_correct_fraction, "rounds": result.rounds}
    options = {"max_rounds": 500} if name == "noisy-voter" else {}
    outcome = run_baseline_batch(
        name, n=FLOCK_SIZE, epsilon=epsilon, num_replicates=1, base_seed=seed, **options
    ).measurements(0)
    return {"fraction": outcome["fraction"], "rounds": outcome["rounds"]}


def main() -> int:
    rows = []
    for epsilon in (0.1, 0.25):
        for strategy in ("breathe-before-speaking", "immediate-forwarding", "noisy-voter"):
            fractions = []
            rounds = []
            for trial in range(TRIALS):
                outcome = run_strategy(strategy, epsilon, seed=7000 + trial)
                fractions.append(outcome["fraction"])
                rounds.append(outcome["rounds"])
            rows.append(
                {
                    "signal noise (flip prob)": round(0.5 - epsilon, 2),
                    "strategy": strategy,
                    "mean fraction fleeing correctly": sum(fractions) / TRIALS,
                    "mean rounds used": sum(rounds) / TRIALS,
                }
            )

    print(f"Flock of {FLOCK_SIZE} birds; one bird has spotted the predator.\n")
    print(render_table(rows, title="Fraction of the flock escaping in the correct direction"))
    print()
    print(
        "Immediate forwarding and voter dynamics leave the flock close to a 50/50 split (the relayed "
        "signal decays like (2*eps)^hops); the paper's protocol aligns essentially the whole flock."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
