"""Determinism regression: the serial broadcast engine path is pinned in full.

:func:`~repro.core.broadcast.solve_noisy_broadcast` runs
:func:`~repro.core.stage1.execute_stage_one` and
:func:`~repro.core.stage2.execute_stage_two` on one engine, one
:meth:`~repro.substrate.network.PushGossipNetwork.deliver` call per round.
E1's serial golden digest holds only mean rounds and success rates, which
no changed draw moves.  These pins digest the whole result, every Stage-I
and Stage-II phase summary included, so a change in what a serial round
draws, in who speaks, or in any phase-end rule shows up here.

The digests were captured at commit f96d91a and must not be edited to make
a change pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.broadcast import solve_noisy_broadcast
from repro.store.fingerprint import KERNEL_EPOCH

CASES = {
    "n200-eps0.3-seed7": dict(n=200, epsilon=0.3, seed=7),
    "n120-eps0.4-seed3-opinion0": dict(n=120, epsilon=0.4, seed=3, correct_opinion=0),
}

DIGESTS = {
    "n200-eps0.3-seed7": "ac19d0710b1f288343af0fa42f3872ec931b3e62ccc7b2534892040eed1a4cf5",
    "n120-eps0.4-seed3-opinion0": "584669ad408b7f1a50fcbb186df7d0251c809ae04e01199dc7df9baf411989ac",
}


#: The ``KERNEL_EPOCH`` these pins were taken (or last re-verified) at.
PINNED_AT_EPOCH = 2


def result_digest(result) -> str:
    """sha256 of a (nested) result dataclass."""
    canonical = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_every_case_is_pinned():
    assert set(CASES) == set(DIGESTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_serial_broadcast_matches_pinned_digest(case):
    """The full serial result, per-phase summaries included, matches the pin."""
    assert result_digest(solve_noisy_broadcast(**CASES[case])) == DIGESTS[case]


def test_pins_were_taken_at_the_current_kernel_epoch():
    assert PINNED_AT_EPOCH == KERNEL_EPOCH, "re-pin and bump KERNEL_EPOCH"
