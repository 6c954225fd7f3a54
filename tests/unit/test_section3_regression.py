"""Determinism regression: the Section-3 executors on skewed clocks are pinned.

E9's golden digests cover one skew, two trials and aggregate rows only, so
a change in which agents speak in the rounds where clocks disagree, in the
per-phase summaries, or in the per-replicate guard and skew bookkeeping
could pass them.  These pins digest the full results:

* serial :func:`~repro.core.synchronizer.run_with_bounded_skew` at three
  skews and :func:`~repro.core.synchronizer.run_clock_free_broadcast` with
  the default guard and with an explicit one: one batch run at ``R = 1``
  each, with its rounds, overhead, messages, guard and skew;
* batched :func:`~repro.exec.stage_batching.run_bounded_skew_batch` and
  :func:`~repro.exec.stage_batching.run_clock_free_batch` at one and three
  replicates, every per-replicate array included.  The clock-free batch
  picks a guard per replicate; at ``n = 60`` with seed 5 those guards
  differ between replicates.

The digests were captured at commit f8df969 and must not be edited to make
a change pass.  The serial ones were re-taken at kernel epoch 2, when the
two entry points became one-replicate runs of the batch kernels (the
engine executors they ran before are gone).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.synchronizer import run_clock_free_broadcast, run_with_bounded_skew
from repro.exec.stage_batching import run_bounded_skew_batch, run_clock_free_batch
from repro.store.fingerprint import KERNEL_EPOCH

EPSILON = 0.3


def result_digest(result) -> str:
    """sha256 of a (nested) result dataclass, arrays written out in full."""
    canonical = json.dumps(
        dataclasses.asdict(result), sort_keys=True, default=lambda value: value.tolist()
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


SERIAL_CASES = {
    "bounded-skew-1": (run_with_bounded_skew, dict(n=150, max_skew=1, seed=3)),
    "bounded-skew-4": (run_with_bounded_skew, dict(n=150, max_skew=4, seed=3)),
    "bounded-skew-17": (run_with_bounded_skew, dict(n=150, max_skew=17, seed=3)),
    "clock-free-default-guard": (run_clock_free_broadcast, dict(n=150, seed=3)),
    "clock-free-guard-40": (run_clock_free_broadcast, dict(n=150, seed=3, guard=40)),
}

BATCH_CASES = {
    "bounded-skew-4-R1": (run_bounded_skew_batch, dict(n=150, max_skew=4, num_replicates=1)),
    "bounded-skew-4-R3": (run_bounded_skew_batch, dict(n=150, max_skew=4, num_replicates=3)),
    "bounded-skew-17-R1": (run_bounded_skew_batch, dict(n=150, max_skew=17, num_replicates=1)),
    "bounded-skew-17-R3": (run_bounded_skew_batch, dict(n=150, max_skew=17, num_replicates=3)),
    "clock-free-R1": (run_clock_free_batch, dict(n=150, num_replicates=1)),
    "clock-free-R3": (run_clock_free_batch, dict(n=150, num_replicates=3)),
    "clock-free-guard-40-R3": (run_clock_free_batch, dict(n=150, num_replicates=3, guard=40)),
    "clock-free-n60-R3": (run_clock_free_batch, dict(n=60, num_replicates=3, base_seed=5)),
}

SECTION3_DIGESTS = {
    "bounded-skew-1": "95fb45a572e19da281208bfb34b65c0679857fe3b72de5c9d3ab41d2a9de6f34",
    "bounded-skew-4": "178447e14bf6ca15e275980194819e88c31aee3e7731e636807c4cf14aecc481",
    "bounded-skew-17": "1fa55f1631539118a998977e9da544c3f3c102bbb432af6609656a726cd61883",
    "clock-free-default-guard": "44b3664932037d30adddda67b0c086071f5b7296a16ba86e6e42a23fdf0370de",
    "clock-free-guard-40": "c893680715251b2951de0f79fe6327af466f9549ae934ec7f31fa7d8e0ec6de0",
    "bounded-skew-4-R1": "7140d8138c22d034ea2192647bb1b0253ef2940d7e5a9304472ef9b25c69db2a",
    "bounded-skew-4-R3": "e843a31311c8512c8c80f555650a7176f8c43f3f1a6a02f55130f1e0f579fd81",
    "bounded-skew-17-R1": "f3a860ba5a8ffdc66b2bac3824542c468b3b161dbf7c5e104ded34b659968a69",
    "bounded-skew-17-R3": "d0d6cf8d22d266e07f1fe0f374cd77b3bfe7c827fd69df3da822a960e493fa3b",
    "clock-free-R1": "d1f2f8fa9d0aad12af94b52a0816e8a7fe5c823275d83c346f656cc8447b8bee",
    "clock-free-R3": "41754c7e0557d8006b7114fe531359b4a92f6839033abe7d254f2f43d45ee307",
    "clock-free-guard-40-R3": "4c13e28a016417afcc30b569fe8d420600712d122f4cd223383d6db2eb3ea299",
    "clock-free-n60-R3": "c6d90f39aacd18585b1d341e2843658a90664154c2100efce5a592357b916e55",
}


#: The ``KERNEL_EPOCH`` these pins were taken (or last re-verified) at.
PINNED_AT_EPOCH = 2


def test_every_case_is_pinned():
    assert set(SERIAL_CASES) | set(BATCH_CASES) == set(SECTION3_DIGESTS)


@pytest.mark.parametrize("case", sorted(SERIAL_CASES))
def test_serial_section3_run_matches_pinned_digest(case):
    """Serial skewed-clock runs match the pin."""
    entry_point, settings = SERIAL_CASES[case]
    assert result_digest(entry_point(epsilon=EPSILON, **settings)) == SECTION3_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_section3_run_matches_pinned_digest(case):
    """Batched skewed-clock runs, every per-replicate array included, match the pin."""
    entry_point, settings = BATCH_CASES[case]
    result = entry_point(epsilon=EPSILON, **{"base_seed": 3, **settings})
    assert result_digest(result) == SECTION3_DIGESTS[case]


def test_clock_free_batch_pin_has_distinct_per_replicate_guards():
    """One clock-free pin has replicates whose skew exceeds ``2 log2 n``,
    so their guards differ from each other and from the default."""
    _, settings = BATCH_CASES["clock-free-n60-R3"]
    result = run_clock_free_batch(epsilon=EPSILON, **settings)
    assert len(set(result.guard.tolist())) > 1
    assert (result.guard >= result.skew).all()


def test_pins_were_taken_at_the_current_kernel_epoch():
    assert PINNED_AT_EPOCH == KERNEL_EPOCH, "re-pin and bump KERNEL_EPOCH"
