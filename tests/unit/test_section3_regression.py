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
  picks a guard per replicate; at ``n = 60`` with seed 10 those guards
  differ between replicates.

The digests were captured at commit f8df969 and must not be edited to make
a change pass.  The serial ones were re-taken at kernel epoch 2, when the
two entry points became one-replicate runs of the batch kernels (the
engine executors they ran before are gone).  Every digest that moved was
re-taken at kernel epoch 3, when delivery became the count rule; the
``n = 60`` clock-free case moved from seed 5 to seed 10 then, since its
replicates' guards came out equal on the new draws at seed 5 (the guards
differ only when an activation-phase skew exceeds ``2 log2 n``, which
happened at seed 10 alone among seeds 3–11).
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
    "clock-free-n60-R3": (run_clock_free_batch, dict(n=60, num_replicates=3, base_seed=10)),
}

SECTION3_DIGESTS = {
    "bounded-skew-1": "78bcd97e4b2f77de09ca7689f7c4d40e3f936b028b270e3c21e38352bddf2d54",
    "bounded-skew-4": "178447e14bf6ca15e275980194819e88c31aee3e7731e636807c4cf14aecc481",
    "bounded-skew-17": "1fa55f1631539118a998977e9da544c3f3c102bbb432af6609656a726cd61883",
    "clock-free-default-guard": "3134b2218d3a6309be1ac2963e76c304e10bdb6b601e656f7cb9ca90ba5b12d3",
    "clock-free-guard-40": "4fa94d8ade91633261bb96ea02b4a96c1c50003f60b4a9133f10d96b91f92917",
    "bounded-skew-4-R1": "7140d8138c22d034ea2192647bb1b0253ef2940d7e5a9304472ef9b25c69db2a",
    "bounded-skew-4-R3": "3bd68c01444cbd9e2f7c24c9181cbac9b8df126ac6b306261171a869d286a98b",
    "bounded-skew-17-R1": "f3a860ba5a8ffdc66b2bac3824542c468b3b161dbf7c5e104ded34b659968a69",
    "bounded-skew-17-R3": "adaaad32cbc6c61d730f21fc03eca92e10f887197dc1d711323418ee914e2cae",
    "clock-free-R1": "5f78487cdf9b3b678061e8e0cabcb216d792c1eb7be2c3c74cb427c430b2b473",
    "clock-free-R3": "2c4e50dca7e618c9a4064bc0e5f8c9be63173b0d923ea787f467161c9eb583d7",
    "clock-free-guard-40-R3": "16a18002ed61d2f26dc99b4301a38178f57b9352199292dab89ae71ec15d07a1",
    "clock-free-n60-R3": "bb8df8e9742ac654f64076764d13244e3cf1e3a9ffaecf480a59ede426cd74cf",
}


#: The ``KERNEL_EPOCH`` these pins were taken (or last re-verified) at.
PINNED_AT_EPOCH = 3


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
