"""Determinism regression: batched E12 reports are pinned across commits.

``E12_SERIAL_DIGESTS`` pins serial E12, and the fault-batching tests
compare batch rules within one commit at ``f = 0`` only, so nothing else
notices a change in what a batched fault cell draws or how its trials are
seeded and packaged.  On the serial pin's configuration the batched crash
report happens to equal the serial one, so it cannot see such a change; on
this configuration (``f = 0.3``, a crash probability of 0.1, three trials)
both fault kinds' reports move with the batch draws.

The crash report still sees a changed batch draw only when some trial
fails: every trial succeeds and every prone agent crashes at most seeds.
``E12_BATCH_TRIAL_DIGESTS["crash"]`` therefore also pins every trial's
measurements, ``messages`` included (``_golden_grid.trial_digest``).  The
Byzantine report held through kernel epoch 3's redraw of every batched
delivery as well, so its trial records are pinned beside it.

The report digests were captured at commit 38726fa and held at kernel
epoch 3, when delivery became the count rule; the trial pins were taken
at that epoch.  None must be edited to make a change pass.
"""

from __future__ import annotations

import pytest

from _golden_grid import grid_digest, trial_digest
from repro.api import ExecutionConfig
from repro.store.fingerprint import KERNEL_EPOCH

#: Batched E12, one per fault kind.
E12_BATCH_GRID = [
    ("E12", True, dict(n=150, epsilon=0.3, fault_fractions=(0.0, 0.3), trials=3,
                       crash_probability=0.1, fault_kind=kind))
    for kind in ("crash", "byzantine")
]

E12_BATCH_DIGESTS = {
    "crash": "6a293577bbf48fddbeeeb1fd530e25f5f9f4e30ffa9154c40607b77aea113e2e",
    "byzantine": "691910ecb36c2f5bc4bace173876ca914d39a3ebd4da3c1b846cf255e9ba0eaf",
}

#: Every trial's records of each configuration, taken at kernel epoch 3.
E12_BATCH_TRIAL_DIGESTS = {
    "crash": "702ea5c67283590adab864eb3f417b20046260e24a96fcb426d2d83eb2ee44dd",
    "byzantine": "4a2b2827cea627325ee5d00cd928047cb224213ad99e0afbd77de889d69807c7",
}


#: The ``KERNEL_EPOCH`` these pins were taken (or last re-verified) at.
PINNED_AT_EPOCH = 3


@pytest.mark.parametrize(
    "experiment_id, batch, overrides",
    E12_BATCH_GRID,
    ids=[f"E12-batch-{o['fault_kind']}" for _, _, o in E12_BATCH_GRID],
)
def test_batched_e12_matches_pinned_digest(experiment_id, batch, overrides):
    """Batched E12 reports (crash and Byzantine) are bit-identical to the pin."""
    assert grid_digest(experiment_id, batch, overrides) == E12_BATCH_DIGESTS[
        overrides["fault_kind"]
    ]


def test_batched_crash_trials_match_pinned_digest():
    """Batched E12 crash trial records, messages included, match the pin."""
    experiment_id, batch, overrides = E12_BATCH_GRID[0]
    assert overrides["fault_kind"] == "crash"
    assert trial_digest(experiment_id, batch, overrides) == E12_BATCH_TRIAL_DIGESTS["crash"]


def test_batched_byzantine_trials_match_pinned_digest():
    """Batched E12 Byzantine trial records, messages included, match the pin."""
    experiment_id, batch, overrides = E12_BATCH_GRID[1]
    assert overrides["fault_kind"] == "byzantine"
    assert trial_digest(experiment_id, batch, overrides) == E12_BATCH_TRIAL_DIGESTS["byzantine"]


def test_batched_pin_moves_with_the_batch_draws():
    """The pinned configuration is one where the report depends on the batch
    draws: another base seed gives another report, so the pin sees a
    changed batch draw."""
    for experiment_id, _, overrides in E12_BATCH_GRID:
        digests = {
            grid_digest(experiment_id, True, overrides, ExecutionConfig(batch=True, base_seed=seed))
            for seed in (1, 2, 3)
        }
        assert digests - {E12_BATCH_DIGESTS[overrides["fault_kind"]]}


def test_pins_were_taken_at_the_current_kernel_epoch():
    assert PINNED_AT_EPOCH == KERNEL_EPOCH, "re-pin and bump KERNEL_EPOCH"
