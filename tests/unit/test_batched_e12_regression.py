"""Determinism regression: batched E12 reports are pinned across commits.

``E12_SERIAL_DIGESTS`` pins serial E12, and the fault-batching tests
compare batch rules within one commit at ``f = 0`` only, so nothing else
notices a change in what a batched fault cell draws or how its trials are
seeded and packaged.  On the serial pin's configuration the batched crash
report happens to equal the serial one, so it cannot see such a change; on
this configuration (``f = 0.3``, a crash probability of 0.1, three trials)
both fault kinds differ from serial.

The digests were captured at commit 38726fa and must not be edited to make
a change pass.
"""

from __future__ import annotations

import pytest

from _golden_grid import grid_digest
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


#: The ``KERNEL_EPOCH`` these pins were taken (or last re-verified) at.
PINNED_AT_EPOCH = 1


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


def test_batched_pin_differs_from_serial():
    """The pinned configuration is one where batch and serial reports differ,
    so the pin sees a changed batch draw."""
    for experiment_id, _, overrides in E12_BATCH_GRID:
        assert grid_digest(experiment_id, False, overrides) != E12_BATCH_DIGESTS[
            overrides["fault_kind"]
        ]


def test_pins_were_taken_at_the_current_kernel_epoch():
    assert PINNED_AT_EPOCH == KERNEL_EPOCH, "re-pin and bump KERNEL_EPOCH"
