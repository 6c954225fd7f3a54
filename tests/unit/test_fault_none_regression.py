"""Determinism regression: no-fault runs are bit-identical to the seed revision.

The fault-injection layer threads a ``faults=`` keyword through the
network, engine, stage kernels and batch rules.  The contract
(``repro.substrate.faults`` module docstring) is that with no fault model —
``FaultModel.NONE`` / ``None`` — every one of those code paths is
byte-for-byte the pre-fault code.  This test pins that claim: the digests
below were captured from the E1–E11 drivers (batch and serial) *before* the
fault layer landed, on the tiny configurations of
``tests/unit/_golden_grid.py``; any RNG-consumption change in a default path
shifts a digest and fails the pin.

Two entries are younger, both taken at kernel epoch 1, when serial
comparator trials became the batched rule at ``R = 1`` under each trial's
seed: ``("E7", False)`` was re-pinned (its comparator rows draw from the
rule's stream now; the pre-fault pin was ``af9b9526...``), and
``("E11", False)`` was added, since no pin saw serial E11 before.

``("E9", False)`` was re-pinned at kernel epoch 2, when every serial E9
variant became its batch rule at ``R = 1`` under each trial's seed (it was
``0d15a43f...``); serial E7's paper-protocol rows moved to that rule too,
but its report at this size did not change.

E12 is deliberately absent: it did not exist at the seed revision.  Its
f=0 column is covered by the exec-level bit-identity pin in
``tests/unit/exec/test_fault_batching.py`` instead.
"""

from __future__ import annotations

import pytest

from _golden_grid import GRID, SERIAL_DRAW_GRID, grid_digest
from repro.store.fingerprint import KERNEL_EPOCH

#: sha256 digests of the full rendered reports, captured pre-fault-layer.
GOLDEN_DIGESTS = {
    ("E1", True): "7277c4516bb021408d823754caba3f00600991cebe0395733b7302b558ea8083",
    ("E2", True): "fb9331478ed10ecf7f15a8da95ebd8d28b8cd6d2f3e4604f9bc913ed7cabe2b5",
    ("E3", True): "d6fc0f7c64bc0351960a805ac68087efec0123e146492fc96eb209f77ec2c3c9",
    ("E4", True): "19ce8bfb3dc6a9b1a478ebe989f63730a7c51410e1e3292c2c12745db97044cd",
    ("E5", True): "6a4fb9681522c94f4da3c4c924bc35adb8f4a6c727c39cb31eb950ecb29a14f2",
    ("E6", True): "f401f1ee2b8a04f459f2dbb0eb2030ec61a1368d153c4ee3df05719dbfbb8400",
    ("E7", True): "7a2feaade512eaf9bad9e6f670e1f95eba4aa3cdc841c919163c081a1b588378",
    ("E8", True): "a0ced1302356d6fe6d2aae3ef5204d34271d6f09163ec60ad419f36fa68ad973",
    ("E9", True): "4457a4937aa6910dec3cae0ba8af4f99ad10e74b77b16e7b97605803134e26fb",
    ("E10", True): "a8404987d8eddf1df071e1968fd876669c58afc2b34b4042dfd71b08661443e6",
    ("E11", True): "759b20f21afb0039a497d33b9021f4f768a3c972ed37b315359c809e4bbef205",
    ("E1", False): "7277c4516bb021408d823754caba3f00600991cebe0395733b7302b558ea8083",
    ("E7", False): "7da8f4ace3e60f25ea35539d999950070dcc0c9582958272aece34115734414a",
    ("E9", False): "3f0cc1e8e90250d4e071048e0fd93769beb4eed3dc7175c57b2db7ee0bbfc06c",
    ("E11", False): "84592b6bddba3dc38c1dbdd824ab35db138a47aa676173f560dc9f77ede6bacb",
}

#: Draw-sensitive serial pins, captured at commit b09a3f0 (the parent of the
#: O(n) collision-rule change to ``PushGossipNetwork.deliver``).  They move
#: with ``base_seed``, so a changed draw of the Stage-I kernel at ``R = 1``,
#: or a different choice of which colliding message a recipient keeps, shows
#: up here.  Re-taken at kernel epoch 2, when serial E4/E5 trials became the
#: instrumented Stage-I kernel at ``R = 1`` (they were ``466d16e7...`` and
#: ``1af43b10...``); the serial ``deliver`` path is pinned by
#: ``test_serial_broadcast_regression.py`` instead.
SERIAL_DRAW_DIGESTS = {
    ("E4", False): "63bf48aa5f6fa56aebb4839f3a4869c61a0ca1152a002add2fbcdcc7a51c060d",
    ("E5", False): "c5307da4de0e811b152280bbf96066ac478a727bbd402bd703be98729b353d3f",
}


#: The ``KERNEL_EPOCH`` these pins were taken (or last re-verified) at.
PINNED_AT_EPOCH = 2


def test_grid_covers_every_pre_fault_driver():
    """All eleven pre-fault drivers are pinned, plus serial spot checks."""
    batched = {experiment_id for experiment_id, batch, _ in GRID if batch}
    assert batched == {f"E{i}" for i in range(1, 12)}
    assert {(e, b) for e, b, _ in GRID} == set(GOLDEN_DIGESTS)


@pytest.mark.parametrize(
    "experiment_id, batch, overrides",
    GRID,
    ids=[f"{e}-{'batch' if b else 'serial'}" for e, b, _ in GRID],
)
def test_no_fault_path_matches_pre_fault_golden(experiment_id, batch, overrides):
    """Each driver's no-fault output is bit-identical to the seed revision."""
    assert grid_digest(experiment_id, batch, overrides) == GOLDEN_DIGESTS[(experiment_id, batch)]


@pytest.mark.parametrize(
    "experiment_id, batch, overrides",
    SERIAL_DRAW_GRID,
    ids=[f"{e}-serial" for e, _, _ in SERIAL_DRAW_GRID],
)
def test_serial_delivery_draws_match_pinned_digest(experiment_id, batch, overrides):
    """Serial E4/E5 reports are bit-identical to their pins."""
    assert {(e, b) for e, b, _ in SERIAL_DRAW_GRID} == set(SERIAL_DRAW_DIGESTS)
    digest = grid_digest(experiment_id, batch, overrides)
    assert digest == SERIAL_DRAW_DIGESTS[(experiment_id, batch)]


def test_pins_were_taken_at_the_current_kernel_epoch():
    assert PINNED_AT_EPOCH == KERNEL_EPOCH, "re-pin and bump KERNEL_EPOCH"
