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

At kernel epoch 3 single-accept delivery became the count rule (a
recipient's noisy bit drawn from its message and 1-message counts) and
Stage I's reservoir became one phase-end draw; every entry whose report
moved was re-taken then (CHANGES.md lists old and new values).  E7's
report had not seen its paper rows' draws, so ``TRIAL_DIGESTS`` pins its
per-trial records too.  Batched E2 and E8 held their report pins through
that redraw (every trial at their size succeeds on the schedule-fixed
round count), so their per-trial records were pinned at epoch 3 as well.

E12 is deliberately absent: it did not exist at the seed revision.  Its
f=0 column is covered by the exec-level bit-identity pin in
``tests/unit/exec/test_fault_batching.py`` instead.
"""

from __future__ import annotations

import pytest

from _golden_grid import GRID, SERIAL_DRAW_GRID, grid_digest, trial_digest
from repro.store.fingerprint import KERNEL_EPOCH

#: sha256 digests of the full rendered reports, captured pre-fault-layer.
GOLDEN_DIGESTS = {
    ("E1", True): "7277c4516bb021408d823754caba3f00600991cebe0395733b7302b558ea8083",
    ("E2", True): "fb9331478ed10ecf7f15a8da95ebd8d28b8cd6d2f3e4604f9bc913ed7cabe2b5",
    ("E3", True): "5eef0ddc1e2dee1452589e9979e655aea83799ee5169a54a8b68a76c12767a15",
    ("E4", True): "97aad99af3421677ddc00f3a19a18cacd8e390005456bca530afdcf52e7ee568",
    ("E5", True): "392ffd8d26e900331e720ae3bbe26fecd71d10e92e92e14c1e0234675810e248",
    ("E6", True): "3785fd9c3046444d8e817feaccfeec1add8d493d058ee7725ddaa355c03aeafc",
    ("E7", True): "6d40cc20b1952416433f24816c372bf9326f587f7ee5a8b515a6220d926cdcbe",
    ("E8", True): "a0ced1302356d6fe6d2aae3ef5204d34271d6f09163ec60ad419f36fa68ad973",
    ("E9", True): "c37c8c5fa6a37a8d82c4751961b893573f15144b65dd67ee86f9422fc398c1bc",
    ("E10", True): "a8404987d8eddf1df071e1968fd876669c58afc2b34b4042dfd71b08661443e6",
    ("E11", True): "759b20f21afb0039a497d33b9021f4f768a3c972ed37b315359c809e4bbef205",
    ("E1", False): "7277c4516bb021408d823754caba3f00600991cebe0395733b7302b558ea8083",
    ("E7", False): "d7516c024bda37446c01c44c259394bf3d2e8e3b4ff17d62e263ba0dcaeb410f",
    ("E9", False): "7f855681dea170a390d48057a7643b559da861dda4733fa431b72ecf67cf192e",
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
    ("E4", False): "3b4f44701cf05a7e459e7b28dbc048a38b62593e4f56c0dacff8627b05fa0a59",
    ("E5", False): "70e31d30c7a9f71ca82623ce28168f1ae9f741ef4f2073618708b96adb4900d5",
}


#: Per-trial records (every cell's seeds and measurements,
#: ``_golden_grid.trial_digest``) of grid entries whose report does not move
#: when the paper protocol's draws do; taken at kernel epoch 3.
TRIAL_DIGESTS = {
    ("E2", True): "352b496c927b2926e8e0d64ffca4d00fb45bb73b1e840b2e7067acfbe98f740c",
    ("E7", False): "493c787e12d3d69f863713c584efacce844691d5a4fa0d3526a1b64b697441cc",
    ("E8", True): "d96ca9524802c7aa4b73307ca35aa3a2b4c0c809ae8d5d7a7764d4dc161585b8",
}


#: The ``KERNEL_EPOCH`` these pins were taken (or last re-verified) at.
PINNED_AT_EPOCH = 3


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


@pytest.mark.parametrize("experiment_id, batch", sorted(TRIAL_DIGESTS))
def test_trial_records_match_pinned_digest(experiment_id, batch):
    """Every trial's measurements, draw-dependent ones included, match the pin."""
    overrides = next(o for e, b, o in GRID if (e, b) == (experiment_id, batch))
    assert trial_digest(experiment_id, batch, overrides) == TRIAL_DIGESTS[(experiment_id, batch)]


def test_pins_were_taken_at_the_current_kernel_epoch():
    assert PINNED_AT_EPOCH == KERNEL_EPOCH, "re-pin and bump KERNEL_EPOCH"
