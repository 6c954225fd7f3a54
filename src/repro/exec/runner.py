"""Per-trial seed derivation, shared by every execution path.

Every experiment in this reproduction is a set of independent trials, each
fully determined by ``(seed, trial_index)``.  :func:`trial_seed` is the one
function that maps ``(base_seed, experiment name, trial index)`` to a
trial's seed; the serial trial dispatch
(:func:`repro.analysis.experiments.run_trials`,
:func:`repro.analysis.sweeps.run_sweep`) and the batched path in
:mod:`repro.exec.batching` both derive through it, before any task is
dispatched, so *where* a trial runs can never change which seed it gets.
It derives through :func:`repro.substrate.rng.derive_seed` (a
:class:`numpy.random.SeedSequence` keyed on the tokens), so per-trial
streams are statistically independent and stable across processes and
platforms.
"""

from __future__ import annotations

from typing import List

from ..substrate.rng import derive_seed, derive_seeds

__all__ = ["trial_seed", "trial_seeds"]


def trial_seed(base_seed: int, name: str, trial_index: int) -> int:
    """Seed of trial ``trial_index`` of experiment ``name``."""
    return derive_seed(base_seed, name, trial_index)


def trial_seeds(base_seed: int, name: str, num_trials: int) -> List[int]:
    """All per-trial seeds of an experiment, in trial order."""
    return [int(seed) for seed in derive_seeds(base_seed, num_trials, name)]
