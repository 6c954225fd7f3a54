"""Batched ``(R, n)`` rule for E12's fault-tolerant comparator.

:func:`run_consensus_comparator_batch` is the ``AlgorithmTwo``-style phased
approximate-consensus comparator
(:class:`~repro.protocols.fault_tolerant.PhasedApproximateConsensus`),
vectorised over replicates; phase budgets match the serial port exactly,
outcomes statistically.  E12's other column, the paper's protocol under a
:data:`~repro.substrate.faults.FaultModel`, runs through
:func:`repro.exec.batching.run_broadcast_batch` with ``model=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..errors import ExperimentError
from ..protocols.fault_tolerant import (
    PhasedApproximateConsensus,
    declared_fault_tolerance,
)
from ..substrate.faults import FaultModel, build_injector
from ..substrate.rng import spawn_generator

__all__ = [
    "BatchConsensusResult",
    "run_consensus_comparator_batch",
]


@dataclass(frozen=True)
class BatchConsensusResult:
    """Per-replicate outcomes of the batched approximate-consensus comparator.

    Attributes
    ----------
    n:
        Number of servers.
    phases:
        Phase budget ``p_end`` (identical for every replicate: it depends
        only on ``(n, f, initial_range, agreement_eps)`` — the exact
        differential anchor against the serial port).
    num_faulty:
        The declared fault tolerance ``f``.
    success:
        ``(R,)`` boolean vector: spread of correct survivors at most
        ``agreement_eps``.
    spread:
        ``(R,)`` final spreads (``inf`` where no correct server survived).
    agreement_fraction:
        ``(R,)`` fraction of correct survivors within ``agreement_eps`` of
        their mean.
    """

    n: int
    phases: int
    num_faulty: int
    success: np.ndarray
    spread: np.ndarray
    agreement_fraction: np.ndarray

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R`` in the batch."""
        return int(self.success.size)

    def measurements(self, index: int) -> Dict[str, Any]:
        """Replicate ``index`` as a trial-measurement mapping (E12 comparator keys)."""
        spread = float(self.spread[index])
        return {
            "rounds": int(self.phases),
            "success": bool(self.success[index]),
            "fraction": float(self.agreement_fraction[index]),
            "spread": spread if np.isfinite(spread) else None,
            "num_faulty": int(self.num_faulty),
        }


def run_consensus_comparator_batch(
    n: int,
    num_replicates: int,
    model: Optional[FaultModel] = None,
    base_seed: int = 0,
    initial_range: float = 1.0,
    agreement_eps: float = 0.05,
    max_phases: int = 64,
) -> BatchConsensusResult:
    """Run ``R`` phased approximate-consensus instances at once.

    Vectorised transcription of
    :meth:`~repro.protocols.fault_tolerant.PhasedApproximateConsensus.run`:
    per phase every correct surviving server averages the honest values plus
    one per-receiver Byzantine fake sum, provided at least ``n - f`` servers
    were heard.  Honest randomness comes from the ``"batch-consensus"``
    stream, every fault decision and fake value from
    ``"batch-consensus-faults"``.
    """
    if num_replicates < 1:
        raise ExperimentError("num_replicates must be at least 1")
    algorithm = PhasedApproximateConsensus(
        initial_range=initial_range, agreement_eps=agreement_eps, max_phases=max_phases
    )
    num_faulty = declared_fault_tolerance(model, n)
    phases = algorithm.phase_budget(n, model)

    rng = spawn_generator(base_seed, "batch-consensus", n)
    fault_rng = spawn_generator(base_seed, "batch-consensus-faults", n)
    injector = build_injector(model, n, fault_rng, num_replicates=num_replicates)

    values = rng.random((num_replicates, n)) * initial_range
    if injector is not None:
        byzantine = injector.byzantine.copy()
    else:
        byzantine = np.zeros((num_replicates, n), dtype=bool)
    num_byzantine = byzantine.sum(axis=1)

    for _ in range(phases):
        if injector is not None:
            injector.begin_round()
        alive = injector.alive_mask() if injector is not None else np.ones_like(byzantine)
        correct_alive = alive & ~byzantine
        received = correct_alive.sum(axis=1) + num_byzantine
        proceed = (received >= n - num_faulty) & correct_alive.any(axis=1)
        honest_sums = (values * correct_alive).sum(axis=1)
        max_byz = int(num_byzantine.max()) if num_byzantine.size else 0
        if max_byz:
            # (R, f_max, n) fakes: one per (replicate, Byzantine slot,
            # receiver); replicates with fewer members use a prefix (the
            # member count is constant per model, so this is exact).
            fakes = fault_rng.random((num_replicates, max_byz, n)) * initial_range
            slot_active = np.arange(max_byz)[None, :] < num_byzantine[:, None]
            fake_sums = (fakes * slot_active[:, :, None]).sum(axis=1)
        else:
            fake_sums = np.zeros((num_replicates, n))
        averaged = (honest_sums[:, None] + fake_sums) / np.maximum(received, 1)[:, None]
        values = np.where(proceed[:, None] & correct_alive, averaged, values)

    final_alive = injector.alive_mask() if injector is not None else np.ones_like(byzantine)
    survivors = final_alive & ~byzantine
    survivor_counts = survivors.sum(axis=1)
    masked = np.where(survivors, values, np.nan)
    with np.errstate(invalid="ignore"):
        spread = np.nanmax(masked, axis=1) - np.nanmin(masked, axis=1)
        means = np.nanmean(masked, axis=1)
        near = np.abs(masked - means[:, None]) <= agreement_eps
        agreement = near.sum(axis=1) / np.maximum(survivor_counts, 1)
    spread = np.where(survivor_counts > 0, spread, np.inf)
    agreement = np.where(survivor_counts > 0, agreement, 0.0)
    return BatchConsensusResult(
        n=n,
        phases=phases,
        num_faulty=num_faulty,
        success=(spread <= agreement_eps) & (survivor_counts > 0),
        spread=spread,
        agreement_fraction=agreement,
    )
