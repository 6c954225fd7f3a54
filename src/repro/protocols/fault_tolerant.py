"""A fault-tolerant approximate-consensus comparator (``AlgorithmTwo``-style).

The paper's protocol tolerates *channel noise* but has no notion of faulty
*agents*.  To give experiment E12 a meaningful yardstick, this module ports
the classic phased approximate-consensus algorithm for ``f`` faulty servers
(the ``AlgorithmTwo`` family referenced in SNIPPETS.md) to the repository's
synchronous simulation conventions:

* every server starts with a value drawn uniformly from ``[0, K]``
  (``K = initial_range``);
* the algorithm runs a fixed budget of ``p_end`` phases with
  ``K * (f / (n - f))^{p_end} <= eps``, i.e.
  ``p_end = ceil(log(eps / K) / log(f / (n - f)))`` — exactly the snippet's
  termination bound;
* in each phase every correct, non-crashed server broadcasts its value and,
  if it received values from at least ``n - f`` servers, replaces its value
  by the average of what it received; otherwise it stalls for the phase;
* Byzantine servers send an independent uniform fake value from the fault
  stream to *every* receiver (the classic equivocation adversary); crashed
  servers send nothing;
* success means the spread (max - min) of the correct, surviving servers'
  values is at most ``eps`` after the phase budget.

The rule, :func:`run_consensus_comparator_batch`, runs ``R`` instances at
once on ``(R, n)`` grids; a serial E12 trial is the same rule at ``R = 1``
under the trial's own seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..errors import ExperimentError, ParameterError
from ..substrate.faults import ByzantineSenders, CrashStop, FaultModel, build_injector
from ..substrate.rng import spawn_generator

__all__ = [
    "declared_fault_tolerance",
    "consensus_phase_budget",
    "PhasedApproximateConsensus",
    "BatchConsensusResult",
    "run_consensus_comparator_batch",
]


def declared_fault_tolerance(model: Optional[FaultModel], n: int) -> int:
    """The ``f`` the algorithm is configured to tolerate under ``model``.

    For crash-stop and Byzantine models this is the size of the fault-prone
    set (``floor(fraction * eligible)``); for :class:`NoFaults` it is zero.
    """
    if isinstance(model, (CrashStop, ByzantineSenders)):
        eligible = n - len(set(int(i) for i in model.immune))
        return int(math.floor(model.fraction * eligible))
    return 0


def consensus_phase_budget(
    n: int,
    num_faulty: int,
    initial_range: float = 1.0,
    agreement_eps: float = 0.05,
    max_phases: int = 64,
) -> int:
    """The snippet's ``p_end``: phases needed to contract ``K`` down to ``eps``.

    ``ceil(log(eps / K) / log(f / (n - f)))``, clamped to ``[1, max_phases]``;
    ``f = 0`` needs a single averaging phase and ``2 f >= n`` (no correct
    majority) gets the cap, since the bound is vacuous there.
    """
    if n < 2:
        raise ParameterError(f"consensus needs n >= 2, got {n}")
    if not 0.0 < agreement_eps < initial_range:
        raise ParameterError(
            f"agreement_eps must be in (0, initial_range), got {agreement_eps}"
        )
    if num_faulty <= 0:
        return 1
    if 2 * num_faulty >= n:
        return max_phases
    ratio = num_faulty / (n - num_faulty)
    phases = math.ceil(math.log(agreement_eps / initial_range) / math.log(ratio))
    return max(1, min(max_phases, phases))


@dataclass(frozen=True)
class PhasedApproximateConsensus:
    """Configuration of the ``AlgorithmTwo`` comparator.

    Validated on construction; :meth:`phase_budget` is the phase count the
    rule (:func:`run_consensus_comparator_batch`) runs for.
    """

    initial_range: float = 1.0
    agreement_eps: float = 0.05
    max_phases: int = 64

    def __post_init__(self) -> None:
        if self.initial_range <= 0:
            raise ParameterError(f"initial_range must be positive, got {self.initial_range}")
        # Validate eagerly so a bad configuration fails at construction.
        consensus_phase_budget(2, 0, self.initial_range, self.agreement_eps, self.max_phases)

    def phase_budget(self, n: int, model: Optional[FaultModel]) -> int:
        """Phases the algorithm will run for ``n`` servers under ``model``."""
        return consensus_phase_budget(
            n,
            declared_fault_tolerance(model, n),
            self.initial_range,
            self.agreement_eps,
            self.max_phases,
        )


@dataclass(frozen=True)
class BatchConsensusResult:
    """Per-replicate outcomes of the batched approximate-consensus comparator.

    Attributes
    ----------
    n:
        Number of servers.
    phases:
        Phase budget ``p_end`` (identical for every replicate: it depends
        only on ``(n, f, initial_range, agreement_eps)``).
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

    Per phase every correct surviving server averages the honest values plus
    one per-receiver Byzantine fake sum, provided at least ``n - f`` servers
    were heard; otherwise it stalls for the phase.  Honest randomness (the
    initial values) comes from the ``"batch-consensus"`` stream, every fault
    decision and fake value from ``"batch-consensus-faults"`` — the same
    dedicated-stream discipline as the gossip substrate.
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
