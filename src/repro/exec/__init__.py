"""Trial-execution subsystem: dispatch, backends and batched kernels.

The analysis layer (:mod:`repro.analysis`) defines *what* a Monte-Carlo
experiment is — trial functions, seed bookkeeping, result containers.  This
package defines *how* the trials execute:

* :mod:`repro.exec.runner` — :func:`trial_seed`, the one per-trial seed
  derivation every path shares;
* :mod:`repro.exec.backends` — "who runs a task list": the in-process
  reference (the default) and a persistent local process pool, behind one
  ordered-results contract, so both are bit-identical;
* :mod:`repro.exec.pool` — the dispatch plumbing between the trials/sweeps
  and the active backend (task construction, picklability probing);
* :mod:`repro.exec.batching` — a vectorised path that simulates ``R``
  independent replicates of the noisy push-gossip protocols (broadcast,
  majority consensus *and* the Section 1.6 / Section 1.4 baseline family,
  whose rules live in :mod:`repro.protocols`) as ``(R, n)`` NumPy grids
  instead of one engine per trial, plus
  :func:`~repro.exec.batching.run_batch_cell` (all trials of one named cell
  as one batch, the batched counterpart of ``run_trials``),
  :func:`~repro.exec.batching.cell_task` (a cell of a comparator rule,
  batched or as one ``R = 1`` call per trial) and the batched sweep
  dispatcher (one task per grid point);
* :mod:`repro.exec.stage_batching` — the instrumented ``(R, n)`` stage
  kernels underneath the batched protocols: Stage I / Stage II round loops
  with per-phase replicate-vector measurements (``X_i`` / ``Y_i`` /
  ``eps_i`` / ``delta_i``) for the stage-level experiments E4–E6, and the
  batched Section-3 executors (bounded skew, clock-free) for E9.

Execution is chosen per run by :class:`repro.api.ExecutionConfig`: ``batch``
(surfaced as ``--batch``) picks the vectorised path, and ``backend``
(``--jobs N`` on the CLI) picks where the tasks run; see
``docs/ARCHITECTURE.md`` for the determinism contract of each path.
"""

from __future__ import annotations

from .batching import (
    BatchBaselineResult,
    BatchBroadcastResult,
    BatchMajorityResult,
    batchable_baselines,
    cell_task,
    replicate_trial,
    run_baseline_batch,
    run_batch_cell,
    run_broadcast_batch,
    run_broadcast_sweep_batched,
    run_majority_batch,
    run_sweep_batched,
)
from .stage_batching import (
    BatchWindowedResult,
    StageOneBatchResult,
    StageTwoBatchResult,
    run_bounded_skew_batch,
    run_clock_free_batch,
    run_stage1_batch,
    run_stage1_instrumented,
    run_stage2_batch,
    run_stage2_instrumented,
)
from .backends import (
    ExecutionBackend,
    InProcessBackend,
    LocalPoolBackend,
    Task,
    active_backend,
    create_backend,
    use_backend,
)
from .runner import trial_seed, trial_seeds

__all__ = [
    "ExecutionBackend",
    "InProcessBackend",
    "LocalPoolBackend",
    "Task",
    "active_backend",
    "create_backend",
    "use_backend",
    "trial_seed",
    "trial_seeds",
    "BatchBroadcastResult",
    "BatchMajorityResult",
    "BatchBaselineResult",
    "run_broadcast_batch",
    "run_majority_batch",
    "run_baseline_batch",
    "batchable_baselines",
    "run_batch_cell",
    "replicate_trial",
    "cell_task",
    "run_sweep_batched",
    "run_broadcast_sweep_batched",
    "StageOneBatchResult",
    "StageTwoBatchResult",
    "BatchWindowedResult",
    "run_stage1_batch",
    "run_stage2_batch",
    "run_stage1_instrumented",
    "run_stage2_instrumented",
    "run_bounded_skew_batch",
    "run_clock_free_batch",
]

