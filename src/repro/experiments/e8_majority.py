"""Experiment E8 — majority-consensus feasibility region (Corollary 2.18).

Corollary 2.18: the noisy majority-consensus problem is solvable in
``O(log n / eps^2)`` rounds whenever the initial opinionated set satisfies
``|A| = Omega(log n / eps^2)`` *and* its majority-bias is
``Omega(sqrt(log n / |A|))``.  Below those thresholds the initial signal is
simply not statistically identifiable, so no symmetric protocol can
guarantee the majority opinion wins.

The driver sweeps ``|A|`` and the initial majority-bias on a grid and
measures the success rate of the protocol, showing the feasibility
transition around the ``sqrt(log n / |A|)`` curve.
"""

from __future__ import annotations

import functools
from typing import Mapping, Optional, Sequence, Union

from ..analysis.sweeps import parameter_grid, run_sweep
from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.majority import solve_noisy_majority_consensus
from ..core.theory import majority_consensus_min_bias, majority_consensus_min_set_size
from .report import ExperimentReport

__all__ = ["run"]

DEFAULT_SET_SIZES: Sequence[int] = (50, 200, 800)
DEFAULT_BIASES: Sequence[float] = (0.02, 0.05, 0.1, 0.2, 0.35)


def _majority_trial(point: Mapping[str, object], seed: int, _index: int, n: int, epsilon: float) -> dict:
    """One majority-consensus run at a sweep point (module-level, hence picklable)."""
    result = solve_noisy_majority_consensus(
        n=n,
        epsilon=epsilon,
        initial_set_size=int(point["set_size"]),
        majority_bias=float(point["bias"]),
        seed=seed,
    )
    return {
        "success": result.success,
        "final_fraction": result.final_correct_fraction,
        "rounds": result.rounds,
    }


def run(
    n: int = 2000,
    epsilon: float = 0.2,
    set_sizes: Sequence[int] = DEFAULT_SET_SIZES,
    biases: Sequence[float] = DEFAULT_BIASES,
    trials: int = 5,
    base_seed: int = 808,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E8 feasibility sweep and return its report.

    ``config`` carries the execution strategy.  By default each trial is one
    task on the run's execution backend; ``batch=True`` instead simulates
    all trials of each grid point simultaneously via
    :func:`repro.exec.batching.run_majority_batch`, one task per point.
    """
    plan = resolve_run_options("E8", config=config)
    batch = plan.batch
    trials = plan.trials if plan.trials is not None else trials
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed
    if batch:
        from ..exec.batching import run_majority_batch, run_sweep_batched

        sweep = run_sweep_batched(
            name="E8-majority-consensus",
            points=parameter_grid(set_size=list(set_sizes), bias=list(biases)),
            batch_fn=run_majority_batch,
            trials_per_point=trials,
            base_seed=base_seed,
            defaults={"n": n, "epsilon": epsilon},
        )
    else:
        sweep = run_sweep(
            name="E8-majority-consensus",
            points=parameter_grid(set_size=list(set_sizes), bias=list(biases)),
            trial_fn=functools.partial(_majority_trial, n=n, epsilon=epsilon),
            trials_per_point=trials,
            base_seed=base_seed,
        )

    report = ExperimentReport(
        experiment_id=plan.spec.experiment_id,
        title=plan.spec.title,
        claim=plan.spec.claim,
        config={
            "n": n,
            "epsilon": epsilon,
            "set_sizes": list(set_sizes),
            "biases": list(biases),
            "trials": trials,
            "min_set_size_scale": majority_consensus_min_set_size(n, epsilon),
        },
    )
    for point, result in sweep:
        params = point.as_dict()
        set_size, bias = params["set_size"], params["bias"]
        threshold = majority_consensus_min_bias(set_size, n)
        report.add_row(
            set_size=set_size,
            initial_bias=bias,
            bias_threshold_sqrt_logn_over_A=threshold,
            above_threshold=bias >= threshold,
            success_rate=result.rate("success"),
            mean_final_fraction=result.mean("final_fraction"),
            mean_rounds=result.mean("rounds"),
        )

    report.add_note(
        "the paper guarantees success only above the threshold (above_threshold=yes rows); "
        "below it the protocol still converges to *some* opinion, but the success rate degrades towards "
        "the probability that sampling noise preserves the thin initial majority."
    )
    return report
