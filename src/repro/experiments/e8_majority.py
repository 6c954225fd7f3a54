"""Experiment E8 — majority-consensus feasibility region (Corollary 2.18).

Corollary 2.18: the noisy majority-consensus problem is solvable in
``O(log n / eps^2)`` rounds whenever the initial opinionated set satisfies
``|A| = Omega(log n / eps^2)`` *and* its majority-bias is
``Omega(sqrt(log n / |A|))``.  Below those thresholds the initial signal is
simply not statistically identifiable, so no symmetric protocol can
guarantee the majority opinion wins.

The driver sweeps ``|A|`` and the initial majority-bias on a grid and
measures the success rate of the protocol, showing the feasibility
transition around the ``sqrt(log n / |A|)`` curve.  Every trial runs
:func:`repro.exec.batching.run_majority_batch`: with ``batch=True`` all
trials of a grid point share one ``(R, n)`` grid, otherwise each trial is
that rule at ``R = 1`` under its own seed.

The defaults do not exercise the corollary's late start.  At n = 2000,
eps = 0.2 the calibrated Stage I has two phases, so
:func:`~repro.core.majority.compute_start_phase` returns 1 (the final
Stage-I phase) for every default ``|A|`` (50, 200, 800).  A later start
first appears at n = 4000, eps = 0.45, where ``|A|`` = 200 and 800 start at
phase 2.  The defaults are kept because E8's pinned default fingerprint
(its run-store key) and the ``majority_pool`` benchmark workload are built
on them; ``tests/unit/core/test_majority.py`` pins both facts.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..analysis.sweeps import SweepPoint, parameter_grid, sweep_point_names
from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.theory import majority_consensus_min_bias, majority_consensus_min_set_size
from .report import ExperimentReport

__all__ = ["run"]

DEFAULT_SET_SIZES: Sequence[int] = (50, 200, 800)
DEFAULT_BIASES: Sequence[float] = (0.02, 0.05, 0.1, 0.2, 0.35)


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

    ``config`` carries the execution strategy.  Each grid point is one task
    on the run's execution backend: ``batch=True`` simulates all of its
    trials on one grid of :func:`repro.exec.batching.run_majority_batch`,
    otherwise each trial runs that rule at ``R = 1``.
    """
    from ..exec import pool
    from ..exec.batching import cell_task, run_majority_batch

    plan = resolve_run_options("E8", config=config)
    trials = plan.trials if plan.trials is not None else trials
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed
    points = parameter_grid(set_size=list(set_sizes), bias=list(biases))
    point_names = sweep_point_names(
        "E8-majority-consensus", [SweepPoint.from_mapping(point) for point in points]
    )
    tasks = [
        cell_task(
            point_name,
            run_majority_batch,
            trials,
            base_seed,
            plan.batch,
            n=n,
            epsilon=epsilon,
            initial_set_size=int(point["set_size"]),
            majority_bias=float(point["bias"]),
        )
        for point, point_name in zip(points, point_names)
    ]
    results = pool.run_point_tasks(tasks)

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
    for point, result in zip(points, results):
        set_size, bias = point["set_size"], point["bias"]
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
