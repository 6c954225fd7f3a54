"""Experiment E2 — round complexity versus noise margin (Theorem 2.17).

At fixed ``n``, Theorem 2.17's ``O(log n / eps^2)`` bound says rounds grow
like ``1/eps^2`` as the channel gets noisier.  The driver sweeps ``epsilon``,
measures rounds and success, and fits ``rounds ~ a / eps^2 + b``.
"""

from __future__ import annotations

import functools
from typing import Mapping, Optional, Sequence, Union

from ..analysis.scaling import fit_inverse_square_epsilon
from ..analysis.sweeps import run_sweep
from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.broadcast import solve_noisy_broadcast
from ..core.theory import broadcast_round_bound
from .report import ExperimentReport

__all__ = ["run"]

DEFAULT_EPSILONS: Sequence[float] = (0.1, 0.15, 0.2, 0.3, 0.4)


def _broadcast_trial(point: Mapping[str, object], seed: int, _index: int, n: int) -> dict:
    """One noisy-broadcast run at a sweep point (module-level, hence picklable)."""
    result = solve_noisy_broadcast(n=n, epsilon=float(point["epsilon"]), seed=seed)
    return {
        "rounds": result.rounds,
        "messages": result.messages_sent,
        "success": result.success,
        "final_correct_fraction": result.final_correct_fraction,
    }


def run(
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    n: int = 1000,
    trials: int = 5,
    base_seed: int = 202,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E2 sweep and return its report.

    ``config`` selects the execution strategy exactly as in
    :func:`repro.experiments.e1_rounds_vs_n.run`.
    """
    plan = resolve_run_options("E2", config=config)
    batch = plan.batch
    trials = plan.trials if plan.trials is not None else trials
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed
    if batch:
        from ..exec.batching import run_broadcast_sweep_batched

        sweep = run_broadcast_sweep_batched(
            name="E2-rounds-vs-eps",
            points=[{"epsilon": epsilon} for epsilon in epsilons],
            trials_per_point=trials,
            base_seed=base_seed,
            defaults={"n": n},
        )
    else:
        sweep = run_sweep(
            name="E2-rounds-vs-eps",
            points=[{"epsilon": epsilon} for epsilon in epsilons],
            trial_fn=functools.partial(_broadcast_trial, n=n),
            trials_per_point=trials,
            base_seed=base_seed,
        )

    report = ExperimentReport(
        experiment_id=plan.spec.experiment_id,
        title=plan.spec.title,
        claim=plan.spec.claim,
        config={"epsilons": list(epsilons), "n": n, "trials": trials},
    )
    for point, result in sweep:
        epsilon = point.as_dict()["epsilon"]
        rounds = result.scalar_summary("rounds")
        report.add_row(
            n=n,
            epsilon=epsilon,
            mean_rounds=rounds.mean,
            rounds_times_eps_sq=rounds.mean * epsilon * epsilon,
            predicted_scale=broadcast_round_bound(n, epsilon),
            success_rate=result.rate("success"),
            mean_final_fraction=result.mean("final_correct_fraction"),
        )

    eps_values, mean_rounds = sweep.series("epsilon", "rounds")
    fit = fit_inverse_square_epsilon(eps_values, mean_rounds)
    report.add_note(
        f"fit rounds ~ a/eps^2+b: a={fit.slope:.2f}, b={fit.intercept:.1f}, R^2={fit.r_squared:.3f} "
        "(inverse-square growth in eps, matching Theorem 2.17)"
    )
    return report
