"""Experiment E4 — Stage I phase 0 (Claim 2.2).

Claim 2.2: choosing ``s > c / eps^2`` large enough guarantees that at the end
of phase 0 (only the source speaks, for ``beta_s = s log n`` rounds), w.h.p.

* the number of activated agents satisfies ``beta_s / 3 <= X0 <= beta_s``, and
* their bias towards the correct opinion is at least ``eps / 2``.

The driver runs phase 0 many times and reports the distribution of ``X0`` and
``eps_0`` together with the fraction of trials satisfying both bounds.  The
trials run the instrumented Stage-I kernel
(:func:`repro.exec.stage_batching.run_stage1_instrumented`), which records
the per-phase ``X_0`` / ``eps_0`` observables: with ``batch=True`` all
trials of one epsilon share one ``(R, n)`` grid, otherwise each trial is
the kernel at ``R = 1`` under its own seed.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.parameters import ProtocolParameters, StageOneParameters
from .report import ExperimentReport

__all__ = ["run"]

DEFAULT_EPSILONS: Sequence[float] = (0.1, 0.2, 0.3)


def _phase0_only_parameters(n: int, epsilon: float) -> StageOneParameters:
    """Stage-I parameters whose only substantial phase is phase 0."""
    calibrated = ProtocolParameters.calibrated(n, epsilon).stage1
    return StageOneParameters(
        beta_s=calibrated.beta_s,
        beta=1,
        beta_f=1,
        num_intermediate_phases=0,
    )


def _phase0_rows(batch: "Any", epsilon: float, parameters: StageOneParameters) -> List[dict]:
    """Claim 2.2's observables for every replicate of an instrumented Stage-I batch."""
    phase0 = batch.phase(0)
    rows = []
    for index in range(batch.num_replicates):
        # X0 counts non-source activated agents, as in the claim's setup.
        x0 = int(phase0.activated_total[index]) - 1
        bias0 = float(phase0.bias_of_new[index])
        rows.append(
            {
                "x0": x0,
                "bias0": bias0,
                "x0_within_bounds": bool(parameters.beta_s / 3 <= x0 <= parameters.beta_s),
                "bias_at_least_half_eps": bool(bias0 >= epsilon / 2),
            }
        )
    return rows


def run(
    n: int = 4000,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    trials: int = 30,
    base_seed: int = 404,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E4 Monte-Carlo and return its report.

    ``config`` carries the execution strategy.  ``batch=True`` simulates all
    trials of each epsilon on one grid of the instrumented Stage-I kernel;
    otherwise each trial runs that kernel at ``R = 1``.  The epsilon cells
    are tasks on the run's execution backend, with results assembled in
    cell order.
    """
    from ..exec import pool
    from ..exec.batching import cell_task
    from ..exec.stage_batching import run_stage1_instrumented

    plan = resolve_run_options("E4", config=config)
    trials = plan.trials if plan.trials is not None else trials
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed
    report = ExperimentReport(
        experiment_id=plan.spec.experiment_id,
        title=plan.spec.title,
        claim=plan.spec.claim,
        config={"n": n, "epsilons": list(epsilons), "trials": trials},
    )

    tasks: List[Tuple[float, StageOneParameters, Callable[..., Any], Dict[str, Any]]] = []
    for epsilon in epsilons:
        parameters = _phase0_only_parameters(n, epsilon)
        fn, kwargs = cell_task(
            f"E4-phase0-eps={epsilon}",
            run_stage1_instrumented,
            trials,
            base_seed,
            plan.batch,
            measure=functools.partial(_phase0_rows, epsilon=epsilon, parameters=parameters),
            n=n,
            epsilon=epsilon,
            parameters=parameters,
        )
        tasks.append((epsilon, parameters, fn, kwargs))

    results = pool.run_point_tasks([(fn, kwargs) for _, _, fn, kwargs in tasks])

    for (epsilon, parameters, _, _), result in zip(tasks, results):
        x0_summary = result.scalar_summary("x0")
        report.add_row(
            n=n,
            epsilon=epsilon,
            beta_s=parameters.beta_s,
            mean_x0=x0_summary.mean,
            min_x0=x0_summary.minimum,
            max_x0=x0_summary.maximum,
            mean_bias0=result.mean("bias0"),
            claimed_min_bias=epsilon / 2,
            x0_bound_rate=result.rate("x0_within_bounds"),
            bias_bound_rate=result.rate("bias_at_least_half_eps"),
        )

    report.add_note(
        "x0_bound_rate / bias_bound_rate are the fractions of trials satisfying Claim 2.2's "
        "two bounds; with calibrated (small) constants a small fraction of near-miss trials is expected."
    )
    return report
