"""Experiment E4 — Stage I phase 0 (Claim 2.2).

Claim 2.2: choosing ``s > c / eps^2`` large enough guarantees that at the end
of phase 0 (only the source speaks, for ``beta_s = s log n`` rounds), w.h.p.

* the number of activated agents satisfies ``beta_s / 3 <= X0 <= beta_s``, and
* their bias towards the correct opinion is at least ``eps / 2``.

The driver runs phase 0 many times and reports the distribution of ``X0`` and
``eps_0`` together with the fraction of trials satisfying both bounds.  With
``batch=True`` all trials of one epsilon execute simultaneously on
``(R, n)`` grids through the instrumented stage kernel
(:func:`repro.exec.stage_batching.run_stage1_instrumented`), which records
the same per-phase ``X_0`` / ``eps_0`` observables the serial trial reads
off :class:`~repro.core.stage1.StageOnePhaseSummary`.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.experiments import run_trials
from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.parameters import ProtocolParameters, StageOneParameters
from ..core.stage1 import execute_stage_one
from ..substrate.engine import SimulationEngine
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


def _phase0_measurements(x0: int, bias0: float, epsilon: float, parameters: StageOneParameters) -> dict:
    """Claim 2.2's per-trial observables, shared by the serial and batch paths."""
    return {
        "x0": x0,
        "bias0": bias0,
        "x0_within_bounds": bool(parameters.beta_s / 3 <= x0 <= parameters.beta_s),
        "bias_at_least_half_eps": bool(bias0 >= epsilon / 2),
    }


def _phase0_trial(
    seed: int, _index: int, n: int, epsilon: float, parameters: StageOneParameters
) -> dict:
    """One phase-0-only Stage-I run (module-level, hence picklable)."""
    engine = SimulationEngine.create(n=n, epsilon=epsilon, seed=seed)
    engine.population.set_source_opinion(1)
    stage1 = execute_stage_one(engine, parameters, correct_opinion=1)
    phase0 = stage1.phase(0)
    # X0 counts non-source activated agents, as in the claim's setup.
    return _phase0_measurements(
        phase0.activated_total - 1, phase0.bias_of_new, epsilon, parameters
    )


def _phase0_rows(batch: "Any", epsilon: float, parameters: StageOneParameters) -> List[dict]:
    """Claim 2.2's observables for every replicate of an instrumented Stage-I batch."""
    phase0 = batch.phase(0)
    return [
        _phase0_measurements(
            int(phase0.activated_total[index]) - 1,
            float(phase0.bias_of_new[index]),
            epsilon,
            parameters,
        )
        for index in range(batch.num_replicates)
    ]


def run(
    n: int = 4000,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    trials: int = 30,
    base_seed: int = 404,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E4 Monte-Carlo and return its report.

    ``config`` carries the execution strategy.  ``batch=True`` simulates all
    trials of each epsilon at once via the instrumented Stage-I batch
    kernel.  The epsilon cells are tasks on the run's execution backend,
    with results assembled in cell order.
    """
    from ..exec import pool
    from ..exec.batching import run_batch_cell
    from ..exec.stage_batching import run_stage1_instrumented

    plan = resolve_run_options("E4", config=config)
    batch = plan.batch
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
        name = f"E4-phase0-eps={epsilon}"
        if batch:
            fn: Callable[..., Any] = run_batch_cell
            kwargs: Dict[str, Any] = {
                "name": name,
                "batch_fn": run_stage1_instrumented,
                "num_trials": trials,
                "base_seed": base_seed,
                "measure": functools.partial(_phase0_rows, epsilon=epsilon, parameters=parameters),
                "n": n,
                "epsilon": epsilon,
                "parameters": parameters,
            }
        else:
            fn = run_trials
            kwargs = {
                "name": name,
                "trial_fn": functools.partial(
                    _phase0_trial, n=n, epsilon=epsilon, parameters=parameters
                ),
                "num_trials": trials,
                "base_seed": base_seed,
            }
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
