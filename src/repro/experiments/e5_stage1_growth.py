"""Experiment E5 — Stage I layer growth and bias deterioration (Claims 2.4-2.8).

The analysis of Stage I tracks, phase by phase:

* ``X_i`` — agents activated by the end of phase ``i``; Claim 2.4 shows
  ``(beta+1)^i X_0 / 16 <= X_i <= (beta+1)^i X_0`` (geometric growth);
* ``Y_i`` — agents newly activated during phase ``i``; Corollary 2.7 lower
  bounds it by ``beta^{i-1} log n``;
* ``eps_i`` — the bias of the newly activated agents' initial opinions;
  Claim 2.8 shows ``eps_i >= eps^{i+1} / 2`` (exponential deterioration,
  which is exactly what Stage II is designed to undo);
* Corollaries 2.5/2.6 — ``X_T = Omega(eps^2 n)`` and all agents activated by
  the end of phase ``T + 1``.

To observe several intermediate phases at laptop scale the driver uses a
Stage-I parameterisation with a deliberately small per-phase length ``beta``
(``beta_override``), which is allowed by the paper (any
``beta = Theta(1/eps^2)`` with a large enough constant works asymptotically;
shrinking it only weakens the concentration, visible as occasional
near-misses of the 1/16 constant).

The trials run the instrumented Stage-I kernel
(:func:`repro.exec.stage_batching.run_stage1_instrumented`), whose per-phase
replicate vectors carry the ``X_i`` / ``Y_i`` / ``eps_i`` observables: with
``batch=True`` all trials share one ``(R, n)`` grid, otherwise each trial
is the kernel at ``R = 1`` under its own seed.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Union

from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.parameters import ProtocolParameters
from .report import ExperimentReport

__all__ = ["run"]


def _stage1_rows(batch: "Any") -> List[dict]:
    """Every replicate of an instrumented Stage-I batch as one measurement row."""
    rows = []
    for index in range(batch.num_replicates):
        row = {
            "all_activated": bool(batch.all_activated[index]),
            "final_bias": float(batch.final_bias[index]),
        }
        for phase in batch.phases:
            row[f"x_{phase.phase}"] = int(phase.activated_total[index])
            row[f"y_{phase.phase}"] = int(phase.newly_activated[index])
            row[f"bias_{phase.phase}"] = float(phase.bias_of_new[index])
        rows.append(row)
    return rows


def run(
    n: int = 8000,
    epsilon: float = 0.35,
    beta_override: int = 8,
    trials: int = 5,
    base_seed: int = 505,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E5 per-phase measurement and return its report.

    ``config`` carries the execution strategy; ``batch=True`` simulates all
    trials on one grid of the instrumented Stage-I kernel, otherwise each
    trial runs that kernel at ``R = 1``.
    """
    from ..exec.batching import cell_task
    from ..exec.stage_batching import run_stage1_instrumented

    plan = resolve_run_options("E5", config=config)
    trials = plan.trials if plan.trials is not None else trials
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed
    parameters = ProtocolParameters.calibrated(n, epsilon, s0=1.0, beta_override=beta_override)
    stage1_params = parameters.stage1

    fn, kwargs = cell_task(
        "E5-stage1-growth",
        run_stage1_instrumented,
        trials,
        base_seed,
        plan.batch,
        measure=_stage1_rows,
        n=n,
        epsilon=epsilon,
        parameters=stage1_params,
    )
    result = fn(**kwargs)

    report = ExperimentReport(
        experiment_id=plan.spec.experiment_id,
        title=plan.spec.title,
        claim=plan.spec.claim,
        config={
            "n": n,
            "epsilon": epsilon,
            "beta": stage1_params.beta,
            "beta_s": stage1_params.beta_s,
            "T": stage1_params.num_intermediate_phases,
            "trials": trials,
        },
    )

    num_phases = stage1_params.num_phases
    mean_x0 = result.mean("x_0")
    for phase_index in range(num_phases):
        mean_x = result.mean(f"x_{phase_index}")
        mean_y = result.mean(f"y_{phase_index}")
        mean_bias = result.mean(f"bias_{phase_index}")
        geometric_reference = mean_x0 * (stage1_params.beta + 1) ** phase_index
        claimed_min_bias = (epsilon ** (phase_index + 1)) / 2.0
        report.add_row(
            phase=phase_index,
            mean_X_i=mean_x,
            mean_Y_i=mean_y,
            growth_vs_geometric=min(mean_x / geometric_reference, 1.0)
            if phase_index <= stage1_params.num_intermediate_phases
            else None,
            mean_bias_eps_i=mean_bias,
            claimed_min_bias=claimed_min_bias,
            bias_above_claim=mean_bias >= claimed_min_bias,
        )

    target_bias = math.sqrt(math.log(n) / n)
    report.add_note(
        f"all agents activated at end of Stage I in {result.rate('all_activated'):.0%} of trials; "
        f"mean final bias {result.mean('final_bias'):.4f} "
        f"(Lemma 2.3 target Omega(sqrt(log n / n)) ~ {target_bias:.4f})"
    )
    return report
