"""Experiment E11 — lower-bound sanity checks (Section 1.4).

Section 1.4 derives the ``Omega(log n / eps^2)`` round and
``Omega(n log n / eps^2)`` message lower bounds from Shannon's two-party
argument, and notes that *without relaying* (agents only listen to the
source) completing the broadcast takes ``Theta(n log n / eps^2)`` rounds.

The driver measures both reference points in the simulator:

* the idealised direct-from-source process (every agent receives an
  independent noisy source bit every round): the first round at which every
  agent's running majority is correct scales like ``log n / eps^2`` — this is
  the floor the paper's protocol matches up to constants;
* the silent-wait strategy inside the actual Flip model (only the source
  pushes, one message per round): completing the broadcast takes a factor
  ``~n`` longer, matching ``Theta(n log n / eps^2)``.

Both schemes run their one rule (in :mod:`repro.protocols`) through
:func:`repro.exec.batching.run_baseline_batch`: serially once per trial at
``R = 1`` under the trial's own seed, and with ``batch=True`` all trials of
a scheme at once over one shared grid.  On either path the two independent
scheme cells are separate tasks, so a pool backend runs them concurrently.

Reporting convention (never-converged trials)
---------------------------------------------
``mean_rounds`` for the direct-from-source scheme averages
``rounds_to_all_correct`` only over trials whose running majority actually
reached the all-correct state (recorded as ``None`` — checked with
``is None``, never truthiness — when it did not); the column is ``NaN`` when
no trial converged, and the separate ``all_correct_rate`` column reports how
often convergence happened.  Budget-exhausted trials are never silently
counted at their round budget.  The same convention applies in
:mod:`repro.experiments.e7_baselines`.
"""

from __future__ import annotations

from typing import Optional, Union

from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.theory import broadcast_round_bound, silent_wait_round_bound
from ..protocols.silent_wait import default_decision_threshold
from .report import ExperimentReport

__all__ = ["run"]


def run(
    n: int = 400,
    epsilon: float = 0.25,
    trials: int = 3,
    base_seed: int = 1111,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E11 reference measurements and return its report.

    ``config`` carries the execution strategy.  ``batch=True`` simulates all
    trials of each scheme at once; serially each trial is the scheme's rule
    at ``R = 1``.  The two scheme cells are tasks on the run's execution
    backend, with results assembled in scheme order.
    """
    from ..exec import pool
    from ..exec.batching import cell_task, run_baseline_batch

    plan = resolve_run_options("E11", config=config)
    batch = plan.batch
    trials = plan.trials if plan.trials is not None else trials
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed
    report = ExperimentReport(
        experiment_id=plan.spec.experiment_id,
        title=plan.spec.title,
        claim=plan.spec.claim,
        config={"n": n, "epsilon": epsilon, "trials": trials},
    )

    threshold = default_decision_threshold(n, epsilon, constant=2.0)
    shared = {"n": n, "epsilon": epsilon}
    tasks = [
        cell_task(
            "E11-direct-source", run_baseline_batch, trials, base_seed, batch,
            protocol="direct-source-reference", **shared,
        ),
        cell_task(
            "E11-silent-wait", run_baseline_batch, trials, base_seed, batch,
            protocol="silent-wait", threshold=threshold, **shared,
        ),
    ]

    direct, silent = pool.run_point_tasks(tasks)

    # Never-converged trials are excluded from the rounds mean (NaN when no
    # trial converged) and reported through all_correct_rate instead; see the
    # module docstring.
    direct_rounds = direct.mean_or("rounds_to_all_correct")
    report.add_row(
        scheme="direct-from-source (idealised)",
        mean_rounds=direct_rounds,
        reference_scale=broadcast_round_bound(n, epsilon),
        ratio_to_reference=direct_rounds / broadcast_round_bound(n, epsilon),
        all_correct_rate=direct.rate("all_correct"),
        success_rate=direct.rate("success"),
    )

    report.add_row(
        scheme="listen-only (silent wait, Flip model)",
        mean_rounds=silent.mean("rounds"),
        reference_scale=silent_wait_round_bound(n, epsilon, constant=2.0),
        ratio_to_reference=silent.mean("rounds") / silent_wait_round_bound(n, epsilon, constant=2.0),
        success_rate=silent.rate("success"),
    )

    report.add_note(
        f"listen-only completion is ~n times slower than the direct reference "
        f"(measured ratio {silent.mean('rounds') / max(direct_rounds, 1):.0f}x, n = {n})"
    )
    report.add_note(
        f"Section 1.6 birthday-paradox check: the first agent to hear two (source) messages appeared at "
        f"round ~{silent.mean_or('first_two_messages_round'):.0f} on average (sqrt(n) = {n ** 0.5:.0f})"
    )
    return report
