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

With ``batch=True`` each scheme simulates all of its trials at once through
the batched baseline rules (:func:`repro.exec.batching.run_baseline_batch`
with the ``direct-source-reference`` and ``silent-wait`` step rules).  On
either path the two independent scheme cells are separate tasks, so a pool
backend runs them concurrently.

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

import functools
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..analysis.experiments import run_trials
from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.theory import broadcast_round_bound, silent_wait_round_bound
from ..protocols.direct_source import DirectSourceReference
from ..protocols.silent_wait import SilentWaitBroadcast, default_decision_threshold
from ..substrate.engine import SimulationEngine
from .report import ExperimentReport

__all__ = ["run"]


def _direct_trial(seed: int, _index: int, n: int, epsilon: float) -> dict:
    """One direct-from-source reference run (module-level, hence picklable).

    ``rounds_to_all_correct`` is ``None`` (not the sampling budget) when the
    running majority never went all-correct — see the module docstring.
    """
    engine = SimulationEngine.create(n=n, epsilon=epsilon, seed=seed)
    result = DirectSourceReference().run(engine, correct_opinion=1)
    first_all_correct = result.extra["first_all_correct_round"]
    return {
        "rounds_to_all_correct": first_all_correct,
        "all_correct": first_all_correct is not None,
        "success": result.success,
    }


def _silent_trial(seed: int, _index: int, n: int, epsilon: float, threshold: int) -> dict:
    """One listen-only (silent-wait) run (module-level, hence picklable).

    ``first_two_messages_round`` is ``None`` when no agent ever heard two
    messages (rather than a fake round 0), so it drops out of means instead
    of dragging them towards zero.
    """
    engine = SimulationEngine.create(n=n, epsilon=epsilon, seed=seed)
    result = SilentWaitBroadcast(threshold=threshold).run(engine, correct_opinion=1)
    return {
        "rounds": result.rounds,
        "success": result.success,
        "decided_fraction": result.extra["decided_fraction"],
        "first_two_messages_round": result.extra["first_round_with_two_messages"],
    }


def _silent_rows(batch: "Any") -> List[dict]:
    """Every replicate of a silent-wait batch, keyed like :func:`_silent_trial`.

    The batched rule's extra vector is named after the serial protocol's
    internal marker (``first_round_with_two_messages``); the serial E11
    trial records it as ``first_two_messages_round``.
    """
    rows = [batch.measurements(index) for index in range(batch.num_replicates)]
    for row in rows:
        row["first_two_messages_round"] = row.pop("first_round_with_two_messages")
    return rows


def run(
    n: int = 400,
    epsilon: float = 0.25,
    trials: int = 3,
    base_seed: int = 1111,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E11 reference measurements and return its report.

    ``config`` carries the execution strategy.  ``batch=True`` simulates all
    trials of each scheme at once via the batched baseline rules.  The two
    scheme cells are tasks on the run's execution backend, with results
    assembled in scheme order.
    """
    from ..exec import pool

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

    tasks: List[Tuple[str, Callable[..., Any], Dict[str, Any]]]
    if batch:
        from ..exec.batching import run_baseline_batch, run_batch_cell

        shared = {
            "batch_fn": run_baseline_batch,
            "num_trials": trials,
            "base_seed": base_seed,
            "n": n,
            "epsilon": epsilon,
        }
        tasks = [
            (
                "direct",
                run_batch_cell,
                {"name": "E11-direct-source", "protocol": "direct-source-reference", **shared},
            ),
            (
                "silent",
                run_batch_cell,
                {
                    "name": "E11-silent-wait",
                    "protocol": "silent-wait",
                    "threshold": threshold,
                    "measure": _silent_rows,
                    **shared,
                },
            ),
        ]
    else:
        tasks = [
            (
                "direct",
                run_trials,
                {
                    "name": "E11-direct-source",
                    "trial_fn": functools.partial(_direct_trial, n=n, epsilon=epsilon),
                    "num_trials": trials,
                    "base_seed": base_seed,
                },
            ),
            (
                "silent",
                run_trials,
                {
                    "name": "E11-silent-wait",
                    "trial_fn": functools.partial(
                        _silent_trial, n=n, epsilon=epsilon, threshold=threshold
                    ),
                    "num_trials": trials,
                    "base_seed": base_seed,
                },
            ),
        ]

    results = pool.run_point_tasks([(fn, kwargs) for _, fn, kwargs in tasks])
    direct, silent = results

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
