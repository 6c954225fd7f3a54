"""Experiment E9 — removing the global clock (Section 3, Theorem 3.1).

Theorem 3.1: the broadcast (and majority-consensus) protocols still work
when agents only have local clocks, at an additive cost of ``O(log^2 n)``
rounds and with unchanged message complexity.  Two mechanisms are involved:

* bounded skew ``D`` (Section 3.1): every phase is preceded by a guard window
  of ``D`` silent rounds — additive cost ``D * O(log n)``;
* the activation phase (Section 3.2) reduces arbitrary skew to
  ``D = 2 log n`` — additive cost ``O(log n)`` rounds and ``O(n log n)``
  messages.

The driver measures, on identical instances: the fully-synchronous protocol,
the bounded-skew variant for several values of ``D``, and the full clock-free
protocol (activation phase + guards).  Reported: rounds, round overhead over
the synchronous run, message ratio, and success rate.

With ``batch=True`` every variant simulates all of its trials at once on
``(R, n)`` grids: the synchronous run through
:func:`repro.exec.batching.run_broadcast_batch` and the Section-3 variants
through the stage kernels run on skewed clocks
(:func:`repro.exec.stage_batching.run_bounded_skew_batch` /
:func:`repro.exec.stage_batching.run_clock_free_batch`), each replicate
carrying its own clock offsets, guard and dilated schedule exactly as the
serial executors do.  On either path the independent variant cells are
separate tasks, so a pool backend runs them concurrently.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.experiments import run_trials
from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.broadcast import solve_noisy_broadcast
from ..core.parameters import ProtocolParameters
from ..core.synchronizer import default_guard, run_clock_free_broadcast, run_with_bounded_skew
from .report import ExperimentReport

__all__ = ["run"]

DEFAULT_SKEWS: Sequence[int] = (8, 32, 128)


def _sync_trial(seed: int, _index: int, n: int, epsilon: float, parameters: ProtocolParameters) -> dict:
    """One fully-synchronous broadcast run (module-level, hence picklable)."""
    result = solve_noisy_broadcast(n=n, epsilon=epsilon, seed=seed, parameters=parameters)
    return {"rounds": result.rounds, "messages": result.messages_sent, "success": result.success}


def _skew_trial(
    seed: int, _index: int, n: int, epsilon: float, skew: int, parameters: ProtocolParameters
) -> dict:
    """One bounded-skew broadcast run (module-level, hence picklable)."""
    result = run_with_bounded_skew(n=n, epsilon=epsilon, max_skew=skew, seed=seed, parameters=parameters)
    return {"rounds": result.rounds, "messages": result.messages_sent, "success": result.success}


def _clock_free_trial(seed: int, _index: int, n: int, epsilon: float, parameters: ProtocolParameters) -> dict:
    """One clock-free broadcast run (module-level, hence picklable)."""
    result = run_clock_free_broadcast(n=n, epsilon=epsilon, seed=seed, parameters=parameters)
    return {
        "rounds": result.rounds,
        "messages": result.messages_sent,
        "success": result.success,
        "skew": result.activation.skew if result.activation else 0,
    }


def _variant_tasks(
    n: int,
    epsilon: float,
    skews: Sequence[int],
    trials: int,
    base_seed: int,
    parameters: ProtocolParameters,
    batch: bool,
) -> List[Tuple[str, Callable[..., Any], Dict[str, Any]]]:
    """The per-variant tasks, in report-row order (synchronous first)."""
    shared: Dict[str, Any] = {"n": n, "epsilon": epsilon, "parameters": parameters}
    if batch:
        from ..exec.batching import run_batch_cell, run_broadcast_batch
        from ..exec.stage_batching import run_bounded_skew_batch, run_clock_free_batch

        batch_shared = {**shared, "num_trials": trials, "base_seed": base_seed}
        cells = [("synchronous", "E9-synchronous", run_broadcast_batch, {})]
        cells += [
            ("skew", f"E9-skew-{skew}", run_bounded_skew_batch, {"max_skew": skew})
            for skew in skews
        ]
        cells.append(("clock-free", "E9-clock-free", run_clock_free_batch, {}))
        return [
            (
                variant,
                run_batch_cell,
                {"name": name, "batch_fn": batch_fn, **batch_shared, **settings},
            )
            for variant, name, batch_fn, settings in cells
        ]

    serial_shared = {"num_trials": trials, "base_seed": base_seed}
    tasks: List[Tuple[str, Callable[..., Any], Dict[str, Any]]] = []
    tasks.append(
        (
            "synchronous",
            run_trials,
            {
                "name": "E9-synchronous",
                "trial_fn": functools.partial(_sync_trial, **shared),
                **serial_shared,
            },
        )
    )
    for skew in skews:
        tasks.append(
            (
                "skew",
                run_trials,
                {
                    "name": f"E9-skew-{skew}",
                    "trial_fn": functools.partial(_skew_trial, skew=skew, **shared),
                    **serial_shared,
                },
            )
        )
    tasks.append(
        (
            "clock-free",
            run_trials,
            {
                "name": "E9-clock-free",
                "trial_fn": functools.partial(_clock_free_trial, **shared),
                **serial_shared,
            },
        )
    )
    return tasks


def run(
    n: int = 1000,
    epsilon: float = 0.25,
    skews: Sequence[int] = DEFAULT_SKEWS,
    trials: int = 3,
    base_seed: int = 909,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E9 comparison and return its report.

    ``config`` carries the execution strategy.  ``batch=True`` simulates all
    trials of every variant at once on ``(R, n)`` grids.  The variant cells
    are tasks on the run's execution backend, with results assembled in
    variant order.
    """
    from ..exec import pool

    plan = resolve_run_options("E9", config=config)
    batch = plan.batch
    trials = plan.trials if plan.trials is not None else trials
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed
    parameters = ProtocolParameters.calibrated(n, epsilon)
    report = ExperimentReport(
        experiment_id=plan.spec.experiment_id,
        title=plan.spec.title,
        # The registry claim is the static Theorem 3.1 statement; the report
        # additionally pins the concrete guard for this run's n.
        claim=(
            "Theorem 3.1: additive O(log^2 n) rounds "
            f"(guard D = 2 log2 n = {default_guard(n)} per phase), unchanged message complexity"
        ),
        config={"n": n, "epsilon": epsilon, "skews": list(skews), "trials": trials},
    )

    tasks = _variant_tasks(n, epsilon, skews, trials, base_seed, parameters, batch)
    results = pool.run_point_tasks([(fn, kwargs) for _, fn, kwargs in tasks])

    sync = results[0]
    sync_rounds = sync.mean("rounds")
    sync_messages = sync.mean("messages")
    report.add_row(
        variant="fully-synchronous",
        skew_D=0,
        mean_rounds=sync_rounds,
        overhead_rounds=0.0,
        predicted_overhead=0.0,
        message_ratio_vs_sync=1.0,
        success_rate=sync.rate("success"),
    )

    num_phases = parameters.stage1.num_phases + parameters.stage2.num_phases

    for skew, skewed in zip(skews, results[1 : 1 + len(skews)]):
        report.add_row(
            variant="bounded-skew",
            skew_D=skew,
            mean_rounds=skewed.mean("rounds"),
            overhead_rounds=skewed.mean("rounds") - sync_rounds,
            predicted_overhead=float(skew * num_phases + skew),
            message_ratio_vs_sync=skewed.mean("messages") / sync_messages,
            success_rate=skewed.rate("success"),
        )

    clock_free = results[-1]
    guard = default_guard(n)
    report.add_row(
        variant="clock-free (activation + guards)",
        skew_D=guard,
        mean_rounds=clock_free.mean("rounds"),
        overhead_rounds=clock_free.mean("rounds") - sync_rounds,
        predicted_overhead=float(guard * num_phases + 3 * guard),
        message_ratio_vs_sync=clock_free.mean("messages") / sync_messages,
        success_rate=clock_free.rate("success"),
    )

    report.add_note(
        f"predicted_overhead ~ D * (number of phases = {num_phases}) plus the activation phase; "
        f"with D = 2 log2 n this is the Theorem 3.1 additive O(log^2 n) term "
        f"(log2(n)^2 = {math.log2(n) ** 2:.0f} for n = {n})"
    )
    report.add_note(
        "message_ratio_vs_sync stays close to 1 for bounded skew (guards are silent rounds); "
        "the clock-free variant adds the activation phase's O(n log n) arbitrary messages."
    )
    return report
