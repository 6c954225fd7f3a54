"""Experiment E7 — the paper's protocol versus naive baselines (Section 1.6).

Section 1.6 argues that the two obvious strategies fail in the Flip model:

* *immediate forwarding* spreads the rumor fast but over ``Theta(log n)``-hop
  relay chains, so the typical agent's opinion is correct with probability
  only ``1/2 + (2 eps)^{Theta(log n)}`` — essentially a coin flip;
* *adopt-the-last-bit* (noisy voter with a zealot source) cannot converge:
  the per-round update keeps the population bias at the noise floor.

The paper's protocol, in contrast, reaches full correct consensus in
``O(log n / eps^2)`` rounds.  The driver runs all of them (plus the
idealised direct-from-source reference) on identical instances and reports
final correct fraction, success rate, and rounds used.

Each protocol has one rule: the paper's protocol runs
:func:`repro.exec.batching.run_broadcast_batch`, each comparator its rule in
:mod:`repro.protocols` through :func:`repro.exec.batching.run_baseline_batch`.
A serial trial is the rule at ``R = 1`` under the trial's own seed, a
batched cell the same rule over one shared grid.

Reporting convention (never-converged trials)
---------------------------------------------
``mean_rounds`` averages only over trials that *converged* — i.e. met the
protocol's own stopping rule (voter consensus check, direct-source running
majority going all-correct) or completed a schedule that is fixed up front
(the paper's protocol, the forwarding budget).  Trials that merely exhausted
a round budget are **excluded** (the column is ``NaN`` when no trial
converged) instead of being silently counted at the budget, and the separate
``all_correct_rate`` column reports how often the all-correct state was
reached at all.  The same convention applies in
:mod:`repro.experiments.e11_lower_bounds`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.experiments import ExperimentResult
from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.theory import expected_relay_depth, hop_correct_probability
from .report import ExperimentReport

__all__ = ["run"]

DEFAULT_EPSILONS: Sequence[float] = (0.1, 0.2)

#: Report/row order of the compared protocols (the paper's protocol first).
PROTOCOL_ORDER: Sequence[str] = (
    "breathe-before-speaking",
    "immediate-forwarding",
    "noisy-voter",
    "direct-source-reference",
)


def _tasks(
    n: int, epsilon: float, trials: int, voter_rounds: int, base_seed: int, batch: bool
) -> List[Tuple[str, Callable[..., Any], Dict[str, Any]]]:
    """The per-protocol tasks of one epsilon, in row order.

    Every row runs its rule through :func:`~repro.exec.batching.cell_task`:
    one shared grid when ``batch``, otherwise the rule at ``R = 1`` per
    trial seed.
    """
    from ..exec.batching import cell_task, run_baseline_batch, run_broadcast_batch

    def cell_name(protocol: str) -> str:
        return f"E7-{protocol}-eps={epsilon}"

    paper = PROTOCOL_ORDER[0]
    paper_task = cell_task(
        cell_name(paper), run_broadcast_batch, trials, base_seed, batch, n=n, epsilon=epsilon
    )
    # Each comparator row's rule options, besides n and epsilon.
    comparators: Dict[str, Dict[str, Any]] = {
        "immediate-forwarding": {},
        "noisy-voter": {"max_rounds": voter_rounds},
        "direct-source-reference": {},
    }
    tasks = [(paper, *paper_task)]
    for protocol, options in comparators.items():
        fn, kwargs = cell_task(
            cell_name(protocol),
            run_baseline_batch,
            trials,
            base_seed,
            batch,
            protocol=protocol,
            n=n,
            epsilon=epsilon,
            **options,
        )
        tasks.append((protocol, fn, kwargs))
    return tasks


def _add_protocol_row(
    report: ExperimentReport, protocol: str, epsilon: float, result: ExperimentResult
) -> None:
    """Append one comparison row, applying the never-converged convention.

    ``mean_rounds`` excludes budget-exhausted trials (``NaN`` when no trial
    converged) and ``all_correct_rate`` reports how often the all-correct
    state was reached — see the module docstring.
    """
    row: Dict[str, Any] = {
        "protocol": protocol,
        "epsilon": epsilon,
        "mean_final_fraction": result.mean("fraction"),
        "success_rate": result.rate("success"),
    }
    if protocol == "noisy-voter":
        row["mean_rounds"] = result.mean_or("rounds_converged")
        row["all_correct_rate"] = result.rate("converged")
    elif protocol == "direct-source-reference":
        row["mean_rounds"] = result.mean_or("rounds_to_all_correct")
        row["all_correct_rate"] = result.rate("all_correct")
    else:
        # Schedule-fixed protocols: the round count is deterministic and the
        # all-correct state is exactly the end-state success.
        row["mean_rounds"] = result.mean("rounds")
        row["all_correct_rate"] = result.rate("success")
    report.add_row(**row)


def run(
    n: int = 2000,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    trials: int = 4,
    voter_rounds: int = 600,
    base_seed: int = 707,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E7 protocol comparison and return its report.

    ``config`` carries the execution strategy.  ``batch=True`` simulates all
    trials of each (epsilon, protocol) cell at once via
    :func:`repro.exec.batching.run_broadcast_batch` (the paper's protocol)
    and :func:`repro.exec.batching.run_baseline_batch` (the Section 1.6
    comparators); serially every row runs the same rule once per trial at
    ``R = 1``.  The cells are tasks on the run's execution backend;
    results are assembled in row order so they are identical on every
    backend.

    ``mean_rounds`` follows the never-converged convention of the module
    docstring: budget-exhausted trials are excluded and reported through the
    ``all_correct_rate`` column instead.
    """
    from ..exec import pool

    plan = resolve_run_options("E7", config=config)
    batch = plan.batch
    trials = plan.trials if plan.trials is not None else trials
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed

    report = ExperimentReport(
        experiment_id=plan.spec.experiment_id,
        title=plan.spec.title,
        claim=plan.spec.claim,
        config={
            "n": n,
            "epsilons": list(epsilons),
            "trials": trials,
            "voter_rounds": voter_rounds,
            "batch": batch,
        },
    )

    tasks: List[Tuple[float, str, Callable[..., Any], Dict[str, Any]]] = [
        (epsilon, protocol, fn, kwargs)
        for epsilon in epsilons
        for protocol, fn, kwargs in _tasks(n, epsilon, trials, voter_rounds, base_seed, batch)
    ]

    results = pool.run_point_tasks([(fn, kwargs) for _, _, fn, kwargs in tasks])

    for (epsilon, protocol, _, _), result in zip(tasks, results):
        _add_protocol_row(report, protocol, epsilon, result)
        if protocol == PROTOCOL_ORDER[-1]:
            depth = expected_relay_depth(n)
            report.add_note(
                f"eps={epsilon}: Section 1.6 predicts immediate forwarding delivers first messages over "
                f"~{depth:.1f}-hop chains, i.e. correct with probability ~{hop_correct_probability(epsilon, int(depth)):.4f}"
            )

    report.add_note(
        "mean_rounds averages converged trials only (NaN when none converged; see the module "
        "docstring); the noisy-voter dynamics do not converge under noise, so their budget "
        "exhaustion shows up as all_correct_rate=0 rather than a fake round count "
        "(physics baselines of Section 1.2 are expected to need at least polynomial time even without noise)."
    )
    return report
