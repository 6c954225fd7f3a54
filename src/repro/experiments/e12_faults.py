"""Experiment E12 — fault injection: the paper's protocol versus an
``AlgorithmTwo``-style fault-tolerant comparator.

The paper's model has unreliable *channels* but perfectly reliable *agents*.
E12 asks what happens when the agents themselves misbehave: a fraction ``f``
of the population is fault-prone — crash-stop (each prone agent dies
independently per round) or Byzantine senders (prone agents transmit random
bits) — and we sweep the success rate of the two-stage protocol against
``f``.  As a yardstick the sweep also runs the classic phased
approximate-consensus algorithm
(:class:`~repro.protocols.fault_tolerant.PhasedApproximateConsensus`), which
is *designed* to tolerate ``f`` faulty servers: the contrast between an
algorithm with an explicit fault budget and one without is the point of the
experiment.

Fault-model conventions
-----------------------
* The source (agent 0) is immune for the paper's protocol — a crashed or
  Byzantine source makes broadcast vacuously unsolvable, which measures
  nothing.  The comparator has no distinguished agent, so its fault-prone
  set is drawn over everyone.
* ``fault_fraction = 0`` means *no injector at all* (``model=None``), so the
  zero column of the sweep is bit-identical to the pre-fault code path —
  the same ``FaultModel.NONE`` contract pinned over E1–E11 by
  ``tests/unit/test_fault_none_regression.py``.
* Success for the paper's protocol under crash faults counts *surviving*
  agents only (a dead agent has no opinion to be wrong about); the
  all-agents fraction is still reported for comparability with E1.

Each protocol has one rule: the paper's protocol is
:func:`repro.exec.batching.run_broadcast_batch` with ``model=``, the
comparator :func:`repro.protocols.fault_tolerant.run_consensus_comparator_batch`.
A serial trial runs the rule at ``R = 1`` under the trial's own seed, a
batched cell over one shared grid.

The comparator column cannot fail under crash faults.  Only the ``f``
fault-prone servers can crash, so every phase still hears at least
``n - f`` values, never stalls, and every correct survivor averages the
same set: each trial ends with spread 0, agreement 1 and success 1.  The
crash rows therefore compare the paper's protocol against a yardstick that
always succeeds; only the Byzantine rows can separate the two.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.experiments import ExperimentResult
from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..errors import ExperimentError
from ..protocols.fault_tolerant import declared_fault_tolerance, run_consensus_comparator_batch
from ..substrate.faults import ByzantineSenders, CrashStop, FaultModel
from .report import ExperimentReport

__all__ = ["run", "paper_fault_model", "comparator_fault_model"]

DEFAULT_FRACTIONS: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3)

#: Report/row order of the compared protocols (the paper's protocol first).
PROTOCOL_ORDER: Sequence[str] = (
    "breathe-before-speaking",
    "phased-approximate-consensus",
)

#: Fault kinds the driver understands (CLI ``--set fault_kind=...`` values).
FAULT_KINDS: Sequence[str] = ("crash", "byzantine")

#: Consensus comparator value range ``K`` (success means spread <= eps).
INITIAL_RANGE: float = 1.0


def paper_fault_model(
    fault_kind: str, fraction: float, crash_probability: float
) -> Optional[FaultModel]:
    """The fault model injected into the paper's protocol at ``fraction``.

    Agent 0 (the source) is immune — see the module docstring.  A zero
    fraction returns ``None`` so the sweep's baseline column runs the
    pristine code path.
    """
    if fault_kind not in FAULT_KINDS:
        raise ExperimentError(
            f"unknown fault_kind {fault_kind!r}; choose one of {', '.join(FAULT_KINDS)}"
        )
    if fraction < 0 or fraction > 1:
        raise ExperimentError(f"fault fraction must be in [0, 1], got {fraction}")
    if fraction == 0:
        return None
    if fault_kind == "crash":
        return CrashStop(fraction=fraction, crash_probability=crash_probability, immune=(0,))
    return ByzantineSenders(fraction=fraction, immune=(0,))


def comparator_fault_model(
    fault_kind: str, fraction: float, crash_probability: float
) -> Optional[FaultModel]:
    """The fault model for the consensus comparator (no immune agents)."""
    model = paper_fault_model(fault_kind, fraction, crash_probability)
    if model is None:
        return None
    if isinstance(model, CrashStop):
        return CrashStop(fraction=fraction, crash_probability=crash_probability)
    return ByzantineSenders(fraction=fraction)


def _task_name(protocol: str, fraction: float) -> str:
    """The cell name of one (protocol, fraction) cell."""
    return f"E12-{protocol}-f={fraction}"


def _tasks(
    n: int,
    epsilon: float,
    fraction: float,
    fault_kind: str,
    crash_probability: float,
    consensus_eps: float,
    trials: int,
    base_seed: int,
    batch: bool,
) -> List[Tuple[str, Callable[..., Any], Dict[str, Any]]]:
    """The per-protocol tasks of one fraction, in row order.

    Both protocols run their rule through
    :func:`~repro.exec.batching.cell_task`: one shared grid when ``batch``,
    otherwise the rule at ``R = 1`` per trial seed.  The paper's protocol
    reports ``success``/``fraction`` over surviving (non-crashed) agents and
    keeps the all-agents notion of E1 as ``final_correct_fraction``.
    """
    from ..exec.batching import cell_task, run_broadcast_batch

    paper = PROTOCOL_ORDER[0]
    paper_task = cell_task(
        _task_name(paper, fraction),
        run_broadcast_batch,
        trials,
        base_seed,
        batch,
        n=n,
        epsilon=epsilon,
        model=paper_fault_model(fault_kind, fraction, crash_probability),
    )
    comparator = PROTOCOL_ORDER[1]
    comparator_task = cell_task(
        _task_name(comparator, fraction),
        run_consensus_comparator_batch,
        trials,
        base_seed,
        batch,
        n=n,
        model=comparator_fault_model(fault_kind, fraction, crash_probability),
        initial_range=INITIAL_RANGE,
        agreement_eps=consensus_eps,
    )
    return [(paper, *paper_task), (comparator, *comparator_task)]


def _add_protocol_row(
    report: ExperimentReport,
    protocol: str,
    fraction: float,
    num_faulty: int,
    result: ExperimentResult,
) -> None:
    """Append one sweep row (the column set is shared across the protocols:
    ``mean_crashed`` applies to the paper's protocol, ``mean_spread`` to the
    comparator; the inapplicable one renders as ``-``)."""
    row: Dict[str, Any] = {
        "protocol": protocol,
        "fault_fraction": fraction,
        "num_faulty": num_faulty,
        "success_rate": result.rate("success"),
        "mean_fraction": result.mean("fraction"),
        "mean_rounds": result.mean("rounds"),
        "mean_crashed": None,
        "mean_spread": None,
    }
    if protocol == "breathe-before-speaking":
        row["mean_crashed"] = result.mean("crashed")
    else:
        row["mean_spread"] = result.mean_or("spread")
    report.add_row(**row)


def run(
    n: int = 600,
    epsilon: float = 0.25,
    fault_fractions: Sequence[float] = DEFAULT_FRACTIONS,
    fault_kind: str = "crash",
    crash_probability: float = 0.05,
    consensus_eps: float = 0.05,
    trials: int = 4,
    base_seed: int = 1212,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E12 fault sweep and return its report.

    Sweeps the fault fraction ``f`` over ``fault_fractions`` with faults of
    ``fault_kind`` (``"crash"`` or ``"byzantine"``) and, at every ``f``, runs
    both the paper's protocol (fault-injected) and the phased
    approximate-consensus comparator (configured to tolerate exactly the
    injected ``f``).  ``batch=True`` simulates all trials of each
    (fraction, protocol) cell at once via
    :func:`repro.exec.batching.run_broadcast_batch` (``model=``) /
    :func:`repro.protocols.fault_tolerant.run_consensus_comparator_batch`;
    serially both run that rule once per trial at ``R = 1``.  The
    cells are tasks on the run's execution backend, results assembled in
    row order.
    """
    from ..exec import pool

    plan = resolve_run_options("E12", config=config)
    batch = plan.batch
    trials = plan.trials if plan.trials is not None else trials
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed

    # Validate every fraction up front so a bad sweep fails before any work.
    for fraction in fault_fractions:
        paper_fault_model(fault_kind, fraction, crash_probability)

    report = ExperimentReport(
        experiment_id=plan.spec.experiment_id,
        title=plan.spec.title,
        claim=plan.spec.claim,
        config={
            "n": n,
            "epsilon": epsilon,
            "fault_fractions": list(fault_fractions),
            "fault_kind": fault_kind,
            "crash_probability": crash_probability,
            "consensus_eps": consensus_eps,
            "trials": trials,
            "batch": batch,
        },
    )

    tasks: List[Tuple[float, str, Callable[..., Any], Dict[str, Any]]] = [
        (fraction, protocol, fn, kwargs)
        for fraction in fault_fractions
        for protocol, fn, kwargs in _tasks(
            n, epsilon, fraction, fault_kind, crash_probability, consensus_eps, trials,
            base_seed, batch,
        )
    ]

    results = pool.run_point_tasks([(fn, kwargs) for _, _, fn, kwargs in tasks])

    for (fraction, protocol, _, _), result in zip(tasks, results):
        if protocol == "breathe-before-speaking":
            model = paper_fault_model(fault_kind, fraction, crash_probability)
        else:
            model = comparator_fault_model(fault_kind, fraction, crash_probability)
        _add_protocol_row(report, protocol, fraction, declared_fault_tolerance(model, n), result)

    report.add_note(
        f"fault_kind={fault_kind}: the paper's protocol has no fault budget (only the source, "
        "agent 0, is shielded), while the comparator's phase budget is recomputed at every f "
        "to tolerate exactly the injected number of faulty servers."
    )
    report.add_note(
        "f=0 rows run with no injector at all and are bit-identical to the pre-fault code "
        "path (the FaultModel.NONE contract); crash-fault success counts surviving agents only."
    )
    return report
