"""Vectorised batch execution of the noisy-broadcast and majority protocols.

A serial trial runs one population and pays the Python-level round loop
for every round of every trial.  Since all trials of one sweep point share
``(n, epsilon, parameters)`` — and the protocol's round schedule is a
deterministic function of those — ``R`` replicates can instead be simulated
*simultaneously* as ``(R, n)`` NumPy grids: one
:meth:`~repro.substrate.network.PushGossipNetwork.deliver_batch` call per
protocol phase (``rounds=L``) delivers every round of the phase for all
``R`` replicates.

Three protocol shapes are covered:

* :func:`run_broadcast_batch` — Theorem 2.17's two-stage broadcast
  (mirroring :func:`repro.core.broadcast.solve_noisy_broadcast`), also
  under E12's fault models;
* :func:`run_majority_batch` — Corollary 2.18's majority-consensus variant
  (:func:`repro.core.majority.solve_noisy_majority_consensus` is one run of
  it at ``R = 1``): a random initially-opinionated set per replicate,
  Stage I entered at the corollary's start phase ``i_A``, then Stage-II
  boosting;
* :func:`run_baseline_batch` — the Section 1.6 / Section 1.4 comparator
  family experiments E7 and E11 argue *against*, dispatched by protocol
  name: immediate forwarding
  (:class:`~repro.protocols.naive_forward.ImmediateForwardingBroadcast`),
  the noisy voter dynamics (:class:`~repro.protocols.noisy_voter.NoisyVoterBroadcast`),
  the idealised direct-from-source reference
  (:class:`~repro.protocols.direct_source.DirectSourceReference`) and the
  listen-only silent-wait strategy
  (:class:`~repro.protocols.silent_wait.SilentWaitBroadcast`).  Each class
  holds its options and its only step rule; the options this function
  recognises are the class's dataclass fields.

The Stage-I/Stage-II round loops underneath :func:`run_broadcast_batch` and
:func:`run_majority_batch` live in :mod:`repro.exec.stage_batching` (one
batched transcription of each stage rule, shared with the instrumented
stage-level experiments E4–E6 and the skewed-clock E9 runs).

:func:`run_batch_cell` is the batched counterpart of
:func:`repro.analysis.experiments.run_trials`: it runs every trial of one
named cell as a single batch call and packages one row per replicate as an
:class:`~repro.analysis.experiments.ExperimentResult`.  Every batched sweep
point and every batched experiment cell (E1–E9, E11, E12) goes through it.
:func:`cell_task` builds a cell for either path: one shared grid when
batched, otherwise one :func:`replicate_trial` per trial — the rule at
``R = 1`` under the trial's own seed, so serial and batched trials run the
same code.  Every serial trial of E4–E9, E11 and E12 is such a call; only
E1–E3's serial trials run the serial executors of :mod:`repro.core`.
:func:`run_sweep_batched` dispatches whole sweeps point-by-point onto the
named batch simulator, forwarding *every* recognised point setting
(``correct_opinion``, ``allow_self_messages``, calibration overrides, the
baselines' options, ...) and rejecting unrecognised ones — the same
strictness a serial ``run_sweep`` trial function gets by construction.
Each grid point is one task on the run's execution backend, so a pool
backend composes batch-level vectorisation with point-level parallelism.

Determinism contract
--------------------
* A batch run is fully determined by ``(n, epsilon, num_replicates,
  base_seed, parameters)`` (plus the instance settings for the majority
  shape): two identical calls return identical arrays.  A batched cell
  named ``name`` seeds its batch with ``derive_seed(base_seed, name,
  "batch")`` and records replicate ``i`` under ``trial_seed(base_seed,
  name, i)``; both rules live in :func:`run_batch_cell` only.  Pooled
  sweeps preserve this bit-for-bit: cell names and seeds are fixed in the
  parent before dispatch and results are assembled in point order.
* A serial trial of a cell is its rule at ``R = 1`` with the trial's seed
  as the batch's base seed (:func:`replicate_trial`), so it replays by
  itself; ``--batch`` trades that per-trial replayability for a large
  constant-factor speedup while keeping batch-level reproducibility.  A
  replicate of a batch is statistically equivalent to a serial trial — same
  rule, same schedule, same distributions — but not bit-identical to one,
  because the whole batch consumes one random stream.
* The serial broadcast of E1–E3
  (:func:`repro.core.broadcast.solve_noisy_broadcast`) is the one protocol
  with a second, one-population implementation; :func:`run_broadcast_batch`
  is statistically equivalent to it, with exactly equal round counts.

The differential tests in ``tests/unit/exec/test_batching.py`` and
``tests/unit/exec/test_stage_batching.py`` pin that last equivalence:
exact equality where the schedule is deterministic, distributional agreement
for the stochastic observables.  The serial distributions the other rules
replaced are recorded as oracles in
``tests/unit/exec/test_comparator_distribution.py`` and
``tests/unit/exec/test_stage_kernel_distribution.py``.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Type

import numpy as np

from ..core.majority import compute_start_phase
from ..core.opinions import bias_from_counts, counts_from_bias, validate_opinion
from ..core.parameters import ProtocolParameters
from ..errors import ExperimentError
from ..protocols.base import BaselineProtocol, BatchBaselineResult
from ..protocols.direct_source import DirectSourceReference
from ..protocols.naive_forward import ImmediateForwardingBroadcast
from ..protocols.noisy_voter import NoisyVoterBroadcast
from ..protocols.silent_wait import SilentWaitBroadcast
from ..substrate.faults import FaultModel, build_injector
from ..substrate.network import PushGossipNetwork
from ..substrate.noise import BinarySymmetricChannel, NoiseChannel
from ..substrate.rng import derive_seed, spawn_generator
from . import pool
from .runner import trial_seeds
from .stage_batching import (
    _protocol_batch_inputs,
    run_stage1_batch,
    run_stage2_batch,
    seeded_batch_state,
    source_batch_state,
)

__all__ = [
    "BatchBroadcastResult",
    "BatchMajorityResult",
    "BatchBaselineResult",
    "run_broadcast_batch",
    "run_majority_batch",
    "run_baseline_batch",
    "batchable_baselines",
    "run_batch_cell",
    "replicate_trial",
    "cell_task",
    "run_sweep_batched",
    "run_broadcast_sweep_batched",
]


@dataclass(frozen=True)
class BatchBroadcastResult:
    """Per-replicate outcomes of a batched noisy-broadcast run.

    Success is crash-aware: it asks whether every *surviving* (non-crashed)
    agent finished holding ``B``.  Without a crash-capable fault model every
    agent survives, so ``success`` is "every agent holds ``B``" and
    ``surviving_correct_fraction`` equals ``final_correct_fraction``.

    Attributes
    ----------
    n, epsilon, correct_opinion:
        The shared instance parameters.
    rounds:
        Round count — identical for every replicate because the paper's
        two-stage schedule is fixed by ``(n, epsilon)`` (faults do not
        change it); exactly equals the serial
        :class:`~repro.core.broadcast.BroadcastResult.rounds`.
    success:
        ``(R,)`` boolean vector: did every surviving agent finish holding
        ``B``?
    surviving_correct_fraction:
        ``(R,)`` fraction of surviving agents holding ``B`` at the end.
    final_correct_fraction:
        ``(R,)`` fraction of *all* agents holding ``B`` at the end.
    crashed:
        ``(R,)`` number of crashed agents per replicate.
    messages_sent:
        ``(R,)`` total messages pushed, per replicate.
    stage1_bias:
        ``(R,)`` population bias towards ``B`` at the end of Stage I (the
        paper's ``delta_1``).
    """

    n: int
    epsilon: float
    correct_opinion: int
    rounds: int
    success: np.ndarray
    surviving_correct_fraction: np.ndarray
    final_correct_fraction: np.ndarray
    crashed: np.ndarray
    messages_sent: np.ndarray
    stage1_bias: np.ndarray

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R`` in the batch."""
        return int(self.success.size)

    def measurements(self, index: int) -> Dict[str, Any]:
        """Replicate ``index`` as a trial-measurement mapping.

        The keys form a superset of what the broadcast-shaped experiment
        drivers (E1–E3, and the paper-protocol series of E7 and E12, which
        spell the surviving fraction ``fraction``) record serially, so
        batched and serial sweeps produce interchangeable
        :class:`~repro.analysis.experiments.ExperimentResult` tables.
        """
        surviving = float(self.surviving_correct_fraction[index])
        return {
            "rounds": int(self.rounds),
            "messages": int(self.messages_sent[index]),
            "messages_per_agent": float(self.messages_sent[index] / self.n),
            "success": bool(self.success[index]),
            "fraction": surviving,
            "surviving_fraction": surviving,
            "final_correct_fraction": float(self.final_correct_fraction[index]),
            "crashed": int(self.crashed[index]),
            "stage1_bias": float(self.stage1_bias[index]),
        }


@dataclass(frozen=True)
class BatchMajorityResult:
    """Per-replicate outcomes of a batched majority-consensus run.

    Attributes
    ----------
    n, epsilon, majority_opinion:
        The shared instance parameters (``majority_opinion`` is the
        ground-truth majority opinion ``B``).
    initial_set_size, initial_bias:
        Size of the initially opinionated set ``A`` and the realised
        majority-bias of its opinion assignment (identical for every
        replicate: :func:`~repro.core.opinions.counts_from_bias` makes the
        correct/wrong split deterministic).
    start_phase:
        Corollary 2.18's ``i_A`` — the Stage-I phase the protocol starts
        from; identical for every replicate because it depends only on the
        shared ``(parameters, |A|)``.
    rounds:
        Round count — identical for every replicate because the schedule is
        fixed by ``(parameters, start_phase)``; exactly equals the serial
        :class:`~repro.core.majority.MajorityConsensusResult.rounds`.
    success:
        ``(R,)`` boolean vector: did every agent finish holding ``B``?
    final_correct_fraction:
        ``(R,)`` fraction of agents holding ``B`` at the end.
    messages_sent:
        ``(R,)`` total messages pushed, per replicate.
    stage1_bias:
        ``(R,)`` population bias towards ``B`` at the end of Stage I.
    """

    n: int
    epsilon: float
    majority_opinion: int
    initial_set_size: int
    initial_bias: float
    start_phase: int
    rounds: int
    success: np.ndarray
    final_correct_fraction: np.ndarray
    messages_sent: np.ndarray
    stage1_bias: np.ndarray

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R`` in the batch."""
        return int(self.success.size)

    def measurements(self, index: int) -> Dict[str, Any]:
        """Replicate ``index`` as a trial-measurement mapping.

        The keys form a superset of what the serial E8 driver records
        (``success``, ``final_fraction``, ``rounds``), so batched and serial
        majority sweeps produce interchangeable
        :class:`~repro.analysis.experiments.ExperimentResult` tables.
        """
        final_fraction = float(self.final_correct_fraction[index])
        return {
            "rounds": int(self.rounds),
            "messages": int(self.messages_sent[index]),
            "messages_per_agent": float(self.messages_sent[index] / self.n),
            "success": bool(self.success[index]),
            "final_fraction": final_fraction,
            "final_correct_fraction": final_fraction,
            "stage1_bias": float(self.stage1_bias[index]),
            "start_phase": int(self.start_phase),
        }


# ----------------------------------------------------------------------
# The two batched protocol entry points
# ----------------------------------------------------------------------
#
# The (R, n) stage round loops themselves live in
# :mod:`repro.exec.stage_batching` (run_stage1_batch / run_stage2_batch):
# one batched transcription of each stage rule, shared between these
# protocol-level simulators and the instrumented stage-level experiments
# (E4-E6, E9).  The kernels consume the batch stream in exactly the order
# the loops formerly inlined here did, so results for a fixed base seed are
# unchanged.


def run_broadcast_batch(
    n: int,
    epsilon: float,
    num_replicates: int,
    base_seed: int = 0,
    correct_opinion: int = 1,
    parameters: Optional[ProtocolParameters] = None,
    channel: Optional[NoiseChannel] = None,
    allow_self_messages: bool = False,
    model: Optional[FaultModel] = None,
    **calibration_overrides: float,
) -> BatchBroadcastResult:
    """Simulate ``num_replicates`` independent noisy-broadcast runs at once.

    This is the batched counterpart of
    :func:`repro.core.broadcast.solve_noisy_broadcast`: the same two-stage
    "breathe before speaking" protocol (Stage I spreading in synchronized
    layers, Stage II majority boosting), executed for all replicates
    simultaneously on ``(R, n)`` grids.

    Parameters
    ----------
    n, epsilon:
        Instance size and noise margin, shared by every replicate.
    num_replicates:
        Number of independent replicates ``R``.
    base_seed:
        Root seed of the batch stream; fixing it makes the whole batch
        reproducible.
    correct_opinion:
        The source's opinion ``B``.
    parameters:
        Optional explicit :class:`ProtocolParameters`; the calibrated preset
        is used when omitted (``calibration_overrides`` are forwarded).
    channel:
        Override the default :class:`BinarySymmetricChannel`.
    allow_self_messages:
        Allow agents to push messages to themselves.
    model:
        Optional :data:`~repro.substrate.faults.FaultModel` (experiment
        E12).  Its decisions draw from a separately spawned
        ``"batch-faults"`` stream, so ``None`` and
        :class:`~repro.substrate.faults.NoFaults` give bit-identical
        results.
    """
    correct_opinion, parameters, channel = _protocol_batch_inputs(
        n, epsilon, num_replicates, correct_opinion, parameters, channel, calibration_overrides
    )

    rng = spawn_generator(base_seed, "batch-broadcast", n)
    injector = build_injector(
        model, n, spawn_generator(base_seed, "batch-faults", n), num_replicates=num_replicates
    )
    network = PushGossipNetwork(size=n, allow_self_messages=allow_self_messages)

    # Replicate state: opinion grid and activation grid, agent 0 the source.
    state = source_batch_state(n, num_replicates, correct_opinion)
    stage1 = run_stage1_batch(
        state, network, channel, rng, parameters.stage1, correct_opinion, faults=injector
    )
    run_stage2_batch(
        state, network, channel, rng, parameters.stage2, correct_opinion, faults=injector
    )

    correct = state.opinions == correct_opinion
    if injector is None:
        alive = np.ones_like(correct)
        crashed = np.zeros(num_replicates, dtype=np.int64)
    else:
        alive = injector.alive_mask()
        crashed = injector.num_crashed()
    alive_counts = alive.sum(axis=1)
    surviving_correct = (correct & alive).sum(axis=1)
    return BatchBroadcastResult(
        n=n,
        epsilon=float(epsilon),
        correct_opinion=int(correct_opinion),
        rounds=state.rounds,
        success=surviving_correct == alive_counts,
        surviving_correct_fraction=np.where(
            alive_counts > 0, surviving_correct / np.maximum(alive_counts, 1), 0.0
        ),
        final_correct_fraction=correct.sum(axis=1) / n,
        crashed=crashed,
        messages_sent=state.messages_sent,
        stage1_bias=stage1.final_bias,
    )


def run_majority_batch(
    n: int,
    epsilon: float,
    num_replicates: int,
    initial_set_size: int,
    majority_bias: float,
    base_seed: int = 0,
    majority_opinion: int = 1,
    parameters: Optional[ProtocolParameters] = None,
    channel: Optional[NoiseChannel] = None,
    allow_self_messages: bool = False,
    start_phase: Optional[int] = None,
    **calibration_overrides: float,
) -> BatchMajorityResult:
    """Simulate ``num_replicates`` independent majority-consensus runs at once.

    :func:`repro.core.majority.solve_noisy_majority_consensus` is this
    function at ``num_replicates=1``.  Every replicate gets its own
    uniformly random initially opinionated set ``A`` (size
    ``initial_set_size``, majority-bias ``majority_bias`` towards
    ``majority_opinion``), the protocol enters Stage I at Corollary 2.18's
    start phase ``i_A`` (so the seeded set plays the role of "the agents
    activated before phase ``i_A``"), and Stage II boosts as usual — all on
    ``(R, n)`` grids.

    Parameters
    ----------
    n, epsilon:
        Instance size and noise margin, shared by every replicate.
    num_replicates:
        Number of independent replicates ``R``.
    initial_set_size, majority_bias, majority_opinion:
        The initial opinionated set ``A``: its size and its majority-bias
        towards ``majority_opinion``.  The correct/wrong split is the
        deterministic :func:`~repro.core.opinions.counts_from_bias` split;
        the membership of ``A`` is drawn independently per replicate.
    base_seed:
        Root seed of the batch stream.
    parameters:
        Optional explicit :class:`ProtocolParameters`; the calibrated preset
        is used when omitted (``calibration_overrides`` are forwarded).
    channel:
        Override the default :class:`BinarySymmetricChannel`.
    allow_self_messages:
        Allow agents to push messages to themselves.
    start_phase:
        Override Corollary 2.18's computed start phase; it must be a phase
        of Stage I.
    """
    majority_opinion, parameters, channel = _protocol_batch_inputs(
        n, epsilon, num_replicates, majority_opinion, parameters, channel, calibration_overrides
    )

    rng = spawn_generator(base_seed, "batch-majority", n)
    network = PushGossipNetwork(size=n, allow_self_messages=allow_self_messages)

    # Instance generation: one independent random instance per replicate.
    state = seeded_batch_state(
        n, num_replicates, initial_set_size, majority_bias, majority_opinion, rng
    )
    correct_count, wrong_count = counts_from_bias(initial_set_size, majority_bias)

    resolved_start_phase = (
        start_phase
        if start_phase is not None
        else compute_start_phase(parameters, initial_set_size)
    )

    stage1 = run_stage1_batch(
        state,
        network,
        channel,
        rng,
        parameters.stage1,
        majority_opinion,
        start_phase=resolved_start_phase,
    )
    run_stage2_batch(state, network, channel, rng, parameters.stage2, majority_opinion)

    correct_final = (state.opinions == majority_opinion).sum(axis=1)
    return BatchMajorityResult(
        n=n,
        epsilon=float(epsilon),
        majority_opinion=int(majority_opinion),
        initial_set_size=int(initial_set_size),
        initial_bias=bias_from_counts(correct_count, wrong_count),
        start_phase=int(resolved_start_phase),
        rounds=state.rounds,
        success=correct_final == n,
        final_correct_fraction=correct_final / n,
        messages_sent=state.messages_sent,
        stage1_bias=stage1.final_bias,
    )


# ----------------------------------------------------------------------
# The E7 / E11 baseline family (rules live in repro.protocols)
# ----------------------------------------------------------------------

#: The baseline protocols, keyed by their ``name``.
_BASELINES: Dict[str, Type[BaselineProtocol]] = {
    protocol.name: protocol
    for protocol in (
        DirectSourceReference,
        ImmediateForwardingBroadcast,
        NoisyVoterBroadcast,
        SilentWaitBroadcast,
    )
}


def _baseline_options(protocol: Type[BaselineProtocol]) -> frozenset:
    """The options a baseline recognises: its dataclass fields."""
    return frozenset(option.name for option in fields(protocol))


def batchable_baselines() -> List[str]:
    """Sorted names of the baseline protocols :func:`run_baseline_batch` runs."""
    return sorted(_BASELINES)


def run_baseline_batch(
    protocol: str,
    n: int,
    epsilon: float,
    num_replicates: int,
    base_seed: int = 0,
    correct_opinion: int = 1,
    channel: Optional[NoiseChannel] = None,
    allow_self_messages: bool = False,
    **options: Any,
) -> BatchBaselineResult:
    """Simulate ``num_replicates`` independent runs of a baseline protocol at once.

    The protocol is looked up by its class's ``name``, built from
    ``options`` (which validates them) and advanced for all replicates
    simultaneously by its step rule,
    :meth:`~repro.protocols.base.BaselineProtocol.simulate`.  A serial trial
    is this call at ``num_replicates=1`` under the trial's own seed
    (:func:`replicate_trial`).

    Parameters
    ----------
    protocol:
        Name of the baseline; one of :func:`batchable_baselines`.
    n, epsilon:
        Instance size and noise margin, shared by every replicate.
    num_replicates:
        Number of independent replicates ``R``.
    base_seed:
        Root seed of the batch stream.
    correct_opinion:
        The source's (correct) opinion ``B``.
    channel:
        Override the default :class:`BinarySymmetricChannel`.
    allow_self_messages:
        Allow agents to push messages to themselves.
    options:
        The protocol's dataclass fields (``max_rounds``/``keep_first_opinion``
        for immediate forwarding, ``max_rounds``/``check_every`` for the
        noisy voter, ``rounds`` for the direct-source reference,
        ``threshold``/``max_rounds`` for silent wait).  ``None`` values mean
        "use the protocol's default"; other names raise
        :class:`~repro.errors.ExperimentError`.
    """
    if num_replicates < 1:
        raise ExperimentError("num_replicates must be at least 1")
    correct_opinion = validate_opinion(correct_opinion)
    try:
        protocol_class = _BASELINES[protocol]
    except KeyError:
        raise ExperimentError(
            f"unknown baseline {protocol!r}; batchable baselines are "
            + ", ".join(batchable_baselines())
        ) from None

    settings = {key: value for key, value in options.items() if value is not None}
    recognised_options = _baseline_options(protocol_class)
    unrecognised = sorted(set(settings) - recognised_options)
    if unrecognised:
        raise ExperimentError(
            f"batched baseline {protocol!r} has unrecognised option(s) {unrecognised}; "
            f"recognised options are {sorted(recognised_options)}"
        )
    rule = protocol_class(**settings)
    if channel is None:
        channel = BinarySymmetricChannel(epsilon=epsilon)

    rng = spawn_generator(base_seed, "batch-baseline", protocol, n)
    network = PushGossipNetwork(size=n, allow_self_messages=allow_self_messages)
    return rule.simulate(
        n=n,
        num_replicates=num_replicates,
        network=network,
        channel=channel,
        rng=rng,
        correct_opinion=correct_opinion,
    )


def run_batch_cell(
    name: str,
    batch_fn: Callable[..., Any],
    num_trials: int,
    base_seed: int = 0,
    config: Optional[Mapping[str, Any]] = None,
    measure: Optional[Callable[[Any], Sequence[Mapping[str, Any]]]] = None,
    **settings: Any,
) -> "Any":
    """Run every trial of the cell ``name`` as one batch; the batched
    counterpart of :func:`repro.analysis.experiments.run_trials`.

    Calls ``batch_fn(num_replicates=num_trials, base_seed=..., **settings)``
    once and packages one row per replicate as an
    :class:`~repro.analysis.experiments.ExperimentResult`.  The two seed
    rules that keep a batched run replayable live here and nowhere else:

    * the batch stream is seeded with ``derive_seed(base_seed, name, "batch")``;
    * replicate ``i`` is recorded under ``trial_seed(base_seed, name, i)``,
      the seed serial trial ``i`` of ``name`` runs with.  (It identifies the
      trial; the randomness comes from the batch stream.)

    The rows are ``measure(batch)`` when ``measure`` is given (for an
    experiment whose measurement keys differ from the simulator's), otherwise
    ``batch.measurements(i)`` for every replicate.
    """
    from ..analysis.experiments import ExperimentResult

    batch = batch_fn(
        num_replicates=num_trials, base_seed=derive_seed(base_seed, name, "batch"), **settings
    )
    if measure is not None:
        rows = measure(batch)
    else:
        rows = [batch.measurements(index) for index in range(num_trials)]
    seeds = trial_seeds(base_seed, name, num_trials)
    return ExperimentResult.from_trials(name, config, seeds, rows)


def replicate_trial(
    seed: int,
    _index: int,
    batch_fn: Callable[..., Any],
    measure: Optional[Callable[[Any], Sequence[Mapping[str, Any]]]] = None,
    **settings: Any,
) -> Dict[str, Any]:
    """One serial trial: ``batch_fn``'s rule at ``R = 1`` under the trial's seed.

    The row is ``measure(batch)[0]`` when ``measure`` is given, otherwise
    ``batch.measurements(0)``, as in :func:`run_batch_cell`.  Module-level,
    so a ``functools.partial`` of it is a picklable ``run_trials`` trial
    function, and the trial replays by itself from its seed.
    """
    batch = batch_fn(num_replicates=1, base_seed=seed, **settings)
    return measure(batch)[0] if measure is not None else batch.measurements(0)


def cell_task(
    name: str,
    batch_fn: Callable[..., Any],
    num_trials: int,
    base_seed: int,
    batch: bool,
    measure: Optional[Callable[[Any], Sequence[Mapping[str, Any]]]] = None,
    **settings: Any,
) -> Tuple[Callable[..., Any], Dict[str, Any]]:
    """The ``(fn, kwargs)`` task that runs every trial of cell ``name``.

    With ``batch`` the trials share one grid (:func:`run_batch_cell`);
    otherwise each trial is ``batch_fn`` at ``R = 1`` under its own trial
    seed (:func:`replicate_trial` under
    :func:`~repro.analysis.experiments.run_trials`).  Either way the rule is
    ``batch_fn``'s, and the rows are ``measure``'s, or ``batch_fn``'s
    measurement keys without one.
    """
    if batch:
        return run_batch_cell, {
            "name": name,
            "batch_fn": batch_fn,
            "num_trials": num_trials,
            "base_seed": base_seed,
            "measure": measure,
            **settings,
        }
    from ..analysis.experiments import run_trials

    return run_trials, {
        "name": name,
        "trial_fn": functools.partial(
            replicate_trial, batch_fn=batch_fn, measure=measure, **settings
        ),
        "num_trials": num_trials,
        "base_seed": base_seed,
    }


# ----------------------------------------------------------------------
# Sweep dispatch: full settings forwarding plus point-level parallelism
# ----------------------------------------------------------------------

#: Calibration overrides forwarded to ProtocolParameters.calibrated, derived
#: from its signature so the two can never drift apart.
_CALIBRATION_SETTINGS = frozenset(
    parameter_name
    for parameter_name, parameter in inspect.signature(
        ProtocolParameters.calibrated
    ).parameters.items()
    if parameter.kind is inspect.Parameter.KEYWORD_ONLY
)

#: The point settings each sweepable simulator requires and the further ones
#: it understands.  The baseline simulator's entry is the union of every
#: per-protocol option; run_baseline_batch enforces the exact subsets.  E8
#: builds its majority cells with :func:`cell_task` instead.
_SWEEP_SETTINGS: Dict[Callable[..., Any], Tuple[Tuple[str, ...], frozenset]] = {
    run_broadcast_batch: (
        ("n", "epsilon"),
        frozenset({"correct_opinion", "allow_self_messages"}) | _CALIBRATION_SETTINGS,
    ),
    run_baseline_batch: (
        ("n", "epsilon", "protocol"),
        frozenset({"correct_opinion", "allow_self_messages"}).union(
            *(_baseline_options(protocol) for protocol in _BASELINES.values())
        ),
    ),
}

def _resolve_batch_task(
    point_name: str,
    point: Any,
    settings: Dict[str, Any],
    batch_fn: Callable[..., Any],
    trials_per_point: int,
    base_seed: int,
) -> Tuple[Callable[..., Any], Dict[str, Any]]:
    """Map one grid point's merged settings onto a :func:`run_batch_cell` task.

    Checks required settings and rejects anything unrecognised, so that a
    typo'd or unsupported setting fails loudly instead of being silently
    dropped (the regression the serial path never had).
    """
    required, optional = _SWEEP_SETTINGS[batch_fn]
    missing = [key for key in required if key not in settings]
    if missing:
        raise ExperimentError(
            f"batched sweep point {point_name} must define {', '.join(missing)} "
            f"for {batch_fn.__name__}"
        )
    recognised = optional.union(required)
    unrecognised = sorted(set(settings) - recognised)
    if unrecognised:
        raise ExperimentError(
            f"batched sweep point {point_name} has unrecognised setting(s) {unrecognised} "
            f"for {batch_fn.__name__}; recognised settings are {sorted(recognised)}"
        )

    # Coerce the numeric settings, so values a serial sweep accepts — a float
    # grid axis, a numpy integer — work identically batched.
    kwargs = dict(settings)
    kwargs["n"] = int(kwargs["n"])
    kwargs["epsilon"] = float(kwargs["epsilon"])
    for round_setting in ("max_rounds", "check_every", "rounds", "threshold"):
        if kwargs.get(round_setting) is not None:
            kwargs[round_setting] = int(kwargs[round_setting])
    return run_batch_cell, {
        "name": point_name,
        "batch_fn": batch_fn,
        "num_trials": trials_per_point,
        "base_seed": base_seed,
        "config": point.as_dict(),
        **kwargs,
    }


def run_sweep_batched(
    name: str,
    points: Iterable[Mapping[str, Any]],
    batch_fn: Callable[..., Any],
    trials_per_point: int,
    base_seed: int = 0,
    defaults: Optional[Mapping[str, Any]] = None,
) -> "Any":
    """Batched counterpart of :func:`repro.analysis.sweeps.run_sweep`.

    Every grid point (merged over ``defaults``) is one :func:`run_batch_cell`
    call of ``batch_fn`` — :func:`run_broadcast_batch` or
    :func:`run_baseline_batch` — with *all* its settings forwarded; a missing
    required or an unrecognised setting raises
    :class:`~repro.errors.ExperimentError`, and so does any other
    ``batch_fn``.  Point naming and
    per-point seeding mirror ``run_sweep`` (including the duplicate-label
    disambiguation of :func:`repro.analysis.sweeps.sweep_point_names`) so
    batched sweeps feed the existing reports unchanged.

    ``name``, ``points``, ``trials_per_point`` and ``base_seed`` are as in
    :func:`repro.analysis.sweeps.run_sweep`; ``defaults`` supplies settings
    shared by every point, with per-point settings winning.

    Each point is one task on the active execution backend; point names and
    seeds are fixed before dispatch and results are assembled in point
    order, so the sweep is bit-identical on every backend.
    """
    from ..analysis.sweeps import SweepPoint, SweepResult, sweep_point_names

    if batch_fn not in _SWEEP_SETTINGS:
        raise ExperimentError(
            f"run_sweep_batched cannot dispatch {batch_fn!r}; the sweepable simulators are "
            + ", ".join(simulator.__name__ for simulator in _SWEEP_SETTINGS)
        )
    if trials_per_point < 1:
        raise ExperimentError("trials_per_point must be at least 1")

    sweep_points = [SweepPoint.from_mapping(raw_point) for raw_point in points]
    point_names = sweep_point_names(name, sweep_points)
    tasks = [
        _resolve_batch_task(
            point_name,
            point,
            {**(defaults or {}), **point.as_dict()},
            batch_fn,
            trials_per_point,
            base_seed,
        )
        for point, point_name in zip(sweep_points, point_names)
    ]
    return SweepResult(name=name, points=sweep_points, results=pool.run_point_tasks(tasks))


def run_broadcast_sweep_batched(
    name: str,
    points: Iterable[Mapping[str, Any]],
    trials_per_point: int,
    base_seed: int = 0,
    defaults: Optional[Mapping[str, Any]] = None,
) -> "Any":
    """Broadcast-shaped convenience wrapper around :func:`run_sweep_batched`.

    Kept as the stable entry point of the broadcast-shaped drivers (E1–E3);
    every point/default setting is forwarded to :func:`run_broadcast_batch`
    (``correct_opinion``, ``allow_self_messages``, calibration overrides)
    and unrecognised settings raise :class:`~repro.errors.ExperimentError`.
    """
    return run_sweep_batched(
        name=name,
        points=points,
        batch_fn=run_broadcast_batch,
        trials_per_point=trials_per_point,
        base_seed=base_seed,
        defaults=defaults,
    )
