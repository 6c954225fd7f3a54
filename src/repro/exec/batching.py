"""Vectorised batch execution of the noisy-broadcast and majority protocols.

The serial execution path builds one :class:`~repro.substrate.engine.SimulationEngine`
per Monte-Carlo trial and pays Python-level bookkeeping (engine wiring,
metrics, tracing, per-round dataclasses) for every round of every trial.
Since all trials of one sweep point share ``(n, epsilon, parameters)`` — and
the protocol's round schedule is a deterministic function of those — ``R``
replicates can instead be simulated *simultaneously* as ``(R, n)`` NumPy
grids: one :meth:`~repro.substrate.network.PushGossipNetwork.deliver_batch`
call per round replaces ``R`` engine rounds.

Three protocol shapes are covered:

* :func:`run_broadcast_batch` — Theorem 2.17's two-stage broadcast
  (mirroring :func:`repro.core.broadcast.solve_noisy_broadcast`), also
  under E12's fault models;
* :func:`run_majority_batch` — Corollary 2.18's majority-consensus variant
  (mirroring :func:`repro.core.majority.solve_noisy_majority_consensus`):
  a random initially-opinionated set per replicate, Stage I entered at the
  corollary's start phase ``i_A``, then Stage-II boosting;
* :func:`run_baseline_batch` — the Section 1.6 / Section 1.4 comparator
  family experiments E7 and E11 argue *against*, dispatched by registry
  name: immediate forwarding
  (:class:`~repro.protocols.naive_forward.ImmediateForwardingBroadcast`),
  the noisy voter dynamics (:class:`~repro.protocols.noisy_voter.NoisyVoterBroadcast`),
  the idealised direct-from-source reference
  (:class:`~repro.protocols.direct_source.DirectSourceReference`) and the
  listen-only silent-wait strategy
  (:class:`~repro.protocols.silent_wait.SilentWaitBroadcast`), each with
  a vectorised step rule mirroring its serial class round for round.

The Stage-I/Stage-II round loops underneath :func:`run_broadcast_batch` and
:func:`run_majority_batch` live in :mod:`repro.exec.stage_batching` (one
batched transcription of each stage rule, shared with the instrumented
stage-level experiments E4–E6 and the skewed-clock E9 runs).

:func:`run_batch_cell` is the batched counterpart of
:func:`repro.analysis.experiments.run_trials`: it runs every trial of one
named cell as a single batch call and packages one row per replicate as an
:class:`~repro.analysis.experiments.ExperimentResult`.  Every batched sweep
point and every batched experiment cell (E4–E7, E9, E11, E12) goes through it.
:func:`run_sweep_batched` dispatches whole sweeps point-by-point onto the
named batch simulator, forwarding *every* recognised point setting
(``correct_opinion``, ``allow_self_messages``, ``initial_set_size``,
``majority_bias``, calibration overrides, ...) and rejecting unrecognised
ones — the same strictness a serial ``run_sweep`` trial function gets by
construction.  Each grid point is one task on the run's execution backend,
so a pool backend composes batch-level vectorisation with point-level
parallelism.

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
* Per-replicate dynamics are *statistically* equivalent to
  :func:`repro.core.broadcast.solve_noisy_broadcast` /
  :func:`repro.core.majority.solve_noisy_majority_consensus` — same
  protocol, same schedule (the per-replicate round count is exactly equal),
  same distributions — but **not** bit-identical to serial trials, because
  the whole batch consumes one random stream instead of one stream tree per
  engine.  Experiments that must be replayable trial-for-trial (the default)
  run one engine per trial (:func:`repro.analysis.sweeps.run_sweep`); ``--batch``
  trades that per-trial replayability for a large constant-factor speedup
  while keeping batch-level reproducibility.

The differential tests in ``tests/unit/exec/test_batching.py`` pin both
halves of the contract: exact equality where the paper's schedule is
deterministic (round counts), and distributional agreement for the stochastic
observables (success rate, message counts, final bias).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.majority import compute_start_phase
from ..core.opinions import bias_from_counts, counts_from_bias, validate_opinion
from ..core.parameters import ProtocolParameters
from ..errors import ExperimentError
from ..protocols.direct_source import DirectSourceReference
from ..protocols.naive_forward import ImmediateForwardingBroadcast
from ..protocols.noisy_voter import NoisyVoterBroadcast
from ..protocols.silent_wait import SilentWaitBroadcast, default_decision_threshold
from ..substrate.faults import FaultModel, build_injector
from ..substrate.network import PushGossipNetwork
from ..substrate.noise import BinarySymmetricChannel, NoiseChannel
from ..substrate.population import NO_OPINION
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
        correct/wrong split deterministic, exactly as
        :meth:`~repro.core.majority.MajorityInstance.generate` does).
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


@dataclass(frozen=True)
class BatchBaselineResult:
    """Per-replicate outcomes of a batched baseline-protocol run.

    Unlike the paper's protocol — whose round schedule is fixed by
    ``(n, epsilon)`` — the baselines stop per replicate: the noisy voter
    breaks out of its budget when a consensus check passes, and the
    direct-from-source reference records the first round its running
    majority went all-correct.  ``rounds`` is therefore a vector here, and
    ``converged`` separates "stopped by its own rule" from "exhausted the
    round budget" so downstream reports never conflate the two.

    Attributes
    ----------
    protocol:
        Registry name of the baseline (see :func:`batchable_baselines`).
    n, epsilon, correct_opinion:
        The shared instance parameters.
    rounds:
        ``(R,)`` rounds actually executed per replicate (the budget for
        replicates that never met their stopping rule).
    converged:
        ``(R,)`` boolean vector: did the replicate meet the protocol's own
        stopping/convergence rule (as opposed to exhausting its budget)?
        Mirrors :attr:`~repro.protocols.base.ProtocolResult.converged`.
    success:
        ``(R,)`` boolean vector: did every agent finish holding the correct
        opinion?
    final_correct_fraction:
        ``(R,)`` fraction of agents holding the correct opinion at the end.
    messages_sent:
        ``(R,)`` total messages pushed, per replicate.
    extra:
        Protocol-specific per-replicate vectors (e.g. the direct-source
        reference's ``rounds_to_all_correct``, ``NaN`` where never reached),
        mirroring :attr:`~repro.protocols.base.ProtocolResult.extra`.
    """

    protocol: str
    n: int
    epsilon: float
    correct_opinion: int
    rounds: np.ndarray
    converged: np.ndarray
    success: np.ndarray
    final_correct_fraction: np.ndarray
    messages_sent: np.ndarray
    extra: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R`` in the batch."""
        return int(self.success.size)

    def measurements(self, index: int) -> Dict[str, Any]:
        """Replicate ``index`` as a trial-measurement mapping.

        The keys form a superset of what the serial E7 trial functions
        record (``fraction``, ``success``, ``rounds``, ``converged``,
        ``rounds_converged`` plus protocol extras), so batched and serial
        comparisons produce interchangeable
        :class:`~repro.analysis.experiments.ExperimentResult` tables.
        Never-reached round markers (``NaN`` in the ``extra`` vectors) are
        reported as ``None`` — the explicit "did not happen" convention the
        result containers exclude from means.
        """
        converged = bool(self.converged[index])
        fraction = float(self.final_correct_fraction[index])
        measurements: Dict[str, Any] = {
            "rounds": int(self.rounds[index]),
            "rounds_converged": int(self.rounds[index]) if converged else None,
            "messages": int(self.messages_sent[index]),
            "messages_per_agent": float(self.messages_sent[index] / self.n),
            "success": bool(self.success[index]),
            "converged": converged,
            "fraction": fraction,
            "final_correct_fraction": fraction,
        }
        for key, values in self.extra.items():
            raw = values[index]
            if isinstance(raw, (bool, np.bool_)):
                measurements[key] = bool(raw)
                continue
            value = float(raw)
            if not math.isfinite(value):
                measurements[key] = None
            elif value.is_integer():
                measurements[key] = int(value)
            else:
                measurements[key] = value
        return measurements


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

    # Replicate state, mirroring Population: opinion grid and activation grid.
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

    This is the batched counterpart of
    :func:`repro.core.majority.solve_noisy_majority_consensus`: every
    replicate gets its own uniformly random initially opinionated set ``A``
    (size ``initial_set_size``, majority-bias ``majority_bias`` towards
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
        deterministic :func:`~repro.core.opinions.counts_from_bias` split,
        exactly as in :meth:`~repro.core.majority.MajorityInstance.generate`;
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
        Override Corollary 2.18's computed start phase (mirrors the
        ``start_phase`` argument of
        :class:`~repro.core.majority.NoisyMajorityConsensusProtocol`).
    """
    majority_opinion, parameters, channel = _protocol_batch_inputs(
        n, epsilon, num_replicates, majority_opinion, parameters, channel, calibration_overrides
    )

    rng = spawn_generator(base_seed, "batch-majority", n)
    network = PushGossipNetwork(size=n, allow_self_messages=allow_self_messages)

    # Instance generation, one independent instance per replicate, realising
    # the same distribution as MajorityInstance.generate's shuffle.
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
# Batched baseline protocols (the E7 / E11 comparator family)
# ----------------------------------------------------------------------


def _run_forwarding_batch(
    n: int,
    num_replicates: int,
    network: PushGossipNetwork,
    channel: NoiseChannel,
    rng: np.random.Generator,
    correct_opinion: int,
    max_rounds: Optional[int] = None,
    keep_first_opinion: bool = ImmediateForwardingBroadcast.keep_first_opinion,
) -> BatchBaselineResult:
    """Vectorised step rule mirroring
    :class:`~repro.protocols.naive_forward.ImmediateForwardingBroadcast`
    (defaults are read from the serial class, never duplicated).

    Every opinionated agent pushes its bit each round; with
    ``keep_first_opinion`` (Section 1.6's description) a recipient adopts
    only the first bit it ever hears, otherwise it re-adopts every bit.  The
    budget always runs to completion (reach is easy — reliability is what
    the baseline loses), so ``rounds`` equals the budget for every replicate
    and ``converged`` records whether everyone got informed.
    """
    budget = max_rounds
    if budget is None:
        budget = ImmediateForwardingBroadcast.default_budget(n)

    R = num_replicates
    opinions = np.full((R, n), NO_OPINION, dtype=np.int8)
    activated = np.zeros((R, n), dtype=bool)
    opinions[:, 0] = correct_opinion  # agent 0 is the source in every replicate
    activated[:, 0] = True
    messages = np.zeros(R, dtype=np.int64)
    all_informed_round = np.full(R, np.nan)

    for round_index in range(budget):
        send_mask = opinions != NO_OPINION
        bits = np.where(send_mask, opinions, 0).astype(np.int8)
        report = network.deliver_batch(send_mask, bits, channel, rng)
        if keep_first_opinion:
            adopt = report.accepted & ~activated
        else:
            adopt = report.accepted
        opinions = np.where(adopt, report.bits, opinions)
        activated |= report.accepted
        messages += send_mask.sum(axis=1)
        newly_informed = activated.all(axis=1) & np.isnan(all_informed_round)
        all_informed_round[newly_informed] = round_index + 1

    correct_final = (opinions == correct_opinion).sum(axis=1)
    return BatchBaselineResult(
        protocol="immediate-forwarding",
        n=n,
        epsilon=float(channel.epsilon),
        correct_opinion=int(correct_opinion),
        rounds=np.full(R, budget, dtype=np.int64),
        converged=activated.all(axis=1),
        success=correct_final == n,
        final_correct_fraction=correct_final / n,
        messages_sent=messages,
        extra={"all_informed_round": all_informed_round},
    )


def _run_voter_batch(
    n: int,
    num_replicates: int,
    network: PushGossipNetwork,
    channel: NoiseChannel,
    rng: np.random.Generator,
    correct_opinion: int,
    max_rounds: int = NoisyVoterBroadcast.max_rounds,
    check_every: int = NoisyVoterBroadcast.check_every,
) -> BatchBaselineResult:
    """Vectorised step rule mirroring
    :class:`~repro.protocols.noisy_voter.NoisyVoterBroadcast`
    (defaults are read from the serial class, never duplicated).

    Push voter dynamics with a zealot source: every opinionated agent pushes
    its opinion, every receiver except the zealot adopts the accepted bit,
    and every ``check_every`` rounds replicates that reached full correct
    consensus stop (their rows are frozen and they stop sending or counting
    rounds, exactly like a serial run breaking out of its loop).  Under
    channel noise this essentially never happens — the paper's point — so
    ``rounds`` typically equals the budget with ``converged`` false.
    """
    NoisyVoterBroadcast(max_rounds=max_rounds, check_every=check_every)  # checks the budget

    R = num_replicates
    opinions = np.full((R, n), NO_OPINION, dtype=np.int8)
    opinions[:, 0] = correct_opinion  # the zealot source never changes opinion
    messages = np.zeros(R, dtype=np.int64)
    rounds = np.zeros(R, dtype=np.int64)
    converged = np.zeros(R, dtype=bool)
    alive = np.ones(R, dtype=bool)

    for round_index in range(max_rounds):
        if not alive.any():
            break
        send_mask = (opinions != NO_OPINION) & alive[:, None]
        bits = np.where(send_mask, opinions, 0).astype(np.int8)
        report = network.deliver_batch(send_mask, bits, channel, rng)
        adopt = report.accepted.copy()
        adopt[:, 0] = False  # the zealot keeps its opinion
        opinions = np.where(adopt, report.bits, opinions)
        messages += send_mask.sum(axis=1)
        rounds += alive
        if (round_index + 1) % check_every == 0:
            now_correct = alive & (opinions == correct_opinion).all(axis=1)
            converged |= now_correct
            alive &= ~now_correct

    correct_final = (opinions == correct_opinion).sum(axis=1)
    return BatchBaselineResult(
        protocol="noisy-voter",
        n=n,
        epsilon=float(channel.epsilon),
        correct_opinion=int(correct_opinion),
        rounds=rounds,
        converged=converged,
        success=correct_final == n,
        final_correct_fraction=correct_final / n,
        messages_sent=messages,
    )


def _run_direct_source_batch(
    n: int,
    num_replicates: int,
    network: PushGossipNetwork,
    channel: NoiseChannel,
    rng: np.random.Generator,
    correct_opinion: int,
    rounds: Optional[int] = None,
) -> BatchBaselineResult:
    """Vectorised step rule mirroring
    :class:`~repro.protocols.direct_source.DirectSourceReference`
    (defaults are read from the serial class, never duplicated).

    Every agent receives one independent noisy source sample per round
    (applied via :meth:`~repro.substrate.noise.NoiseChannel.transmit_batch`
    on the full ``(R, n)`` grid); each replicate records the first round at
    which every agent's running majority was correct.  The extra vector
    ``rounds_to_all_correct`` is ``NaN`` — reported as ``None`` in
    measurements — for replicates whose majority never went all-correct
    within the sampling budget; they are *not* silently counted at the
    budget.
    """
    DirectSourceReference(rounds=rounds)  # checks the budget
    total_rounds = rounds
    if total_rounds is None:
        total_rounds = DirectSourceReference.default_rounds(n, channel.epsilon)

    R = num_replicates
    ones = np.zeros((R, n), dtype=np.int64)
    first_all_correct = np.full(R, np.nan)
    source_bits = np.full((R, n), correct_opinion, dtype=np.int8)
    full_mask = np.ones((R, n), dtype=bool)

    for round_index in range(1, total_rounds + 1):
        noisy = channel.transmit_batch(source_bits, full_mask, rng)
        ones += noisy.astype(np.int64)
        pending = np.isnan(first_all_correct)
        if pending.any():
            majority_now = _running_majority(ones[pending], round_index, rng)
            all_correct = (majority_now == correct_opinion).all(axis=1)
            first_all_correct[np.flatnonzero(pending)[all_correct]] = round_index

    final = _running_majority(ones, total_rounds, rng)
    correct_final = (final == correct_opinion).sum(axis=1)
    return BatchBaselineResult(
        protocol="direct-source-reference",
        n=n,
        epsilon=float(channel.epsilon),
        correct_opinion=int(correct_opinion),
        rounds=np.full(R, total_rounds, dtype=np.int64),
        converged=np.ones(R, dtype=bool),
        success=correct_final == n,
        final_correct_fraction=correct_final / n,
        messages_sent=np.full(R, n * total_rounds, dtype=np.int64),
        extra={
            "rounds_to_all_correct": first_all_correct,
            "all_correct": ~np.isnan(first_all_correct),
        },
    )


def _run_silent_wait_batch(
    n: int,
    num_replicates: int,
    network: PushGossipNetwork,
    channel: NoiseChannel,
    rng: np.random.Generator,
    correct_opinion: int,
    threshold: Optional[int] = None,
    max_rounds: Optional[int] = None,
) -> BatchBaselineResult:
    """Vectorised step rule mirroring
    :class:`~repro.protocols.silent_wait.SilentWaitBroadcast`
    (defaults are read from the serial module, never duplicated).

    Only the source ever speaks — one message per round per replicate — so
    the per-round work is a single uniform target draw plus one noisy bit per
    replicate instead of a full ``(R, n)`` delivery grid; every other agent
    accumulates the noisy source bits it happens to receive and decides by
    majority once it has collected ``threshold`` of them (re-deciding on
    every later receipt, exactly as the serial class does).  Replicates stop
    as soon as every agent has decided; ``rounds`` is therefore a vector and
    budget exhaustion shows up as ``converged`` false.  The extra vector
    ``first_round_with_two_messages`` reproduces the Section 1.6 birthday
    observation (``NaN`` — reported as ``None`` — when no agent ever heard
    two messages).
    """
    SilentWaitBroadcast(threshold=threshold, max_rounds=max_rounds)  # checks the budget
    if threshold is None:
        threshold = default_decision_threshold(n, channel.epsilon)
    budget = max_rounds
    if budget is None:
        budget = SilentWaitBroadcast.default_budget(n, threshold)

    R = num_replicates
    received = np.zeros((R, n), dtype=np.int64)
    ones = np.zeros((R, n), dtype=np.int64)
    decided = np.zeros((R, n), dtype=bool)
    decided[:, 0] = True  # agent 0 is the source in every replicate
    opinions = np.full((R, n), NO_OPINION, dtype=np.int8)
    opinions[:, 0] = correct_opinion
    rounds = np.zeros(R, dtype=np.int64)
    messages = np.zeros(R, dtype=np.int64)
    first_double = np.full(R, np.nan)
    alive = np.ones(R, dtype=bool)
    alive_rows = np.flatnonzero(alive)

    for round_index in range(budget):
        if alive_rows.size == 0:
            break
        # One message per replicate: the source (agent 0) pushes its bit to a
        # uniformly random (other, unless the network allows self-messages)
        # agent; no collisions are possible, so the single-accept rule of
        # PushGossipNetwork.deliver is trivial here — but the target
        # distribution mirrors PushGossipNetwork._draw_targets exactly.
        if network.allow_self_messages:
            targets = rng.integers(0, n, size=alive_rows.size)
        else:
            draws = rng.integers(0, n - 1, size=alive_rows.size)
            targets = draws + 1  # skip over the source's own index
        bits = channel.transmit(
            np.full(alive_rows.size, correct_opinion, dtype=np.int8), rng
        )
        received[alive_rows, targets] += 1
        ones[alive_rows, targets] += bits.astype(np.int64)
        rounds[alive_rows] += 1
        messages[alive_rows] += 1

        counts_now = received[alive_rows, targets]
        fresh_double = (counts_now >= 2) & np.isnan(first_double[alive_rows])
        first_double[alive_rows[fresh_double]] = round_index + 1

        ready = counts_now >= threshold
        if ready.any():
            ready_rows = alive_rows[ready]
            ready_cols = targets[ready]
            decided[ready_rows, ready_cols] = True
            opinions[ready_rows, ready_cols] = (
                2 * ones[ready_rows, ready_cols] > received[ready_rows, ready_cols]
            ).astype(np.int8)
            done = decided[ready_rows].all(axis=1)
            if done.any():
                alive[ready_rows[done]] = False
                alive_rows = np.flatnonzero(alive)

    correct_final = (opinions == correct_opinion).sum(axis=1)
    return BatchBaselineResult(
        protocol="silent-wait",
        n=n,
        epsilon=float(channel.epsilon),
        correct_opinion=int(correct_opinion),
        rounds=rounds,
        converged=decided.all(axis=1),
        success=correct_final == n,
        final_correct_fraction=correct_final / n,
        messages_sent=messages,
        extra={
            "threshold": np.full(R, threshold, dtype=np.int64),
            "decided_fraction": decided.sum(axis=1) / n,
            "first_round_with_two_messages": first_double,
        },
    )


def _running_majority(
    ones: np.ndarray, rounds_so_far: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-agent majority of the samples collected so far (random tie-break).

    Grid-shaped transcription of
    :meth:`~repro.protocols.direct_source.DirectSourceReference._majority`.
    """
    doubled = 2 * ones
    verdict = np.where(doubled > rounds_so_far, 1, 0).astype(np.int8)
    ties = doubled == rounds_so_far
    if np.any(ties):
        verdict[ties] = rng.integers(0, 2, size=int(np.count_nonzero(ties))).astype(np.int8)
    return verdict


#: Vectorised step rule and recognised options per batchable baseline,
#: keyed by the protocol's registry name (see repro.protocols.registry).
_BASELINE_BATCH_RULES: Dict[str, Tuple[Callable[..., BatchBaselineResult], frozenset]] = {
    "immediate-forwarding": (_run_forwarding_batch, frozenset({"max_rounds", "keep_first_opinion"})),
    "noisy-voter": (_run_voter_batch, frozenset({"max_rounds", "check_every"})),
    "direct-source-reference": (_run_direct_source_batch, frozenset({"rounds"})),
    "silent-wait": (_run_silent_wait_batch, frozenset({"threshold", "max_rounds"})),
}


def batchable_baselines() -> List[str]:
    """Sorted registry names of the baseline protocols with a batched step rule."""
    return sorted(_BASELINE_BATCH_RULES)


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

    This is the batched counterpart of running a
    :class:`~repro.protocols.base.BaselineProtocol` once per trial on its own
    :class:`~repro.substrate.engine.SimulationEngine`: the protocol is looked
    up by its registry name (the same names
    :func:`repro.protocols.registry.make_protocol` accepts) and advanced for
    all replicates simultaneously on ``(R, n)`` grids, one
    :meth:`~repro.substrate.network.PushGossipNetwork.deliver_batch` (or
    :meth:`~repro.substrate.noise.NoiseChannel.transmit_batch`) call per
    round.  Per-replicate dynamics are statistically equivalent to the serial
    protocol classes — same step rule, same budgets, same stopping checks —
    under the batching module's usual determinism contract (one batch-level
    random stream; see the module docstring).

    Parameters
    ----------
    protocol:
        Registry name of the baseline; see :func:`batchable_baselines` for
        the names with a vectorised step rule.
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
        Protocol-specific settings mirroring the serial dataclass fields
        (``max_rounds``/``keep_first_opinion`` for immediate forwarding,
        ``max_rounds``/``check_every`` for the noisy voter, ``rounds`` for
        the direct-source reference).  ``None`` values mean "use the
        protocol's default"; unrecognised names raise
        :class:`~repro.errors.ExperimentError`.
    """
    if num_replicates < 1:
        raise ExperimentError("num_replicates must be at least 1")
    correct_opinion = validate_opinion(correct_opinion)
    try:
        rule, recognised_options = _BASELINE_BATCH_RULES[protocol]
    except KeyError:
        from ..protocols.registry import available_protocols

        known = protocol in available_protocols()
        reason = "has no batched step rule" if known else "is not a registered protocol"
        raise ExperimentError(
            f"protocol {protocol!r} {reason}; batchable baselines are "
            + ", ".join(batchable_baselines())
        ) from None

    settings = {key: value for key, value in options.items() if value is not None}
    unrecognised = sorted(set(settings) - recognised_options)
    if unrecognised:
        raise ExperimentError(
            f"batched baseline {protocol!r} has unrecognised option(s) {unrecognised}; "
            f"recognised options are {sorted(recognised_options)}"
        )
    if channel is None:
        channel = BinarySymmetricChannel(epsilon=epsilon)

    rng = spawn_generator(base_seed, "batch-baseline", protocol, n)
    network = PushGossipNetwork(size=n, allow_self_messages=allow_self_messages)
    return rule(
        n=n,
        num_replicates=num_replicates,
        network=network,
        channel=channel,
        rng=rng,
        correct_opinion=correct_opinion,
        **settings,
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
#: per-protocol option; run_baseline_batch enforces the exact subsets.
_SWEEP_SETTINGS: Dict[Callable[..., Any], Tuple[Tuple[str, ...], frozenset]] = {
    run_broadcast_batch: (
        ("n", "epsilon"),
        frozenset({"correct_opinion", "allow_self_messages"}) | _CALIBRATION_SETTINGS,
    ),
    run_majority_batch: (
        ("n", "epsilon", "initial_set_size", "majority_bias"),
        frozenset({"majority_opinion", "allow_self_messages", "start_phase"})
        | _CALIBRATION_SETTINGS,
    ),
    run_baseline_batch: (
        ("n", "epsilon", "protocol"),
        frozenset({"correct_opinion", "allow_self_messages"}).union(
            *(options for _, options in _BASELINE_BATCH_RULES.values())
        ),
    ),
}

#: Grid-key aliases of the serial E8 sweep, normalised on dispatch.
_MAJORITY_ALIASES: Dict[str, str] = {"set_size": "initial_set_size", "bias": "majority_bias"}


def _normalise_majority_aliases(settings: Dict[str, Any], context: str) -> Dict[str, Any]:
    """Rewrite the serial E8 grid keys (``set_size``/``bias``) onto the
    canonical majority settings, in place.

    Applied to ``defaults`` and to each point *before* they are merged, so a
    point may override a default through either spelling (per-point settings
    win, as documented); naming both spellings in the *same* mapping is
    ambiguous and raises.
    """
    for alias, canonical in _MAJORITY_ALIASES.items():
        if alias in settings:
            if canonical in settings:
                raise ExperimentError(f"{context} sets both {alias!r} and {canonical!r}")
            settings[canonical] = settings.pop(alias)
    return settings


def _resolve_batch_task(
    point_name: str,
    point: Any,
    settings: Dict[str, Any],
    batch_fn: Callable[..., Any],
    trials_per_point: int,
    base_seed: int,
) -> Tuple[Callable[..., Any], Dict[str, Any]]:
    """Map one grid point's merged (alias-normalised) settings onto a
    :func:`run_batch_cell` task.

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

    # Coerce the numeric settings exactly as the serial trial functions do
    # (e.g. E8's int(point["set_size"])), so values a serial sweep accepts —
    # a float grid axis, a numpy integer — work identically batched.
    kwargs = dict(settings)
    kwargs["n"] = int(kwargs["n"])
    kwargs["epsilon"] = float(kwargs["epsilon"])
    if "initial_set_size" in kwargs:
        kwargs["initial_set_size"] = int(kwargs["initial_set_size"])
    if "majority_bias" in kwargs:
        kwargs["majority_bias"] = float(kwargs["majority_bias"])
    if kwargs.get("start_phase") is not None:
        kwargs["start_phase"] = int(kwargs["start_phase"])
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
    call of ``batch_fn`` — :func:`run_broadcast_batch`,
    :func:`run_majority_batch` or :func:`run_baseline_batch` — with *all*
    its settings forwarded; a missing required or an unrecognised setting
    raises :class:`~repro.errors.ExperimentError`, and so does any other
    ``batch_fn``.  The serial E8 grid keys ``set_size``/``bias`` are accepted
    as aliases of the majority simulator's settings.  Point naming and
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
    # Alias keys only mean something to the majority simulator; leaving them
    # alone elsewhere keeps "unrecognised setting" errors pointing at the key
    # the caller actually wrote.
    normalise = batch_fn is run_majority_batch
    merged_defaults = dict(defaults or {})
    if normalise:
        _normalise_majority_aliases(merged_defaults, f"batched sweep {name!r} defaults")

    sweep_points = [SweepPoint.from_mapping(raw_point) for raw_point in points]
    point_names = sweep_point_names(name, sweep_points)
    tasks: List[Tuple[Callable[..., Any], Dict[str, Any]]] = []
    for point, point_name in zip(sweep_points, point_names):
        point_settings = point.as_dict()
        if normalise:
            _normalise_majority_aliases(point_settings, f"batched sweep point {point_name}")
        settings = {**merged_defaults, **point_settings}
        tasks.append(
            _resolve_batch_task(point_name, point, settings, batch_fn, trials_per_point, base_seed)
        )
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
