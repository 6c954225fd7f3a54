"""Push-gossip message delivery with single-accept semantics.

Section 1.3.2 of the paper fixes the interaction pattern:

* in each round, every agent that chooses to speak sends exactly one 1-bit
  message to another agent chosen uniformly at random (uniform push gossip);
* neither sender nor receiver learn each other's identity;
* if an agent receives several messages in the same round it *accepts one of
  them, chosen uniformly at random*, and all others are dropped;
* the accepted bit is flipped independently with probability ``1/2 - epsilon``
  (the noise itself is modelled by :mod:`repro.substrate.noise`).

:class:`PushGossipNetwork` implements exactly this primitive, vectorised with
numpy so that a round with tens of thousands of concurrent senders costs a
handful of array operations.  A slower pure-Python reference implementation
(:meth:`PushGossipNetwork.deliver_reference`) is kept for differential
testing of the vectorised path.

Every delivery entry point also accepts an optional ``faults``
(:class:`~repro.substrate.faults.FaultInjector`) and ``topology``
(:class:`~repro.substrate.topology.ContactTopology`).  With both ``None``
the original code path runs byte for byte; with either active, delivery
switches to a *positional* variant that draws full ``(R, n)`` target /
priority / noise grids per round, so the main stream's consumption is a
function of the grid shape alone — a crashed or silenced sender cannot shift
any other agent's draws in later rounds (the fault layer's determinism
contract, see :mod:`repro.substrate.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ParameterError, ProtocolError
from .faults import FaultInjector
from .noise import NoiseChannel
from .topology import ContactTopology

__all__ = [
    "DeliveryReport",
    "BatchDeliveryReport",
    "BatchDeliveryAllReport",
    "PushGossipNetwork",
]


@dataclass(frozen=True)
class DeliveryReport:
    """Outcome of one round of push-gossip delivery.

    Attributes
    ----------
    recipients:
        Indices of agents that accepted a message this round (each appears
        exactly once).
    bits:
        The bit each recipient accepted, *after* channel noise.
    senders:
        The sender whose message each recipient accepted (aligned with
        ``recipients``); useful for tracing the dissemination tree.
    messages_sent:
        Total number of messages pushed this round.
    messages_delivered:
        Number of messages accepted (= ``len(recipients)``).
    messages_dropped:
        Messages lost to collisions (``sent - delivered``).
    """

    recipients: np.ndarray
    bits: np.ndarray
    senders: np.ndarray
    messages_sent: int
    messages_delivered: int
    messages_dropped: int

    @staticmethod
    def empty() -> "DeliveryReport":
        """A report for a round in which nobody sent anything."""
        empty_i64 = np.empty(0, dtype=np.int64)
        empty_i8 = np.empty(0, dtype=np.int8)
        return DeliveryReport(empty_i64, empty_i8, empty_i64.copy(), 0, 0, 0)


@dataclass(frozen=True)
class BatchDeliveryReport:
    """Outcome of one push-gossip round executed for ``R`` replicates at once.

    All grids have shape ``(R, n)``: row ``r`` describes replicate ``r`` and
    column ``j`` describes agent ``j``.  Replicates are fully independent —
    messages never cross replicate boundaries.

    Attributes
    ----------
    accepted:
        Boolean grid; ``accepted[r, j]`` is true when agent ``j`` of
        replicate ``r`` accepted a message this round.
    bits:
        The accepted bit after channel noise (0 wherever ``accepted`` is
        false).
    senders:
        Index of the sender whose message was accepted (-1 wherever
        ``accepted`` is false).
    messages_sent / messages_delivered:
        Per-replicate message counts, shape ``(R,)``.
    """

    accepted: np.ndarray
    bits: np.ndarray
    senders: np.ndarray
    messages_sent: np.ndarray
    messages_delivered: np.ndarray

    @property
    def messages_dropped(self) -> np.ndarray:
        """Per-replicate messages lost to collisions."""
        return self.messages_sent - self.messages_delivered

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R`` in the batch."""
        return int(self.accepted.shape[0])


@dataclass(frozen=True)
class BatchDeliveryAllReport:
    """Outcome of one *multi-accept* round executed for ``R`` replicates at once.

    The multi-accept rule delivers every message, so one recipient may accept
    several messages in the same round and an ``(R, n)`` "accepted bit" grid
    cannot represent the outcome.  The report is therefore message-aligned:
    all arrays have one entry per delivered message, ordered replicate-major
    by sender index (the order :meth:`PushGossipNetwork.deliver_all_batch`
    consumes the channel stream in).

    Attributes
    ----------
    replicates:
        Replicate index of each delivered message.
    recipients:
        Recipient of each message (duplicates within a replicate are
        possible — that is the point of multi-accept semantics).
    senders:
        Sender of each message.
    bits:
        The delivered bit of each message, *after* channel noise.
    messages_sent:
        Per-replicate message counts, shape ``(R,)``; with multi-accept
        semantics every sent message is delivered.
    """

    replicates: np.ndarray
    recipients: np.ndarray
    senders: np.ndarray
    bits: np.ndarray
    messages_sent: np.ndarray

    @property
    def messages_delivered(self) -> np.ndarray:
        """Per-replicate delivered counts (equal to ``messages_sent``)."""
        return self.messages_sent

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R`` in the batch."""
        return int(self.messages_sent.size)

    def delivery_counts(self, size: int) -> np.ndarray:
        """Per-(replicate, agent) received-message counts as an ``(R, size)`` grid."""
        counts = np.zeros((self.num_replicates, size), dtype=np.int64)
        np.add.at(counts, (self.replicates, self.recipients), 1)
        return counts


@dataclass
class PushGossipNetwork:
    """Uniform push-gossip network over ``size`` anonymous agents.

    Parameters
    ----------
    size:
        Number of agents ``n``.
    allow_self_messages:
        The paper has agents send to "another agent"; by default an agent
        never selects itself as the recipient.  Setting this to ``True``
        allows self-delivery, which simplifies some analytical comparisons
        (the difference is a ``1/n`` correction).
    """

    size: int
    allow_self_messages: bool = False
    messages_sent_total: int = field(default=0, init=False)
    messages_delivered_total: int = field(default=0, init=False)
    messages_dropped_total: int = field(default=0, init=False)
    rounds_executed: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ParameterError(f"network size must be at least 2, got {self.size}")

    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        """Reset the cumulative message counters."""
        self.messages_sent_total = 0
        self.messages_delivered_total = 0
        self.messages_dropped_total = 0
        self.rounds_executed = 0

    # ------------------------------------------------------------------
    def deliver(
        self,
        senders: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
        faults: Optional[FaultInjector] = None,
        topology: Optional[ContactTopology] = None,
    ) -> DeliveryReport:
        """Execute one synchronous round of push-gossip delivery.

        Parameters
        ----------
        senders:
            Indices of the agents sending this round.  An agent may appear
            at most once (one message per agent per round).
        bits:
            The bit each sender pushes, aligned with ``senders``.
        channel:
            Noise channel applied to each *accepted* message.
        rng:
            Randomness for recipient selection and collision resolution.
        faults:
            Optional fault injector; crashed senders are silenced, Byzantine
            bits substituted, burst corruption applied — all from the
            injector's own stream (see module docstring).
        topology:
            Optional non-uniform contact graph replacing uniform targets.
        """
        if faults is not None or topology is not None:
            return self._deliver_resilient(senders, bits, channel, rng, faults, topology)
        senders = np.asarray(senders, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int8)
        self._validate_round_inputs(senders, bits)
        self.rounds_executed += 1
        if senders.size == 0:
            return DeliveryReport.empty()

        targets = self._draw_targets(senders, rng)

        # Collision resolution: each recipient keeps one uniformly random
        # message among those addressed to it this round.  Permuting the
        # message order and keeping the first occurrence per target is an
        # unbiased implementation of that rule.  The first occurrence is the
        # minimum permuted position per target, scattered with
        # ``np.minimum.at`` in O(n) (no sort, and no reliance on the order
        # numpy applies repeated-index assignments in); targets nobody
        # addressed keep the sentinel ``k``, and ``flatnonzero`` lists the
        # recipients in ascending order.
        k = senders.size
        order = rng.permutation(k)
        permuted_targets = targets[order]
        first = np.full(self.size, k)
        np.minimum.at(first, permuted_targets, np.arange(k))
        recipients = np.flatnonzero(first < k)
        accepted = order[first[recipients]]

        accepted_bits = channel.transmit(bits[accepted], rng)

        sent = int(senders.size)
        delivered = int(recipients.size)
        self.messages_sent_total += sent
        self.messages_delivered_total += delivered
        self.messages_dropped_total += sent - delivered
        return DeliveryReport(
            recipients=recipients.astype(np.int64),
            bits=accepted_bits.astype(np.int8),
            senders=senders[accepted],
            messages_sent=sent,
            messages_delivered=delivered,
            messages_dropped=sent - delivered,
        )

    def deliver_batch(
        self,
        send_mask: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
        faults: Optional[FaultInjector] = None,
        topology: Optional[ContactTopology] = None,
    ) -> BatchDeliveryReport:
        """Execute one push-gossip round for ``R`` independent replicates at once.

        This is the batch-aware entry point used by
        :mod:`repro.exec.batching`: instead of one engine (and one Python-level
        round loop) per Monte-Carlo trial, ``R`` replicates of the round are
        simulated with a handful of array operations on ``(R, n)`` grids.
        Per replicate the semantics are exactly those of :meth:`deliver` —
        uniform recipient choice, single-accept with a uniformly random winner
        among colliding messages, channel noise on accepted bits — and
        replicates never interact.  The collision winner is selected by
        assigning each message an i.i.d. uniform priority and keeping the
        minimum per (replicate, recipient) pair, which is an unbiased
        implementation of the uniform-winner rule.

        Randomness is drawn from the single ``rng`` for the whole batch, so
        results are deterministic given the generator state but not
        bit-identical to ``R`` separate :meth:`deliver` calls; the
        differential tests in ``tests/unit/exec`` pin down the statistical
        equivalence.

        Parameters
        ----------
        send_mask:
            ``(R, n)`` boolean grid: which agents speak this round in each
            replicate.
        bits:
            ``(R, n)`` integer grid with the bit each agent would push
            (entries outside ``send_mask`` are ignored).
        channel:
            Noise channel applied to accepted messages via
            :meth:`NoiseChannel.transmit_batch`.
        rng:
            Randomness for target selection and collision resolution.
        faults:
            Optional fault injector (dedicated-stream fault decisions; see
            module docstring).
        topology:
            Optional non-uniform contact graph replacing uniform targets.
        """
        if faults is not None or topology is not None:
            return self._deliver_batch_resilient(send_mask, bits, channel, rng, faults, topology)
        send_mask = np.asarray(send_mask, dtype=bool)
        bits = np.asarray(bits)
        if send_mask.ndim != 2:
            raise ProtocolError("send_mask must be a 2-D (replicates, agents) grid")
        if send_mask.shape != bits.shape:
            raise ProtocolError("send_mask and bits must have the same shape")
        num_replicates, size = send_mask.shape
        if size != self.size:
            raise ProtocolError(
                f"batch is over {size} agents but the network has {self.size}"
            )
        masked_bits = bits[send_mask]
        if masked_bits.size and (masked_bits.min() < 0 or masked_bits.max() > 1):
            raise ProtocolError("message bits must be 0 or 1")

        self.rounds_executed += 1
        sent = send_mask.sum(axis=1).astype(np.int64)
        accepted = np.zeros((num_replicates, size), dtype=bool)
        accepted_bits = np.zeros((num_replicates, size), dtype=np.int8)
        accepted_senders = np.full((num_replicates, size), -1, dtype=np.int64)

        rows, cols = np.nonzero(send_mask)
        if rows.size:
            # One flat bucket per (replicate, recipient) pair keeps the
            # replicates independent while resolving every collision in a
            # single sort.
            if self.allow_self_messages:
                targets = rng.integers(0, size, size=rows.size)
            else:
                draws = rng.integers(0, size - 1, size=rows.size)
                targets = draws + (draws >= cols)
            priorities = rng.random(rows.size)
            buckets = rows * size + targets
            # Sorting by bucket with random tie-breaking picks a uniform
            # winner per (replicate, recipient).  A single combined float key
            # (integer bucket + fractional priority) is an order of magnitude
            # faster than np.lexsort and exact while bucket ids fit the
            # 53-bit float64 mantissa; batches anywhere near that size are
            # unreachable in practice.
            if num_replicates * size < 2**52:
                order = np.argsort(buckets + priorities)
            else:  # pragma: no cover - astronomically large batches
                order = np.lexsort((priorities, buckets))
            sorted_buckets = buckets[order]
            is_first = np.empty(rows.size, dtype=bool)
            is_first[0] = True
            is_first[1:] = sorted_buckets[1:] != sorted_buckets[:-1]
            winners = order[is_first]

            winning_buckets = buckets[winners]
            accepted.reshape(-1)[winning_buckets] = True
            accepted_senders.reshape(-1)[winning_buckets] = cols[winners]
            # winning_buckets is ascending (one winner per sorted bucket), so
            # noising the winner bits directly consumes the channel stream in
            # the same replicate-major, recipient-ascending order as
            # NoiseChannel.transmit_batch — bit-identical, minus a grid copy.
            noisy = channel.transmit(bits[rows[winners], cols[winners]], rng)
            accepted_bits.reshape(-1)[winning_buckets] = noisy

        delivered = accepted.sum(axis=1).astype(np.int64)
        self.messages_sent_total += int(sent.sum())
        self.messages_delivered_total += int(delivered.sum())
        self.messages_dropped_total += int((sent - delivered).sum())
        return BatchDeliveryReport(
            accepted=accepted,
            bits=accepted_bits.astype(np.int8),
            senders=accepted_senders,
            messages_sent=sent,
            messages_delivered=delivered,
        )

    def deliver_all(
        self,
        senders: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
        faults: Optional[FaultInjector] = None,
        topology: Optional[ContactTopology] = None,
    ) -> DeliveryReport:
        """Deliver *every* message, resolving nothing (no single-accept rule).

        Stage II of the paper has agents *collect* all messages received in a
        round... except the Flip model still only lets an agent accept one
        message per round.  This helper exists for protocols outside the Flip
        model (idealised baselines such as the direct-from-source reference)
        that need multi-accept semantics.  The returned ``recipients`` may
        therefore contain duplicates.  ``faults``/``topology`` switch to the
        positional resilient path (see module docstring); with churn,
        messages to offline recipients are dropped.
        """
        if faults is not None or topology is not None:
            return self._deliver_all_resilient(senders, bits, channel, rng, faults, topology)
        senders = np.asarray(senders, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int8)
        self._validate_round_inputs(senders, bits)
        self.rounds_executed += 1
        if senders.size == 0:
            return DeliveryReport.empty()
        targets = self._draw_targets(senders, rng)
        noisy_bits = channel.transmit(bits, rng)
        sent = int(senders.size)
        self.messages_sent_total += sent
        self.messages_delivered_total += sent
        return DeliveryReport(
            recipients=targets,
            bits=noisy_bits.astype(np.int8),
            senders=senders,
            messages_sent=sent,
            messages_delivered=sent,
            messages_dropped=0,
        )

    def deliver_all_batch(
        self,
        send_mask: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
        faults: Optional[FaultInjector] = None,
        topology: Optional[ContactTopology] = None,
    ) -> BatchDeliveryAllReport:
        """Deliver *every* message for ``R`` independent replicates at once.

        Batch-aware companion of :meth:`deliver_all`, exactly as
        :meth:`deliver_batch` is the companion of :meth:`deliver`: per
        replicate every message reaches a uniformly random recipient and
        nothing is dropped (no single-accept rule), which is the multi-accept
        semantics idealised baselines outside the Flip model use.  Targets are
        drawn for all messages first, then noise is applied through
        :meth:`NoiseChannel.transmit_batch` on the ``(R, n)`` sender grid —
        i.e. the channel stream is consumed in replicate-major,
        sender-ascending order, mirroring how a serial :meth:`deliver_all`
        call noises its messages in sender order.  Replicates never interact.

        Randomness comes from the single ``rng`` for the whole batch, so
        results are deterministic given the generator state but not
        bit-identical to ``R`` separate :meth:`deliver_all` calls; the
        property tests in ``tests/unit/substrate/test_network.py`` pin the
        per-replicate marginals (message counts, target uniformity, flip
        rate) against the serial path.

        Parameters
        ----------
        send_mask:
            ``(R, n)`` boolean grid: which agents speak this round in each
            replicate.
        bits:
            ``(R, n)`` integer grid with the bit each agent would push
            (entries outside ``send_mask`` are ignored).
        channel:
            Noise channel applied to every message via
            :meth:`NoiseChannel.transmit_batch`.
        rng:
            Randomness for target selection and channel noise.
        faults:
            Optional fault injector (dedicated-stream fault decisions).
        topology:
            Optional non-uniform contact graph replacing uniform targets.
        """
        if faults is not None or topology is not None:
            return self._deliver_all_batch_resilient(
                send_mask, bits, channel, rng, faults, topology
            )
        send_mask = np.asarray(send_mask, dtype=bool)
        bits = np.asarray(bits)
        if send_mask.ndim != 2:
            raise ProtocolError("send_mask must be a 2-D (replicates, agents) grid")
        if send_mask.shape != bits.shape:
            raise ProtocolError("send_mask and bits must have the same shape")
        num_replicates, size = send_mask.shape
        if size != self.size:
            raise ProtocolError(
                f"batch is over {size} agents but the network has {self.size}"
            )
        masked_bits = bits[send_mask]
        if masked_bits.size and (masked_bits.min() < 0 or masked_bits.max() > 1):
            raise ProtocolError("message bits must be 0 or 1")

        self.rounds_executed += 1
        sent = send_mask.sum(axis=1).astype(np.int64)
        rows, cols = np.nonzero(send_mask)
        if rows.size:
            if self.allow_self_messages:
                targets = rng.integers(0, size, size=rows.size)
            else:
                draws = rng.integers(0, size - 1, size=rows.size)
                targets = draws + (draws >= cols)
            noisy_grid = channel.transmit_batch(bits, send_mask, rng)
            noisy = noisy_grid[send_mask]
        else:
            targets = np.empty(0, dtype=np.int64)
            noisy = np.empty(0, dtype=np.int8)

        total = int(sent.sum())
        self.messages_sent_total += total
        self.messages_delivered_total += total
        return BatchDeliveryAllReport(
            replicates=rows.astype(np.int64),
            recipients=targets.astype(np.int64),
            senders=cols.astype(np.int64),
            bits=noisy.astype(np.int8),
            messages_sent=sent,
        )

    # ------------------------------------------------------------------
    # resilient (fault / topology aware) delivery
    # ------------------------------------------------------------------
    def _positional_targets(
        self,
        num_replicates: int,
        rng: np.random.Generator,
        topology: Optional[ContactTopology],
    ) -> tuple:
        """Draw full-grid contact targets (and churn mask) for one round.

        Always draws exactly one target grid (plus the topology's fixed
        extras) from the main stream, regardless of who sends — the
        positional-consumption property the resilient paths rely on.
        """
        size = self.size
        if topology is not None:
            return topology.draw_round_grid(num_replicates, size, rng)
        if self.allow_self_messages:
            targets = rng.integers(0, size, size=(num_replicates, size))
        else:
            draws = rng.integers(0, size - 1, size=(num_replicates, size))
            targets = draws + (draws >= np.arange(size, dtype=np.int64))
        return targets, None

    def _deliver_resilient(
        self,
        senders: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
        faults: Optional[FaultInjector],
        topology: Optional[ContactTopology],
    ) -> DeliveryReport:
        """Serial single-accept delivery with faults and/or a contact topology.

        Same semantics as :meth:`deliver` per surviving message, but every
        main-stream draw is positional (full ``size``-length vectors for
        targets, collision priorities and channel noise), so the main
        stream's per-round consumption is fixed at ``2 * size`` uniforms plus
        one ``size``-wide channel pass whatever the crash/churn pattern.
        """
        senders = np.asarray(senders, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int8)
        self._validate_round_inputs(senders, bits)
        self.rounds_executed += 1
        size = self.size

        if faults is not None:
            faults.begin_round()
            senders, bits = faults.filter_senders_serial(senders, bits)
            bits = faults.corrupt_outgoing_serial(senders, bits)

        targets_grid, offline_grid = self._positional_targets(1, rng, topology)
        targets_all = targets_grid[0]
        offline = None if offline_grid is None else offline_grid[0]
        priorities_all = rng.random(size)

        if offline is not None and senders.size:
            online = ~offline[senders]
            senders, bits = senders[online], bits[online]
        sent = int(senders.size)
        targets = targets_all[senders]
        if offline is not None and senders.size:
            reachable = ~offline[targets]
            senders, bits, targets = senders[reachable], bits[reachable], targets[reachable]

        if senders.size:
            # Combined integer-target + fractional-priority key: the minimum
            # priority per target wins, exactly as on the batch path.
            order = np.argsort(targets + priorities_all[senders])
            sorted_targets = targets[order]
            is_first = np.empty(order.size, dtype=bool)
            is_first[0] = True
            is_first[1:] = sorted_targets[1:] != sorted_targets[:-1]
            winners = order[is_first]
            recipients = targets[winners]
            winner_senders = senders[winners]
            winner_bits = bits[winners]
        else:
            recipients = np.empty(0, dtype=np.int64)
            winner_senders = np.empty(0, dtype=np.int64)
            winner_bits = np.empty(0, dtype=np.int8)

        # Positional channel pass: one candidate slot per agent, noised
        # unconditionally so noise consumption never depends on acceptance.
        candidate = np.zeros(size, dtype=np.int8)
        candidate[recipients] = winner_bits
        noisy_all = channel.transmit(candidate, rng)
        accepted_bits = noisy_all[recipients].astype(np.int8)
        if faults is not None:
            accepted_bits = faults.corrupt_delivered_serial(recipients, accepted_bits)

        delivered = int(recipients.size)
        self.messages_sent_total += sent
        self.messages_delivered_total += delivered
        self.messages_dropped_total += sent - delivered
        return DeliveryReport(
            recipients=recipients.astype(np.int64),
            bits=accepted_bits,
            senders=winner_senders,
            messages_sent=sent,
            messages_delivered=delivered,
            messages_dropped=sent - delivered,
        )

    def _deliver_batch_resilient(
        self,
        send_mask: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
        faults: Optional[FaultInjector],
        topology: Optional[ContactTopology],
    ) -> BatchDeliveryReport:
        """Batch single-accept delivery with faults and/or a contact topology.

        The ``(R, n)`` companion of :meth:`_deliver_resilient`: target,
        priority and channel grids are drawn for every cell of the batch, so
        main-stream consumption per round is exactly two ``(R, n)`` uniform
        grids plus one full-grid channel pass, independent of the send mask
        and of any crash/churn pattern.
        """
        send_mask = np.asarray(send_mask, dtype=bool)
        bits = np.asarray(bits)
        if send_mask.ndim != 2:
            raise ProtocolError("send_mask must be a 2-D (replicates, agents) grid")
        if send_mask.shape != bits.shape:
            raise ProtocolError("send_mask and bits must have the same shape")
        num_replicates, size = send_mask.shape
        if size != self.size:
            raise ProtocolError(
                f"batch is over {size} agents but the network has {self.size}"
            )
        masked_bits = bits[send_mask]
        if masked_bits.size and (masked_bits.min() < 0 or masked_bits.max() > 1):
            raise ProtocolError("message bits must be 0 or 1")
        self.rounds_executed += 1

        if faults is not None:
            faults.begin_round()
            send_mask = faults.filter_send_mask(send_mask)
            bits = faults.corrupt_outgoing_grid(bits, send_mask)

        targets_grid, offline = self._positional_targets(num_replicates, rng, topology)
        priorities_grid = rng.random((num_replicates, size))

        effective_mask = send_mask if offline is None else send_mask & ~offline
        sent = effective_mask.sum(axis=1).astype(np.int64)
        rows, cols = np.nonzero(effective_mask)
        targets = targets_grid[rows, cols]
        if offline is not None and rows.size:
            reachable = ~offline[rows, targets]
            rows, cols, targets = rows[reachable], cols[reachable], targets[reachable]

        accepted = np.zeros((num_replicates, size), dtype=bool)
        accepted_senders = np.full((num_replicates, size), -1, dtype=np.int64)
        candidate = np.zeros((num_replicates, size), dtype=np.int8)
        if rows.size:
            priorities = priorities_grid[rows, cols]
            buckets = rows * size + targets
            if num_replicates * size < 2**52:
                order = np.argsort(buckets + priorities)
            else:  # pragma: no cover - astronomically large batches
                order = np.lexsort((priorities, buckets))
            sorted_buckets = buckets[order]
            is_first = np.empty(rows.size, dtype=bool)
            is_first[0] = True
            is_first[1:] = sorted_buckets[1:] != sorted_buckets[:-1]
            winners = order[is_first]
            winning_buckets = buckets[winners]
            accepted.reshape(-1)[winning_buckets] = True
            accepted_senders.reshape(-1)[winning_buckets] = cols[winners]
            candidate.reshape(-1)[winning_buckets] = np.asarray(bits, dtype=np.int8)[
                rows[winners], cols[winners]
            ]

        # Full-grid channel pass (every cell noised, acceptance masked after)
        # keeps noise consumption positional too.
        noisy_grid = channel.transmit_batch(
            candidate, np.ones((num_replicates, size), dtype=bool), rng
        )
        accepted_bits = np.where(accepted, noisy_grid, 0).astype(np.int8)
        if faults is not None:
            accepted_bits = faults.corrupt_delivered_grid(accepted_bits, accepted)

        delivered = accepted.sum(axis=1).astype(np.int64)
        self.messages_sent_total += int(sent.sum())
        self.messages_delivered_total += int(delivered.sum())
        self.messages_dropped_total += int((sent - delivered).sum())
        return BatchDeliveryReport(
            accepted=accepted,
            bits=accepted_bits,
            senders=accepted_senders,
            messages_sent=sent,
            messages_delivered=delivered,
        )

    def _deliver_all_resilient(
        self,
        senders: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
        faults: Optional[FaultInjector],
        topology: Optional[ContactTopology],
    ) -> DeliveryReport:
        """Serial multi-accept delivery with faults and/or a contact topology.

        Positional like :meth:`_deliver_resilient`; channel noise is keyed by
        sender slot (one candidate per agent, every agent sends at most once
        per round) and churn drops messages to offline recipients.
        """
        senders = np.asarray(senders, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int8)
        self._validate_round_inputs(senders, bits)
        self.rounds_executed += 1
        size = self.size

        if faults is not None:
            faults.begin_round()
            senders, bits = faults.filter_senders_serial(senders, bits)
            bits = faults.corrupt_outgoing_serial(senders, bits)

        targets_grid, offline_grid = self._positional_targets(1, rng, topology)
        targets_all = targets_grid[0]
        offline = None if offline_grid is None else offline_grid[0]

        if offline is not None and senders.size:
            online = ~offline[senders]
            senders, bits = senders[online], bits[online]
        sent = int(senders.size)
        targets = targets_all[senders]

        candidate = np.zeros(size, dtype=np.int8)
        candidate[senders] = bits
        noisy_all = channel.transmit(candidate, rng)
        noisy = noisy_all[senders].astype(np.int8)

        if offline is not None and senders.size:
            reachable = ~offline[targets]
            senders, targets, noisy = senders[reachable], targets[reachable], noisy[reachable]
        if faults is not None:
            noisy = faults.corrupt_delivered_messages(
                np.zeros(senders.size, dtype=np.int64), targets, noisy
            )

        delivered = int(senders.size)
        self.messages_sent_total += sent
        self.messages_delivered_total += delivered
        self.messages_dropped_total += sent - delivered
        return DeliveryReport(
            recipients=targets.astype(np.int64),
            bits=noisy,
            senders=senders,
            messages_sent=sent,
            messages_delivered=delivered,
            messages_dropped=sent - delivered,
        )

    def _deliver_all_batch_resilient(
        self,
        send_mask: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
        faults: Optional[FaultInjector],
        topology: Optional[ContactTopology],
    ) -> BatchDeliveryAllReport:
        """Batch multi-accept delivery with faults and/or a contact topology.

        Positional ``(R, n)`` companion of :meth:`_deliver_all_resilient`.
        With churn the per-message arrays contain only the *delivered*
        messages, which can be fewer than ``messages_sent`` (unlike the
        fault-free path, where every sent message is delivered).
        """
        send_mask = np.asarray(send_mask, dtype=bool)
        bits = np.asarray(bits)
        if send_mask.ndim != 2:
            raise ProtocolError("send_mask must be a 2-D (replicates, agents) grid")
        if send_mask.shape != bits.shape:
            raise ProtocolError("send_mask and bits must have the same shape")
        num_replicates, size = send_mask.shape
        if size != self.size:
            raise ProtocolError(
                f"batch is over {size} agents but the network has {self.size}"
            )
        masked_bits = bits[send_mask]
        if masked_bits.size and (masked_bits.min() < 0 or masked_bits.max() > 1):
            raise ProtocolError("message bits must be 0 or 1")
        self.rounds_executed += 1

        if faults is not None:
            faults.begin_round()
            send_mask = faults.filter_send_mask(send_mask)
            bits = faults.corrupt_outgoing_grid(bits, send_mask)

        targets_grid, offline = self._positional_targets(num_replicates, rng, topology)
        effective_mask = send_mask if offline is None else send_mask & ~offline
        sent = effective_mask.sum(axis=1).astype(np.int64)

        noisy_grid = channel.transmit_batch(
            np.asarray(bits, dtype=np.int8),
            np.ones((num_replicates, size), dtype=bool),
            rng,
        )
        rows, cols = np.nonzero(effective_mask)
        targets = targets_grid[rows, cols]
        noisy = noisy_grid[rows, cols].astype(np.int8)
        if offline is not None and rows.size:
            reachable = ~offline[rows, targets]
            rows, cols = rows[reachable], cols[reachable]
            targets, noisy = targets[reachable], noisy[reachable]
        if faults is not None:
            noisy = faults.corrupt_delivered_messages(rows, targets, noisy)

        self.messages_sent_total += int(sent.sum())
        self.messages_delivered_total += int(rows.size)
        self.messages_dropped_total += int(sent.sum()) - int(rows.size)
        return BatchDeliveryAllReport(
            replicates=rows.astype(np.int64),
            recipients=targets.astype(np.int64),
            senders=cols.astype(np.int64),
            bits=noisy,
            messages_sent=sent,
        )

    def deliver_reference(
        self,
        senders: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
    ) -> DeliveryReport:
        """Pure-Python reference implementation of :meth:`deliver`.

        Exists solely so differential tests can check the vectorised path
        against a literal transcription of the model's rules.  Statistically
        equivalent to :meth:`deliver`, not bit-for-bit identical.
        """
        senders = np.asarray(senders, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int8)
        self._validate_round_inputs(senders, bits)
        self.rounds_executed += 1
        if senders.size == 0:
            return DeliveryReport.empty()

        inboxes: dict[int, list[tuple[int, int]]] = {}
        for sender, bit in zip(senders.tolist(), bits.tolist()):
            if self.allow_self_messages:
                target = int(rng.integers(0, self.size))
            else:
                target = int(rng.integers(0, self.size - 1))
                if target >= sender:
                    target += 1
            inboxes.setdefault(target, []).append((sender, bit))

        recipients: list[int] = []
        accepted_bits: list[int] = []
        accepted_senders: list[int] = []
        for target in sorted(inboxes):
            choices = inboxes[target]
            sender, bit = choices[int(rng.integers(0, len(choices)))]
            recipients.append(target)
            accepted_senders.append(sender)
            accepted_bits.append(bit)

        noisy = channel.transmit(np.asarray(accepted_bits, dtype=np.int8), rng)
        sent = int(senders.size)
        delivered = len(recipients)
        self.messages_sent_total += sent
        self.messages_delivered_total += delivered
        self.messages_dropped_total += sent - delivered
        return DeliveryReport(
            recipients=np.asarray(recipients, dtype=np.int64),
            bits=noisy.astype(np.int8),
            senders=np.asarray(accepted_senders, dtype=np.int64),
            messages_sent=sent,
            messages_delivered=delivered,
            messages_dropped=sent - delivered,
        )

    # ------------------------------------------------------------------
    def _draw_targets(self, senders: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw a uniformly random recipient for every sender."""
        if self.allow_self_messages:
            return rng.integers(0, self.size, size=senders.size)
        draws = rng.integers(0, self.size - 1, size=senders.size)
        # Skip over the sender's own index so the target is uniform over the
        # other n - 1 agents.
        return draws + (draws >= senders)

    def _validate_round_inputs(self, senders: np.ndarray, bits: np.ndarray) -> None:
        if senders.shape != bits.shape:
            raise ProtocolError("senders and bits must have the same shape")
        if senders.ndim != 1:
            raise ProtocolError("senders must be a 1-D array of agent indices")
        if senders.size == 0:
            return
        if senders.min() < 0 or senders.max() >= self.size:
            raise ProtocolError("sender index out of range")
        # O(n) duplicate check: mark each sender once; a repeat leaves fewer
        # marked agents than senders.
        marked = np.zeros(self.size, dtype=bool)
        marked[senders] = True
        if np.count_nonzero(marked) != senders.size:
            raise ProtocolError("an agent may send at most one message per round")
        if bits.min() < 0 or bits.max() > 1:
            raise ProtocolError("message bits must be 0 or 1")
