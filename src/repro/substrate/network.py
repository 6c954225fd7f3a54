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
handful of array operations.  It has one serial entry point
(:meth:`~PushGossipNetwork.deliver`), one over ``(R, n)`` replicate grids
(:meth:`~PushGossipNetwork.deliver_batch`) and a slower pure-Python reference
(:meth:`~PushGossipNetwork.deliver_reference`) kept for differential testing
of the vectorised path.

Both vectorised entry points also accept an optional ``faults``
(:class:`~repro.substrate.faults.FaultInjector`) and ``topology``
(:class:`~repro.substrate.topology.ContactTopology`).  With both ``None``
the original code path runs byte for byte; with either active, delivery
switches to one *positional* kernel that draws full ``(R, n)`` target /
priority / noise grids per round (a serial round is the kernel at
``R = 1``), so the main stream's consumption is a function of the grid shape
alone — a crashed or silenced sender cannot shift any other agent's draws in
later rounds (the fault layer's determinism contract, see
:mod:`repro.substrate.faults`).
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
        senders = np.asarray(senders, dtype=np.int64)
        bits = self._validate_round_inputs(senders, bits)
        if faults is not None or topology is not None:
            # One replicate of the resilient kernel.  The grid must be int8:
            # Byzantine fake bits are drawn with the grid's dtype.
            send_mask = np.zeros((1, self.size), dtype=bool)
            grid = np.zeros((1, self.size), dtype=np.int8)
            send_mask[0, senders] = True
            grid[0, senders] = bits
            batch = self._deliver_batch_resilient(send_mask, grid, channel, rng, faults, topology)
            recipients = np.flatnonzero(batch.accepted[0])
            sent = int(batch.messages_sent[0])
            delivered = int(recipients.size)
            return DeliveryReport(
                recipients=recipients,
                bits=batch.bits[0, recipients],
                senders=batch.senders[0, recipients],
                messages_sent=sent,
                messages_delivered=delivered,
                messages_dropped=sent - delivered,
            )
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
        replicates never interact.  Each message draws an i.i.d. uniform
        priority and the lowest per (replicate, recipient) bucket wins (an
        unbiased uniform-winner rule; :meth:`_resolve_collisions`, no sort).

        Randomness is drawn from the single ``rng`` for the whole batch, so
        results are deterministic given the generator state but not
        bit-identical to ``R`` separate :meth:`deliver` calls; the
        differential tests in ``tests/unit/exec`` pin down the statistical
        equivalence.

        Parameters
        ----------
        send_mask:
            ``(R, n)`` grid of dtype ``bool``: which agents speak this round
            in each replicate (any other dtype raises :class:`ProtocolError`).
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
        send_mask, bits = self._validate_grid_inputs(send_mask, bits)
        if faults is not None or topology is not None:
            return self._deliver_batch_resilient(send_mask, bits, channel, rng, faults, topology)
        num_replicates, size = send_mask.shape
        self.rounds_executed += 1
        sent = send_mask.sum(axis=1).astype(np.int64)
        accepted_bits = np.zeros((num_replicates, size), dtype=np.int8)
        accepted_senders = np.full((num_replicates, size), -1, dtype=np.int64)

        # Message i is the sender at flat position positions[i] (np.nonzero's
        # order); its bucket, target + positions - cols, is formed in place.
        # When every agent speaks, positions covers every cell: no search.
        if sent.sum() == send_mask.size:
            positions = np.arange(send_mask.size)
            cols = np.tile(np.arange(size), num_replicates)
        else:
            positions = np.flatnonzero(send_mask)
            cols = positions % size
        if positions.size:
            if self.allow_self_messages:
                buckets = rng.integers(0, size, size=positions.size)
            else:
                buckets = rng.integers(0, size - 1, size=positions.size)
                buckets += buckets >= cols
            priorities = rng.random(positions.size)
            buckets += positions
            buckets -= cols
            winners, winning_buckets = self._resolve_collisions(buckets, priorities, accepted_senders)
            accepted_senders.reshape(-1)[winning_buckets] = cols[winners]
            # Ascending winning_buckets noise the winners in the replicate-major,
            # recipient-ascending order of NoiseChannel.transmit_batch.
            noisy = channel.transmit(bits.reshape(-1)[positions[winners]], rng)
            accepted_bits.reshape(-1)[winning_buckets] = noisy

        accepted = accepted_senders >= 0
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

    def _deliver_batch_resilient(
        self,
        send_mask: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
        faults: Optional[FaultInjector],
        topology: Optional[ContactTopology],
    ) -> BatchDeliveryReport:
        """Single-accept delivery with faults and/or a contact topology.

        The one resilient kernel: :meth:`deliver_batch` runs it on validated
        ``(R, n)`` grids, :meth:`deliver` on a one-replicate grid.  Target,
        priority and channel grids are drawn for every cell, so main-stream
        consumption per round is exactly two ``(R, n)`` uniform grids plus
        one full-grid channel pass, independent of the send mask and of any
        crash/churn pattern.
        """
        num_replicates, size = send_mask.shape
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

        accepted_senders = np.full((num_replicates, size), -1, dtype=np.int64)
        candidate = np.zeros((num_replicates, size), dtype=np.int8)
        if rows.size:
            winners, winning_buckets = self._resolve_collisions(
                rows * size + targets, priorities_grid[rows, cols], accepted_senders
            )
            accepted_senders.reshape(-1)[winning_buckets] = cols[winners]
            candidate.reshape(-1)[winning_buckets] = bits[rows[winners], cols[winners]]
        accepted = accepted_senders >= 0

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
        bits = self._validate_round_inputs(senders, bits)
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

    def _resolve_collisions(
        self,
        buckets: np.ndarray,
        priorities: np.ndarray,
        senders: np.ndarray,
    ) -> tuple:
        """Keep one uniformly random message per (replicate, recipient) bucket.

        Message ``i`` goes to flat bucket ``buckets[i]`` (``row * size +
        target``); the lowest i.i.d. uniform priority in a bucket wins.
        Returns ``(winners, buckets)``, the winning message indices and their
        buckets in ascending bucket order, and leaves each winner's index in
        its cell of ``senders`` (the caller's fresh ``(R, n)`` int64 grid), -1
        elsewhere.
        """
        # No sort: scatter-min each bucket's lowest priority (2.0 = empty) into
        # the senders grid's own memory (a fresh grid would page-fault every
        # round), keep the messages holding it, and let them write their index
        # into the grid, read back in ascending bucket order.  An exact tie
        # between two raw priorities still leaves one owner.
        owner = senders.reshape(-1)
        best = owner.view(np.float64)
        best.fill(2.0)
        np.minimum.at(best, buckets, priorities)
        minimal = np.flatnonzero(priorities == best[buckets])
        owner.fill(-1)
        owner[buckets[minimal]] = minimal
        winning_buckets = np.flatnonzero(owner >= 0)
        return owner[winning_buckets], winning_buckets

    @staticmethod
    def _check_bits(bits: np.ndarray) -> None:
        """Reject message bits that are not 0/1 integers (or bools).

        Runs on the caller's array, before any cast: an ``int8`` cast would
        wrap 256 to 0 and truncate 0.9 to 0.
        """
        if not bits.size:
            return
        if bits.dtype.kind not in "biu":
            raise ProtocolError(f"message bits must be 0 or 1 integers, got dtype {bits.dtype}")
        if bits.min() < 0 or bits.max() > 1:
            raise ProtocolError("message bits must be 0 or 1")

    def _validate_grid_inputs(self, send_mask: np.ndarray, bits: np.ndarray) -> tuple:
        """Check one round's ``(R, n)`` grids; return them as arrays."""
        send_mask = np.asarray(send_mask)
        bits = np.asarray(bits)
        if send_mask.dtype != bool:
            # A cast would let an opinion grid's -1 agents speak.
            raise ProtocolError(f"send_mask must be a boolean grid, got dtype {send_mask.dtype}")
        if send_mask.ndim != 2:
            raise ProtocolError("send_mask must be a 2-D (replicates, agents) grid")
        if send_mask.shape != bits.shape:
            raise ProtocolError("send_mask and bits must have the same shape")
        if send_mask.shape[1] != self.size:
            raise ProtocolError(
                f"batch is over {send_mask.shape[1]} agents but the network has {self.size}"
            )
        self._check_bits(bits[send_mask])
        return send_mask, bits

    def _validate_round_inputs(self, senders: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """Check one serial round's inputs; return ``bits`` as ``int8``."""
        bits = np.asarray(bits)
        if senders.shape != bits.shape:
            raise ProtocolError("senders and bits must have the same shape")
        if senders.ndim != 1:
            raise ProtocolError("senders must be a 1-D array of agent indices")
        if senders.size == 0:
            return bits.astype(np.int8, copy=False)
        if senders.min() < 0 or senders.max() >= self.size:
            raise ProtocolError("sender index out of range")
        # O(n) duplicate check: mark each sender once; a repeat leaves fewer
        # marked agents than senders.
        marked = np.zeros(self.size, dtype=bool)
        marked[senders] = True
        if np.count_nonzero(marked) != senders.size:
            raise ProtocolError("an agent may send at most one message per round")
        self._check_bits(bits)
        return bits.astype(np.int8, copy=False)
