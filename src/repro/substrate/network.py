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
(:class:`~repro.substrate.faults.FaultInjector`).  With ``None`` the
original code path runs byte for byte; with an injector, delivery switches
to one *positional* kernel that draws full ``(R, n)`` target /
priority / noise grids per round (a serial round is the kernel at
``R = 1``), so the main stream's consumption is a function of the grid shape
alone — a crashed or silenced sender cannot shift any other agent's draws in
later rounds (the fault layer's determinism contract, see
:mod:`repro.substrate.faults`).

A :class:`BatchDeliveryReport` is sparse: the accepting cells (flat indices
of the ``(R, n)`` grid, ascending) and their noisy bits.  The stage kernels
read only those; the dense ``accepted`` / ``bits`` / ``senders`` grids are
built on first read, for the callers that want them.

The fault-free :meth:`~PushGossipNetwork.deliver_batch` keeps a one-entry
memo of its last inputs.  Within a protocol phase the senders and their bits
are fixed, so nearly every call passes grids equal to the previous call's:
when both match the remembered copies in shape, dtype and content
(``np.array_equal``, never object identity), the call skips validation and
reuses the message layout.  Any other input is validated and laid out anew.
Every round of one grid shape also reuses one set of scratch arrays, so a
round allocates little beyond what its report keeps and the generator's own
draws; the draws themselves are unchanged.  That memo and scratch make a
network object single-threaded: each batched entry point builds its own
network, and one network must not be shared between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from ..errors import ParameterError, ProtocolError
from .faults import FaultInjector
from .noise import NoiseChannel

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

    The report is sparse: it lists the cells of the ``(R, n)`` grid that
    accepted a message, as flat indices ``r * n + j`` (row ``r`` is replicate
    ``r``, column ``j`` agent ``j``).  Replicates are fully independent —
    messages never cross replicate boundaries.  The dense grids a caller may
    still want are built from the cells on first read and then cached.

    Attributes
    ----------
    shape:
        The grid shape ``(R, n)``.
    cells:
        Flat indices of the cells that accepted a message, ascending (so
        replicate-major, recipient-ascending), ``int64``.
    cell_bits:
        The accepted bit of each cell after channel noise, aligned with
        ``cells``.
    messages_sent:
        Per-replicate number of messages pushed, shape ``(R,)``.

    Read on demand (cached): ``cell_senders`` (the sender column whose
    message each cell accepted), the ``(R, n)`` grids ``accepted`` (bool),
    ``bits`` (0 wherever nothing was accepted) and ``senders`` (-1 wherever
    nothing was accepted), and the per-replicate ``messages_delivered`` and
    ``messages_dropped``.
    """

    shape: Tuple[int, int]
    cells: np.ndarray
    cell_bits: np.ndarray
    messages_sent: np.ndarray
    # cell_senders is _sender_of[_sender_index], gathered only when read.
    _sender_of: np.ndarray = field(repr=False)
    _sender_index: np.ndarray = field(repr=False)

    @classmethod
    def from_grids(
        cls,
        accepted: np.ndarray,
        bits: np.ndarray,
        senders: np.ndarray,
        messages_sent: np.ndarray,
    ) -> "BatchDeliveryReport":
        """A report from dense ``(R, n)`` grids; the grids are kept as its cache."""
        cells = np.flatnonzero(accepted)
        report = cls(
            shape=accepted.shape,
            cells=cells,
            cell_bits=bits.reshape(-1)[cells],
            messages_sent=messages_sent,
            _sender_of=senders.reshape(-1),
            _sender_index=cells,
        )
        report.__dict__.update(accepted=accepted, bits=bits, senders=senders)
        return report

    def _grid(self, fill, dtype, values) -> np.ndarray:
        grid = np.full(self.shape, fill, dtype=dtype)
        grid.reshape(-1)[self.cells] = values
        return grid

    @cached_property
    def cell_senders(self) -> np.ndarray:
        """The sender whose message each cell accepted, aligned with ``cells``."""
        return self._sender_of[self._sender_index]

    @cached_property
    def accepted(self) -> np.ndarray:
        """``(R, n)`` bool grid: which agents accepted a message."""
        return self._grid(False, bool, True)

    @cached_property
    def bits(self) -> np.ndarray:
        """``(R, n)`` grid of accepted bits, 0 wherever nothing was accepted."""
        return self._grid(0, self.cell_bits.dtype, self.cell_bits)

    @cached_property
    def senders(self) -> np.ndarray:
        """``(R, n)`` grid of accepted senders, -1 wherever nothing was accepted."""
        return self._grid(-1, np.int64, self.cell_senders)

    @cached_property
    def messages_delivered(self) -> np.ndarray:
        """Per-replicate number of messages accepted, shape ``(R,)``."""
        num_replicates, size = self.shape
        bounds = np.searchsorted(self.cells, np.arange(num_replicates + 1) * size)
        return np.diff(bounds).astype(np.int64, copy=False)

    @property
    def messages_dropped(self) -> np.ndarray:
        """Per-replicate messages lost to collisions."""
        return self.messages_sent - self.messages_delivered

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R`` in the batch."""
        return int(self.shape[0])


class _Workspace:
    """Scratch arrays of the batch kernel for one ``(R, n)`` grid shape.

    Every round of that shape reuses them, so a fault-free round allocates
    little beyond the arrays its report keeps and the generator's own draws
    (a fresh ``(R, n)`` grid page-faults every round).  Per-message arrays
    have room for a full send and are sliced to the round's message count.
    """

    def __init__(self, shape: Tuple[int, int]) -> None:
        num_replicates, size = shape
        cells = num_replicates * size
        self.shape = shape
        # The scatter-min's per-cell float64 minimum lives in the memory of
        # the int64 owner cells written after it.
        self.owner = np.empty(cells, dtype=np.int64)
        self.best = self.owner.view(np.float64)
        self.claimed = np.empty(cells, dtype=bool)
        self.priorities = np.empty(cells)
        self.gathered = np.empty(cells)
        self.flags = np.empty(cells, dtype=bool)
        self._full_send: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def full_send(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(cols, offsets)`` of a round in which every agent speaks."""
        if self._full_send is None:
            num_replicates, size = self.shape
            cols = np.tile(np.arange(size), num_replicates)
            offsets = np.repeat(np.arange(num_replicates) * size, size)
            self._full_send = cols, offsets
        return self._full_send


@dataclass(frozen=True)
class _PreparedRound:
    """One validated ``deliver_batch`` input and what the kernel derives from it.

    Message ``i`` is the ``i``-th sender in row-major (``np.nonzero``)
    order: it sits in column ``cols[i]`` of the row starting at flat cell
    ``offsets[i]`` and pushes ``sender_bits[i]``.
    """

    send_mask: np.ndarray
    bits: np.ndarray
    sent: np.ndarray
    cols: np.ndarray
    offsets: np.ndarray
    sender_bits: np.ndarray
    workspace: _Workspace

    def matches(self, send_mask: np.ndarray, bits: np.ndarray) -> bool:
        """Whether ``(send_mask, bits)`` equal the inputs, dtypes included."""
        return (
            send_mask.dtype == self.send_mask.dtype
            and bits.dtype == self.bits.dtype
            and np.array_equal(send_mask, self.send_mask)
            and np.array_equal(bits, self.bits)
        )


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
    _prepared: Optional[_PreparedRound] = field(default=None, init=False, repr=False, compare=False)
    _workspace: Optional[_Workspace] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ParameterError(f"network size must be at least 2, got {self.size}")

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    def deliver(
        self,
        senders: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
        faults: Optional[FaultInjector] = None,
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
            Optional fault injector; crashed senders are silenced and
            Byzantine bits substituted, from the injector's own stream (see
            module docstring).
        """
        senders = np.asarray(senders, dtype=np.int64)
        bits = self._validate_round_inputs(senders, bits)
        if faults is not None:
            # One replicate of the resilient kernel.  The grid must be int8:
            # Byzantine fake bits are drawn with the grid's dtype.
            send_mask = np.zeros((1, self.size), dtype=bool)
            grid = np.zeros((1, self.size), dtype=np.int8)
            send_mask[0, senders] = True
            grid[0, senders] = bits
            batch = self._deliver_batch_resilient(send_mask, grid, channel, rng, faults)
            sent = int(batch.messages_sent[0])
            delivered = int(batch.cells.size)
            return DeliveryReport(
                recipients=batch.cells,
                bits=batch.cell_bits,
                senders=batch.cell_senders,
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

        The inputs are validated, and their messages laid out, only when they
        differ from the previous fault-free call's (see the module
        docstring); the caller may reuse or mutate its grids freely.

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
        """
        send_mask, bits = np.asarray(send_mask), np.asarray(bits)
        if faults is not None:
            send_mask, bits = self._validate_grid_inputs(send_mask, bits)
            return self._deliver_batch_resilient(send_mask, bits, channel, rng, faults)
        # Within a protocol phase the senders and their bits are fixed, so
        # most calls repeat the previous call's inputs: compare contents
        # (never identity, a caller may mutate its grids in place) and reuse
        # the validated, prepared round; anything else is validated anew.
        prepared = self._prepared
        if prepared is None or not prepared.matches(send_mask, bits):
            prepared = self._prepared = self._prepare_round(send_mask, bits)
        self.rounds_executed += 1
        size = self.size
        cols = prepared.cols
        count = cols.size
        workspace = prepared.workspace
        cells = winners = np.empty(0, dtype=np.int64)
        cell_bits = np.empty(0, dtype=np.int8)
        if count:
            # Message i's bucket is its flat target cell, formed in place.
            if self.allow_self_messages:
                buckets = rng.integers(0, size, size=count)
            else:
                buckets = rng.integers(0, size - 1, size=count)
                buckets += np.greater_equal(buckets, cols, out=workspace.flags[:count])
            priorities = rng.random(out=workspace.priorities[:count])
            buckets += prepared.offsets
            winners, cells = self._resolve_collisions(buckets, priorities, workspace)
            # Ascending cells noise the winners in the replicate-major,
            # recipient-ascending order of NoiseChannel.transmit_batch.
            noisy = channel.transmit(prepared.sender_bits[winners], rng)
            cell_bits = np.asarray(noisy).astype(np.int8, copy=False)

        delivered = int(cells.size)
        self.messages_sent_total += count
        self.messages_delivered_total += delivered
        self.messages_dropped_total += count - delivered
        return BatchDeliveryReport(
            shape=prepared.send_mask.shape,
            cells=cells,
            cell_bits=cell_bits,
            messages_sent=prepared.sent.copy(),
            _sender_of=cols,
            _sender_index=winners,
        )

    def _prepare_round(self, send_mask: np.ndarray, bits: np.ndarray) -> _PreparedRound:
        """Validate one round's grids and lay out its messages."""
        send_mask, bits = self._validate_grid_inputs(send_mask, bits)
        workspace = self._workspace_for(send_mask.shape)
        sent = send_mask.sum(axis=1).astype(np.int64)
        # When every agent speaks, the messages are the cells: no search.
        if sent.sum() == send_mask.size:
            positions = slice(None)
            cols, offsets = workspace.full_send()
        else:
            positions = np.flatnonzero(send_mask)
            cols = positions % self.size
            offsets = positions - cols
        return _PreparedRound(
            send_mask=send_mask.copy(),
            bits=bits.copy(),
            sent=sent,
            cols=cols,
            offsets=offsets,
            sender_bits=bits.reshape(-1)[positions].astype(np.int8),
            workspace=workspace,
        )

    def _workspace_for(self, shape: Tuple[int, int]) -> _Workspace:
        """The scratch arrays for ``shape``, rebuilt when the shape changes."""
        if self._workspace is None or self._workspace.shape != shape:
            self._workspace = _Workspace(shape)
        return self._workspace

    # ------------------------------------------------------------------
    # resilient (fault aware) delivery
    # ------------------------------------------------------------------
    def _deliver_batch_resilient(
        self,
        send_mask: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
        faults: FaultInjector,
    ) -> BatchDeliveryReport:
        """Single-accept delivery under a fault injector.

        The one resilient kernel: :meth:`deliver_batch` runs it on validated
        ``(R, n)`` grids, :meth:`deliver` on a one-replicate grid.  Target,
        priority and channel grids are drawn for every cell, so main-stream
        consumption per round is exactly two ``(R, n)`` uniform grids plus
        one full-grid channel pass, independent of the send mask and of any
        crash pattern.
        """
        num_replicates, size = send_mask.shape
        self.rounds_executed += 1

        faults.begin_round()
        send_mask = faults.filter_send_mask(send_mask)
        bits = faults.corrupt_outgoing_grid(bits, send_mask)

        if self.allow_self_messages:
            targets_grid = rng.integers(0, size, size=(num_replicates, size))
        else:
            draws = rng.integers(0, size - 1, size=(num_replicates, size))
            targets_grid = draws + (draws >= np.arange(size, dtype=np.int64))
        priorities_grid = rng.random((num_replicates, size))

        sent = send_mask.sum(axis=1).astype(np.int64)
        rows, cols = np.nonzero(send_mask)
        targets = targets_grid[rows, cols]

        accepted_senders = np.full((num_replicates, size), -1, dtype=np.int64)
        candidate = np.zeros((num_replicates, size), dtype=np.int8)
        if rows.size:
            winners, winning_buckets = self._resolve_collisions(
                rows * size + targets,
                priorities_grid[rows, cols],
                self._workspace_for((num_replicates, size)),
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

        delivered = accepted.sum(axis=1).astype(np.int64)
        self.messages_sent_total += int(sent.sum())
        self.messages_delivered_total += int(delivered.sum())
        self.messages_dropped_total += int((sent - delivered).sum())
        return BatchDeliveryReport.from_grids(accepted, accepted_bits, accepted_senders, sent)

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
        workspace: _Workspace,
    ) -> tuple:
        """Keep one uniformly random message per (replicate, recipient) bucket.

        Message ``i`` goes to flat bucket ``buckets[i]`` (``row * size +
        target``); the lowest i.i.d. uniform priority in a bucket wins.
        Returns ``(winners, buckets)``, the winning message indices and their
        buckets in ascending bucket order, and leaves each winner's index in
        its cell of ``workspace.owner``, -1 elsewhere.
        """
        # No sort: scatter-min each bucket's lowest priority (2.0 = empty),
        # keep the messages holding it, and let them write their index into
        # the owner cells, read back in ascending bucket order.  An exact tie
        # between two raw priorities still leaves one owner.
        count = buckets.size
        best, owner = workspace.best, workspace.owner
        best.fill(2.0)
        np.minimum.at(best, buckets, priorities)
        lowest = np.take(best, buckets, out=workspace.gathered[:count], mode="clip")
        minimal = np.flatnonzero(np.equal(priorities, lowest, out=workspace.flags[:count]))
        owner.fill(-1)
        owner[buckets[minimal]] = minimal
        winning_buckets = np.flatnonzero(np.greater_equal(owner, 0, out=workspace.claimed))
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
