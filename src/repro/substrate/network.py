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

The count rule
--------------
A recipient's messages of one round are exchangeable, so its kept bit
depends on them only through two counts: ``N``, how many reached it, and
``O``, how many of those carry a 1.  It keeps a 1 with probability ``O / N``
and the channel flips that bit with probability ``q``
(:attr:`~repro.substrate.noise.NoiseChannel.flip_probability`), so the kept
noisy bit is 1 with probability ``q + (1 - 2q) O / N``, independently across
(replicate, recipient) cells once the targets are drawn.  Every vectorised
path draws the targets, counts ``N`` and ``O`` per cell into reused buffers
(:meth:`PushGossipNetwork._count_messages`), and draws one uniform per heard
cell against that probability: no per-message priority, no winner, no
separate channel pass.  Nothing draws which sender a cell heard, so reports
carry no sender identity.  :meth:`~PushGossipNetwork.deliver_reference`
keeps the literal rule (a uniform pick from each inbox, then
:meth:`~repro.substrate.noise.NoiseChannel.transmit`) as the oracle the
exact-law tests compare every path with.

:meth:`~PushGossipNetwork.deliver_batch` also accepts an optional ``faults``
(:class:`~repro.substrate.faults.FaultInjector`).  With ``None`` the
fault-free path runs; with an injector, delivery switches to one
*positional* kernel that draws one full ``(R, n)`` target grid and one full
``(R, n)`` uniform grid per round (a serial faulty trial is the kernel at
``R = 1``), so the main stream's consumption is a function of the grid shape
alone — a crashed or silenced sender cannot shift any other agent's draws in
later rounds (the fault layer's determinism contract, see
:mod:`repro.substrate.faults`).

A :class:`BatchDeliveryReport` is sparse: the accepting cells (flat indices
of the ``(R, n)`` grid, ascending) and their noisy bits.  The ``accepted``
grid comes with it; the dense ``bits`` grid is built on first read, for the
callers that want it.

The fault-free :meth:`~PushGossipNetwork.deliver_batch` keeps a one-entry
memo of its last inputs.  Within a protocol phase the senders and their bits
are fixed, so nearly every call passes grids equal to the previous call's:
when both match the remembered copies in shape, dtype and content
(``np.array_equal``, never object identity), the call skips validation and
reuses the message layout, which lists the messages carrying a 1 first so
that ``O`` is a count over a prefix.  Any other input is validated and laid
out anew.  Every round of one grid shape also reuses one set of count
buffers, so a round allocates little beyond what its report keeps and the
generator's own draws.  That memo and those buffers make a network object
single-threaded: each batched entry point builds its own network, and one
network must not be shared between threads.
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
        Indices of agents that accepted a message this round, ascending
        (each appears exactly once).
    bits:
        The bit each recipient accepted, *after* channel noise.
    messages_sent:
        Total number of messages pushed this round.
    messages_delivered:
        Number of messages accepted (= ``len(recipients)``).
    messages_dropped:
        Messages lost to collisions (``sent - delivered``).
    """

    recipients: np.ndarray
    bits: np.ndarray
    messages_sent: int
    messages_delivered: int
    messages_dropped: int

    @staticmethod
    def empty() -> "DeliveryReport":
        """A report for a round in which nobody sent anything."""
        return DeliveryReport(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8), 0, 0, 0)


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
        ``cells``, ``int8``.
    messages_sent:
        Per-replicate number of messages pushed, shape ``(R,)``.

    Read on demand (cached): the ``(R, n)`` grids ``accepted`` (bool) and
    ``bits`` (0 wherever nothing was accepted), and the per-replicate
    ``messages_delivered`` and ``messages_dropped``.
    """

    shape: Tuple[int, int]
    cells: np.ndarray
    cell_bits: np.ndarray
    messages_sent: np.ndarray

    def _grid(self, fill, dtype, values) -> np.ndarray:
        grid = np.full(self.shape, fill, dtype=dtype)
        grid.reshape(-1)[self.cells] = values
        return grid

    @cached_property
    def accepted(self) -> np.ndarray:
        """``(R, n)`` bool grid: which agents accepted a message."""
        return self._grid(False, bool, True)

    @cached_property
    def bits(self) -> np.ndarray:
        """``(R, n)`` grid of accepted bits, 0 wherever nothing was accepted."""
        return self._grid(0, self.cell_bits.dtype, self.cell_bits)

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
    """Count buffers of the delivery kernels for one ``(R, n)`` grid shape.

    Every round of that shape reuses them, so a round allocates little
    beyond the arrays its report keeps and the generator's own draws (a
    fresh ``(R, n)`` array page-faults every round).  ``flags`` has room for
    a full send and is sliced to the round's message count.
    """

    def __init__(self, shape: Tuple[int, int]) -> None:
        num_replicates, size = shape
        cells = num_replicates * size
        self.shape = shape
        self.counts = np.zeros(cells, dtype=np.int64)
        self.ones = np.zeros(cells, dtype=np.int64)
        self.flags = np.empty(cells, dtype=bool)


@dataclass(frozen=True)
class _PreparedRound:
    """One validated ``deliver_batch`` input and what the kernel derives from it.

    Message ``i`` sits in column ``cols[i]`` of the row starting at flat cell
    ``offsets[i]``.  The first ``ones`` messages carry a 1 and the rest a 0,
    each group in row-major (``np.nonzero``) order.
    """

    send_mask: np.ndarray
    bits: np.ndarray
    sent: np.ndarray
    cols: np.ndarray
    offsets: np.ndarray
    ones: int
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
    def deliver(
        self,
        senders: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
    ) -> DeliveryReport:
        """Execute one synchronous round of push-gossip delivery.

        Draws one target per sender, then one uniform per recipient against
        the count rule (see the module docstring).

        Parameters
        ----------
        senders:
            Indices of the agents sending this round.  An agent may appear
            at most once (one message per agent per round).
        bits:
            The bit each sender pushes, aligned with ``senders``.
        channel:
            Noise channel of each *accepted* message.
        rng:
            Randomness for recipient selection and the kept noisy bits.
        """
        senders = np.asarray(senders, dtype=np.int64)
        bits = self._validate_round_inputs(senders, bits)
        self.rounds_executed += 1
        if senders.size == 0:
            return DeliveryReport.empty()

        targets = self._draw_targets(senders, rng)
        workspace = self._workspace_for((1, self.size))
        recipients = np.flatnonzero(self._count_messages(targets, targets[bits != 0], workspace))
        uniforms = rng.random(recipients.size)
        accepted_bits = self._noisy_bits(recipients, uniforms, workspace, channel)

        sent = int(senders.size)
        delivered = int(recipients.size)
        self.messages_sent_total += sent
        self.messages_delivered_total += delivered
        self.messages_dropped_total += sent - delivered
        return DeliveryReport(
            recipients=recipients,
            bits=accepted_bits,
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
        uniform recipient choice, single-accept with a uniformly random kept
        message, channel noise on the kept bit, all three folded into the
        count rule of the module docstring — and replicates never interact.

        Randomness is drawn from the single ``rng`` for the whole batch, so
        results are deterministic given the generator state but not
        bit-identical to ``R`` separate :meth:`deliver` calls; the exact-law
        tests in ``tests/unit/substrate/test_delivery_law.py`` check both
        against the same distribution.

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
            Noise channel of the accepted messages.
        rng:
            Randomness for target selection and the kept noisy bits.
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
        shape = prepared.send_mask.shape
        self.messages_sent_total += count
        if not count:
            empty = np.empty(0, dtype=np.int64)
            return BatchDeliveryReport(shape, empty, empty.astype(np.int8), prepared.sent.copy())

        # Message i's flat target cell, formed in place.
        if self.allow_self_messages:
            buckets = rng.integers(0, size, size=count)
        else:
            buckets = rng.integers(0, size - 1, size=count)
            buckets += np.greater_equal(buckets, cols, out=workspace.flags[:count])
        buckets += prepared.offsets
        accepted = self._count_messages(buckets, buckets[: prepared.ones], workspace)
        cells = np.flatnonzero(accepted)
        cell_bits = self._noisy_bits(cells, rng.random(cells.size), workspace, channel)

        delivered = int(cells.size)
        self.messages_delivered_total += delivered
        self.messages_dropped_total += count - delivered
        return self._report(shape, cells, cell_bits, prepared.sent.copy(), accepted)

    def _prepare_round(self, send_mask: np.ndarray, bits: np.ndarray) -> _PreparedRound:
        """Validate one round's grids and lay out its messages, ones first."""
        send_mask, bits = self._validate_grid_inputs(send_mask, bits)
        carries_one = send_mask & (bits != 0)
        positions = np.concatenate(
            (np.flatnonzero(carries_one), np.flatnonzero(send_mask & ~carries_one))
        )
        cols = positions % self.size
        return _PreparedRound(
            send_mask=send_mask.copy(),
            bits=bits.copy(),
            sent=send_mask.sum(axis=1).astype(np.int64),
            cols=cols,
            offsets=positions - cols,
            ones=int(np.count_nonzero(carries_one)),
            workspace=self._workspace_for(send_mask.shape),
        )

    def _workspace_for(self, shape: Tuple[int, int]) -> _Workspace:
        """The count buffers for ``shape``, rebuilt when the shape changes."""
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
        ``(R, n)`` grids.  A target and a uniform are drawn for every cell,
        so main-stream consumption per round is exactly one ``(R, n)``
        integer grid and one ``(R, n)`` uniform grid, independent of the
        send mask and of any crash pattern; a heard cell's noisy bit reads
        its own uniform.
        """
        shape = send_mask.shape
        num_replicates, size = shape
        self.rounds_executed += 1

        faults.begin_round()
        send_mask = faults.filter_send_mask(send_mask)
        bits = faults.corrupt_outgoing_grid(bits, send_mask)

        if self.allow_self_messages:
            targets_grid = rng.integers(0, size, size=shape)
        else:
            draws = rng.integers(0, size - 1, size=shape)
            targets_grid = draws + (draws >= np.arange(size, dtype=np.int64))
        uniforms = rng.random(num_replicates * size)

        buckets_grid = targets_grid + np.arange(0, num_replicates * size, size)[:, None]
        workspace = self._workspace_for(shape)
        accepted = self._count_messages(
            buckets_grid[send_mask], buckets_grid[send_mask & (bits != 0)], workspace
        )
        cells = np.flatnonzero(accepted)
        cell_bits = self._noisy_bits(cells, uniforms[cells], workspace, channel)

        sent = send_mask.sum(axis=1).astype(np.int64)
        self.messages_sent_total += int(sent.sum())
        self.messages_delivered_total += int(cells.size)
        self.messages_dropped_total += int(sent.sum()) - int(cells.size)
        return self._report(shape, cells, cell_bits, sent, accepted)

    def deliver_reference(
        self,
        senders: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
    ) -> DeliveryReport:
        """Pure-Python reference implementation of :meth:`deliver`.

        Exists solely so differential tests can check the vectorised paths
        against a literal transcription of the model's rules: every message
        goes to its recipient's inbox, each recipient keeps one message
        picked uniformly from its inbox, and the channel noises the kept
        bits.  Equal in law to :meth:`deliver`, not bit-for-bit identical.
        """
        senders = np.asarray(senders, dtype=np.int64)
        bits = self._validate_round_inputs(senders, bits)
        self.rounds_executed += 1
        if senders.size == 0:
            return DeliveryReport.empty()

        inboxes: dict[int, list[int]] = {}
        for sender, bit in zip(senders.tolist(), bits.tolist()):
            if self.allow_self_messages:
                target = int(rng.integers(0, self.size))
            else:
                target = int(rng.integers(0, self.size - 1))
                if target >= sender:
                    target += 1
            inboxes.setdefault(target, []).append(bit)

        recipients = sorted(inboxes)
        kept = [
            inboxes[target][int(rng.integers(0, len(inboxes[target])))] for target in recipients
        ]
        noisy = channel.transmit(np.asarray(kept, dtype=np.int8), rng)
        sent = int(senders.size)
        delivered = len(recipients)
        self.messages_sent_total += sent
        self.messages_delivered_total += delivered
        self.messages_dropped_total += sent - delivered
        return DeliveryReport(
            recipients=np.asarray(recipients, dtype=np.int64),
            bits=noisy.astype(np.int8),
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

    @staticmethod
    def _count_messages(
        buckets: np.ndarray, one_buckets: np.ndarray, workspace: _Workspace
    ) -> np.ndarray:
        """Count each cell's messages and flag the cells that heard any.

        ``buckets`` holds every message's flat target cell (``row * size +
        target``) and ``one_buckets`` those of the messages carrying a 1.
        The per-cell counts ``N`` and ``O`` land in ``workspace.counts`` and
        ``workspace.ones``; the returned flat bool array, new each round, is
        ``N > 0``.
        """
        counts, ones = workspace.counts, workspace.ones
        counts.fill(0)
        np.add.at(counts, buckets, 1)
        ones.fill(0)
        np.add.at(ones, one_buckets, 1)
        return np.greater(counts, 0)

    @staticmethod
    def _noisy_bits(
        cells: np.ndarray, uniforms: np.ndarray, workspace: _Workspace, channel: NoiseChannel
    ) -> np.ndarray:
        """The kept noisy bit of each heard cell, one uniform each.

        A cell keeps a uniformly random one of its ``N`` messages, ``O`` of
        which carry a 1, and the channel flips the kept bit with probability
        ``q``: the result is 1 with probability ``q + (1 - 2q) O / N``.
        """
        flip = channel.flip_probability
        one = np.take(workspace.ones, cells) / np.take(workspace.counts, cells)
        if flip:
            one *= 1.0 - 2.0 * flip
            one += flip
        return np.less(uniforms, one).view(np.int8)

    @staticmethod
    def _report(
        shape: Tuple[int, int],
        cells: np.ndarray,
        cell_bits: np.ndarray,
        sent: np.ndarray,
        accepted: np.ndarray,
    ) -> BatchDeliveryReport:
        """A batch report that keeps the round's flat ``accepted`` flags as its grid."""
        report = BatchDeliveryReport(
            shape=shape, cells=cells, cell_bits=cell_bits, messages_sent=sent
        )
        report.__dict__["accepted"] = accepted.reshape(shape)
        return report

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
