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

Every entry point returns one :class:`DeliveryReport`: the per-cell counts
``heard`` (messages accepted) and ``ones`` (accepted noisy 1s) over the
call's rounds, and the messages sent.  A serial report holds ``(n,)``
arrays, a batch report ``(R, n)`` grids.

Within a protocol phase the senders and their bits are fixed, so the
fault-free :meth:`~PushGossipNetwork.deliver_batch` takes a ``rounds``
count and runs that many rounds of one ``(send_mask, bits)`` in one call:
it validates the grids and lays out the messages (those carrying a 1 first,
so that ``O`` is a count over a prefix) once, then draws each round exactly
as a one-round call would, in the same order and sizes.  ``L`` rounds in
one call therefore leave the generator where ``L`` one-round calls do, with
the same per-cell totals.  Every round of one grid shape reuses one set of
count buffers, so a round allocates little beyond what its report keeps
and the generator's own draws.  Those buffers make a network object
single-threaded: each batched entry point builds its own network, and one
network must not be shared between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from ..errors import ParameterError, ProtocolError
from .faults import FaultInjector
from .noise import NoiseChannel

__all__ = ["DeliveryReport", "PushGossipNetwork"]


@dataclass(frozen=True)
class DeliveryReport:
    """What one delivery call left at each recipient cell.

    A serial call reports on the ``(n,)`` agents of one population, a batch
    call on the ``(R, n)`` grid of its replicates (row ``r`` is replicate
    ``r``; messages never cross rows).

    Attributes
    ----------
    heard:
        Per cell, how many of the call's rounds it accepted a message in.  A
        one-round call's is the round's ``bool`` ``N > 0`` flags, a
        multi-round call's its ``int32`` totals.
    ones:
        Per cell, how many of those accepted noisy bits were 1: the round's
        ``int8`` bits (0 wherever nothing was accepted), or ``int32`` totals.
    messages_sent:
        Messages pushed over the call's rounds: an ``int`` for a serial
        round, one ``int64`` entry per replicate for a batch call.
    """

    heard: np.ndarray
    ones: np.ndarray
    messages_sent: Union[int, np.ndarray]

    @property
    def messages_delivered(self) -> Union[int, np.ndarray]:
        """Messages accepted (one per heard cell per round), per replicate."""
        return self.heard.sum(axis=-1)

    @property
    def messages_dropped(self) -> Union[int, np.ndarray]:
        """Messages lost to collisions (``sent - delivered``)."""
        return self.messages_sent - self.messages_delivered


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


@dataclass
class PushGossipNetwork:
    """Uniform push-gossip network over ``size`` anonymous agents.

    Every message goes to one of the *other* ``size - 1`` agents, uniformly
    at random: an agent never selects itself as the recipient.
    """

    size: int
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

        Draws one target per sender, then one uniform per recipient (in
        ascending order) against the count rule (see the module docstring),
        and reports on the ``(n,)`` agents.

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
        targets = self._draw_targets(senders, rng)
        workspace = self._workspace_for((1, self.size))
        heard = self._count_messages(targets, targets[bits != 0], workspace)
        cells = np.flatnonzero(heard)
        cell_bits = self._noisy_bits(cells, rng.random(cells.size), workspace, channel)
        return DeliveryReport(heard, self._bit_grid(cells, cell_bits, workspace), int(senders.size))

    def deliver_batch(
        self,
        send_mask: np.ndarray,
        bits: np.ndarray,
        channel: NoiseChannel,
        rng: np.random.Generator,
        faults: Optional[FaultInjector] = None,
        rounds: int = 1,
    ) -> DeliveryReport:
        """Execute push-gossip rounds for ``R`` independent replicates at once.

        This is the batch-aware entry point used by
        :mod:`repro.exec.batching`: instead of one population (and one Python-level
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

        Every call validates its inputs, so the caller may reuse or mutate
        its grids freely.  With ``rounds = L > 1`` the call runs ``L`` rounds
        of the same grids, as a protocol phase does, and draws exactly what
        ``L`` one-round calls would, in the same order: per round, one
        ``integers`` call for the targets, then one ``random`` call over the
        cells that heard a message.  Its report holds the ``int32`` totals of
        the rounds; ``L`` one-round calls from the same generator state sum
        to the same totals and leave the generator in the same state.

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
            module docstring).  It decides round by round, so it takes only
            ``rounds = 1``; any other count raises :class:`ProtocolError`.
        rounds:
            How many rounds of these grids to run (at least 1).
        """
        if rounds < 1:
            raise ParameterError(f"rounds must be at least 1, got {rounds}")
        if faults is not None and rounds != 1:
            raise ProtocolError("a fault injector decides round by round: pass rounds=1")
        send_mask, bits = self._validate_grid_inputs(send_mask, bits)
        if faults is not None:
            return self._deliver_batch_resilient(send_mask, bits, channel, rng, faults)

        shape = send_mask.shape
        # Lay the messages out once, those carrying a 1 first, so that a
        # cell's O is a count over a prefix of the round's targets.
        carries_one = send_mask & (bits != 0)
        positions = np.concatenate(
            (np.flatnonzero(carries_one), np.flatnonzero(send_mask & ~carries_one))
        )
        cols = positions % self.size
        offsets = positions - cols
        ones = int(np.count_nonzero(carries_one))
        sent = np.count_nonzero(send_mask, axis=1).astype(np.int64) * rounds
        workspace = self._workspace_for(shape)

        if rounds == 1:
            heard, cells, cell_bits = self._round(cols, offsets, ones, workspace, channel, rng)
            one_grid = self._bit_grid(cells, cell_bits, workspace)
            return DeliveryReport(heard.reshape(shape), one_grid.reshape(shape), sent)

        # int32 takes the rounds' bool and int8 results about twice as fast
        # as int64; a call would need 2**31 rounds to overflow it.
        heard = np.zeros(workspace.counts.size, dtype=np.int32)
        one_totals = np.zeros(workspace.counts.size, dtype=np.int32)
        for _ in range(rounds if cols.size else 0):
            accepted, cells, cell_bits = self._round(cols, offsets, ones, workspace, channel, rng)
            heard += accepted
            one_totals[cells] += cell_bits
        return DeliveryReport(heard.reshape(shape), one_totals.reshape(shape), sent)

    def _round(
        self,
        cols: np.ndarray,
        offsets: np.ndarray,
        ones: int,
        workspace: _Workspace,
        channel: NoiseChannel,
        rng: np.random.Generator,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One fault-free round of laid-out messages: ``(accepted, cells, bits)``.

        Message ``i`` sits in column ``cols[i]`` of the row starting at flat
        cell ``offsets[i]``, and the first ``ones`` messages carry a 1.
        Draws the targets, then one uniform per heard cell; returns the flat
        ``N > 0`` flags, the heard cells and their noisy bits.
        """
        count = cols.size
        # Message i's flat target cell, formed in place: a draw over the
        # n - 1 other agents skips over the sender's own column.
        buckets = rng.integers(0, self.size - 1, size=count)
        buckets += np.greater_equal(buckets, cols, out=workspace.flags[:count])
        buckets += offsets
        accepted = self._count_messages(buckets, buckets[:ones], workspace)
        cells = np.flatnonzero(accepted)
        return accepted, cells, self._noisy_bits(cells, rng.random(cells.size), workspace, channel)

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
    ) -> DeliveryReport:
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

        faults.begin_round()
        send_mask = faults.filter_send_mask(send_mask)
        bits = faults.corrupt_outgoing_grid(bits, send_mask)

        draws = rng.integers(0, size - 1, size=shape)
        targets_grid = draws + (draws >= np.arange(size, dtype=np.int64))
        uniforms = rng.random(num_replicates * size)

        buckets_grid = targets_grid + np.arange(0, num_replicates * size, size)[:, None]
        workspace = self._workspace_for(shape)
        heard = self._count_messages(
            buckets_grid[send_mask], buckets_grid[send_mask & (bits != 0)], workspace
        )
        cells = np.flatnonzero(heard)
        cell_bits = self._noisy_bits(cells, uniforms[cells], workspace, channel)
        ones = self._bit_grid(cells, cell_bits, workspace)
        sent = send_mask.sum(axis=1).astype(np.int64)
        return DeliveryReport(heard.reshape(shape), ones.reshape(shape), sent)

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
        heard = np.zeros(self.size, dtype=bool)
        ones = np.zeros(self.size, dtype=np.int8)
        if senders.size == 0:
            return DeliveryReport(heard, ones, 0)

        inboxes: dict[int, list[int]] = {}
        for sender, bit in zip(senders.tolist(), bits.tolist()):
            target = int(rng.integers(0, self.size - 1))
            if target >= sender:
                target += 1
            inboxes.setdefault(target, []).append(bit)

        recipients = sorted(inboxes)
        kept = [
            inboxes[target][int(rng.integers(0, len(inboxes[target])))] for target in recipients
        ]
        heard[recipients] = True
        ones[recipients] = channel.transmit(np.asarray(kept, dtype=np.int8), rng)
        return DeliveryReport(heard, ones, int(senders.size))

    # ------------------------------------------------------------------
    def _draw_targets(self, senders: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw a uniformly random recipient among the other agents for every sender."""
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
    def _bit_grid(cells: np.ndarray, cell_bits: np.ndarray, workspace: _Workspace) -> np.ndarray:
        """The flat ``int8`` grid of the heard cells' bits, 0 wherever nothing was heard."""
        grid = np.zeros(workspace.counts.size, dtype=np.int8)
        grid[cells] = cell_bits
        return grid

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
