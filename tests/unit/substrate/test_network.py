"""Unit tests for repro.substrate.network."""

import numpy as np
import pytest

from repro.errors import ParameterError, ProtocolError
from repro.substrate.network import (
    BatchDeliveryReport,
    DeliveryReport,
    PushGossipNetwork,
    _Workspace,
)
from repro.substrate.noise import BinarySymmetricChannel, PerfectChannel


@pytest.fixture
def perfect():
    return PerfectChannel()


class TestDeliveryBasics:
    def test_empty_round(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        report = network.deliver(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8), perfect, rng)
        assert report.messages_sent == 0
        assert report.recipients.size == 0

    def test_single_sender_reaches_someone_else(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        report = network.deliver(np.asarray([4]), np.asarray([1], dtype=np.int8), perfect, rng)
        assert report.messages_sent == 1
        assert report.messages_delivered == 1
        assert report.recipients[0] != 4
        assert report.bits[0] == 1

    def test_no_self_messages_by_default(self, perfect, rng):
        network = PushGossipNetwork(size=5)
        for sender in range(5):
            for _ in range(40):
                report = network.deliver(
                    np.asarray([sender]), np.zeros(1, dtype=np.int8), perfect, rng
                )
                assert report.recipients.tolist() != [sender]

    def test_self_messages_allowed_when_enabled(self, perfect, rng):
        network = PushGossipNetwork(size=3, allow_self_messages=True)
        hit_self = False
        for _ in range(200):
            report = network.deliver(np.asarray([1]), np.zeros(1, dtype=np.int8), perfect, rng)
            hit_self = hit_self or report.recipients.tolist() == [1]
        assert hit_self

    def test_recipients_are_unique(self, perfect, rng):
        network = PushGossipNetwork(size=20)
        senders = np.arange(20)
        report = network.deliver(senders, np.ones(20, dtype=np.int8), perfect, rng)
        assert np.unique(report.recipients).size == report.recipients.size
        assert report.messages_delivered + report.messages_dropped == report.messages_sent

    def test_counters_accumulate(self, perfect, rng):
        network = PushGossipNetwork(size=20)
        for _ in range(3):
            network.deliver(np.arange(10), np.zeros(10, dtype=np.int8), perfect, rng)
        assert network.messages_sent_total == 30
        assert network.rounds_executed == 3


class TestValidation:
    def test_duplicate_senders_rejected(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        with pytest.raises(ProtocolError):
            network.deliver(np.asarray([1, 1]), np.asarray([0, 1], dtype=np.int8), perfect, rng)

    def test_sender_out_of_range_rejected(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        with pytest.raises(ProtocolError):
            network.deliver(np.asarray([10]), np.asarray([1], dtype=np.int8), perfect, rng)

    def test_invalid_bits_rejected(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        with pytest.raises(ProtocolError):
            network.deliver(np.asarray([1]), np.asarray([3], dtype=np.int8), perfect, rng)

    def test_shape_mismatch_rejected(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        with pytest.raises(ProtocolError):
            network.deliver(np.asarray([1, 2]), np.asarray([1], dtype=np.int8), perfect, rng)

    def test_tiny_network_rejected(self):
        with pytest.raises(ParameterError):
            PushGossipNetwork(size=1)


class TestCollisionStatistics:
    def test_collision_rate_matches_balls_in_bins(self, perfect, rng):
        """With n senders and n receivers the delivered fraction is ~1 - 1/e."""
        n = 2000
        network = PushGossipNetwork(size=n, allow_self_messages=True)
        report = network.deliver(np.arange(n), np.zeros(n, dtype=np.int8), perfect, rng)
        delivered_fraction = report.messages_delivered / n
        assert delivered_fraction == pytest.approx(1 - np.exp(-1), abs=0.03)

    def test_accepted_message_is_uniform_among_collisions(self, perfect):
        """When a 0 and a 1 collide at one recipient, each is kept about half the time."""
        rng = np.random.default_rng(7)
        # Agents 0 and 1 collide exactly when both pick agent 2.
        network = PushGossipNetwork(size=3)
        kept_zero = 0
        collisions = 0
        for _ in range(3000):
            report = network.deliver(
                np.asarray([0, 1]), np.asarray([0, 1], dtype=np.int8), perfect, rng
            )
            if report.recipients.size == 1 and report.recipients[0] == 2:
                collisions += 1
                kept_zero += int(report.bits[0] == 0)
        assert collisions > 500
        assert kept_zero / collisions == pytest.approx(0.5, abs=0.06)


class TestReferenceImplementation:
    def test_reference_agrees_statistically_with_vectorised(self, perfect):
        """The pure-Python reference and the vectorised path have the same delivery distribution."""
        n = 300
        senders = np.arange(n)
        bits = np.zeros(n, dtype=np.int8)

        def delivered_fraction(method_name, seed):
            network = PushGossipNetwork(size=n)
            rng = np.random.default_rng(seed)
            total = 0
            for _ in range(20):
                report = getattr(network, method_name)(senders, bits, perfect, rng)
                total += report.messages_delivered
            return total / (20 * n)

        fast = delivered_fraction("deliver", 1)
        slow = delivered_fraction("deliver_reference", 2)
        assert fast == pytest.approx(slow, abs=0.03)

    def test_empty_report_helper(self):
        report = DeliveryReport.empty()
        assert report.messages_sent == 0
        assert report.recipients.size == 0


class TestNoDeliveryPathCallsTransmit:
    """The channel's noise is folded into the count rule's one draw per
    heard cell: no delivery path runs ``transmit`` (or its bit checks)."""

    class _Refusing(BinarySymmetricChannel):
        def transmit(self, bits, rng):
            raise AssertionError("delivery called transmit")

    def test_serial_deliver(self):
        network = PushGossipNetwork(size=30)
        report = network.deliver(
            np.arange(30), np.arange(30) % 2, self._Refusing(0.2), np.random.default_rng(0)
        )
        assert report.messages_delivered > 0

    @pytest.mark.parametrize("faults", [False, True], ids=["fault-free", "resilient"])
    def test_batch_deliver(self, faults):
        from repro.substrate.faults import CrashStop, FaultInjector

        rng = np.random.default_rng(0)
        injector = FaultInjector(CrashStop(), 30, rng, num_replicates=3) if faults else None
        mask = np.ones((3, 30), dtype=bool)
        bits = np.arange(90).reshape(3, 30) % 2
        report = PushGossipNetwork(size=30).deliver_batch(
            mask, bits, self._Refusing(0.2), rng, faults=injector
        )
        assert report.cells.size > 0


def _unique_count_bits(buckets, one_buckets, channel, rng):
    """The count rule with ``np.unique`` counts: heard cells and noisy bits."""
    cells, counts = np.unique(buckets, return_counts=True)
    one_cells, one_counts = np.unique(one_buckets, return_counts=True)
    ones = np.zeros(cells.size, dtype=np.int64)
    ones[np.searchsorted(cells, one_cells)] = one_counts
    flip = channel.flip_probability
    noisy = rng.random(cells.size) < flip + (1.0 - 2.0 * flip) * (ones / counts)
    return cells.astype(np.int64), noisy.astype(np.int8)


def _unique_deliver(network, senders, bits, channel, rng):
    """Oracle: ``deliver``'s draws with each recipient's counts from ``np.unique``.

    The same ``integers`` / ``random`` draws in the same order (a target per
    sender in the given order, then one uniform per recipient in ascending
    order), with the per-recipient message and 1-message counts found by
    ``np.unique(..., return_counts=True)`` instead of the network's
    ``np.add.at`` into reused buffers.  Counters are left alone.
    """
    senders = np.asarray(senders, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.int8)
    if senders.size == 0:
        return DeliveryReport.empty()
    if network.allow_self_messages:
        targets = rng.integers(0, network.size, size=senders.size)
    else:
        draws = rng.integers(0, network.size - 1, size=senders.size)
        targets = draws + (draws >= senders)
    recipients, noisy = _unique_count_bits(targets, targets[bits == 1], channel, rng)
    sent, delivered = int(senders.size), int(recipients.size)
    return DeliveryReport(
        recipients=recipients,
        bits=noisy,
        messages_sent=sent,
        messages_delivered=delivered,
        messages_dropped=sent - delivered,
    )


class TestDeliverMatchesUniqueCountOracle:
    """``deliver`` counts each recipient's messages with ``np.add.at`` into
    reused buffers; it must reproduce the ``np.unique`` counts field for
    field, dtypes included, and leave the generator in the same state."""

    SEEDS = range(12)

    @pytest.mark.parametrize("n", [2, 3, 50, 2000])
    @pytest.mark.parametrize("allow_self", [False, True])
    @pytest.mark.parametrize("count", ["zero", "one", "random", "all"])
    def test_report_is_bit_identical(self, n, allow_self, count):
        channel = BinarySymmetricChannel(epsilon=0.2)
        for seed in self.SEEDS:
            picker = np.random.default_rng([seed, n])
            k = {"zero": 0, "one": 1, "random": int(picker.integers(0, n + 1)), "all": n}[count]
            senders = picker.choice(n, size=k, replace=False)
            bits = picker.integers(0, 2, size=k).astype(np.int8)

            network = PushGossipNetwork(size=n, allow_self_messages=allow_self)
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            report = network.deliver(senders, bits, channel, rng)
            expected = _unique_deliver(network, senders, bits, channel, oracle_rng)

            for name in ("recipients", "bits"):
                got, want = getattr(report, name), getattr(expected, name)
                assert got.dtype == want.dtype, (name, seed)
                assert np.array_equal(got, want), (name, seed)
            for name in ("messages_sent", "messages_delivered", "messages_dropped"):
                assert type(getattr(report, name)) is int, (name, seed)
                assert getattr(report, name) == getattr(expected, name), (name, seed)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state, seed
            assert np.all(np.diff(report.recipients) > 0), "recipients stay ascending"


def _unique_deliver_batch(network, send_mask, bits, channel, rng):
    """Oracle: ``deliver_batch``'s draws with the counts from ``np.unique``.

    The same ``integers`` / ``random`` draws in the same order: one target
    per message, the messages carrying a 1 first and each group in
    row-major order, then one uniform per heard cell in ascending order.
    Fault-free rounds only; counters are left alone.
    """
    num_replicates, size = send_mask.shape
    sent = send_mask.sum(axis=1).astype(np.int64)
    carries_one = send_mask & (bits != 0)
    positions = np.concatenate(
        (np.flatnonzero(carries_one), np.flatnonzero(send_mask & ~carries_one))
    )
    rows, cols = np.divmod(positions, size)
    cells = np.empty(0, dtype=np.int64)
    cell_bits = np.empty(0, dtype=np.int8)
    if rows.size:
        if network.allow_self_messages:
            targets = rng.integers(0, size, size=rows.size)
        else:
            draws = rng.integers(0, size - 1, size=rows.size)
            targets = draws + (draws >= cols)
        buckets = rows * size + targets
        ones = int(np.count_nonzero(carries_one))
        cells, cell_bits = _unique_count_bits(buckets, buckets[:ones], channel, rng)
    return BatchDeliveryReport(
        shape=(num_replicates, size), cells=cells, cell_bits=cell_bits, messages_sent=sent
    )


class TestDeliverBatchMatchesUniqueCountOracle:
    """``deliver_batch`` counts messages per flat cell with ``np.add.at`` over
    a ones-first layout; it must reproduce the ``np.unique`` counts field for
    field, dtypes included, and leave the generator in the same state."""

    SEEDS = range(6)
    BIT_DTYPES = (np.int8, np.int64, bool)

    @pytest.mark.parametrize("n", [2, 3, 50, 2000])
    @pytest.mark.parametrize("replicates", [1, 3, 8])
    @pytest.mark.parametrize("allow_self", [False, True])
    @pytest.mark.parametrize("density", ["none", "one", "random", "all"])
    def test_report_is_bit_identical(self, n, replicates, allow_self, density):
        channel = BinarySymmetricChannel(epsilon=0.2)
        for seed in self.SEEDS:
            picker = np.random.default_rng([seed, n, replicates])
            mask = np.zeros((replicates, n), dtype=bool)
            if density == "one":
                mask[picker.integers(0, replicates), picker.integers(0, n)] = True
            elif density == "random":
                mask = picker.random((replicates, n)) < picker.random()
            elif density == "all":
                mask[:] = True
            dtype = self.BIT_DTYPES[seed % len(self.BIT_DTYPES)]
            bits = picker.integers(0, 2, size=(replicates, n)).astype(dtype)

            network = PushGossipNetwork(size=n, allow_self_messages=allow_self)
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            report = network.deliver_batch(mask, bits, channel, rng)
            expected = _unique_deliver_batch(network, mask, bits, channel, oracle_rng)

            for name in ("cells", "cell_bits", "accepted", "bits", "messages_sent",
                         "messages_delivered"):
                got, want = getattr(report, name), getattr(expected, name)
                assert got.dtype == want.dtype, (name, seed)
                assert np.array_equal(got, want), (name, seed)
            assert np.array_equal(report.messages_delivered, expected.accepted.sum(axis=1))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state, seed


class TestCountStep:
    """The private count step every delivery path shares."""

    def test_counts_every_message_and_every_one(self):
        workspace = _Workspace((2, 5))
        buckets = np.array([3, 3, 7, 3, 9, 7])
        heard = PushGossipNetwork._count_messages(buckets, buckets[:2], workspace)
        assert heard.tolist() == [c in (3, 7, 9) for c in range(10)]
        assert workspace.counts.tolist() == [0, 0, 0, 3, 0, 0, 0, 2, 0, 1]
        assert workspace.ones.tolist() == [0, 0, 0, 2, 0, 0, 0, 0, 0, 0]

    def test_buffers_are_wiped_between_rounds(self):
        workspace = _Workspace((1, 4))
        PushGossipNetwork._count_messages(np.array([0, 0, 1]), np.array([0]), workspace)
        heard = PushGossipNetwork._count_messages(np.array([2]), np.array([2]), workspace)
        assert np.flatnonzero(heard).tolist() == [2]
        assert workspace.counts.tolist() == [0, 0, 1, 0]
        assert workspace.ones.tolist() == [0, 0, 1, 0]

    @pytest.mark.parametrize("faults", [False, True], ids=["fault-free", "resilient"])
    def test_rounds_of_one_shape_reuse_the_buffers(self, faults):
        from repro.substrate.faults import CrashStop, FaultInjector

        network, rng = PushGossipNetwork(size=20), np.random.default_rng(1)
        injector = FaultInjector(CrashStop(), 20, rng, num_replicates=2) if faults else None
        mask = np.ones((2, 20), dtype=bool)
        bits = np.arange(40).reshape(2, 20) % 2
        network.deliver_batch(mask, bits, PerfectChannel(), rng, faults=injector)
        workspace = network._workspace
        buffers = (workspace.counts, workspace.ones)
        for _ in range(3):
            network.deliver_batch(mask, 1 - bits, PerfectChannel(), rng, faults=injector)
        assert network._workspace is workspace
        kept = (workspace.counts, workspace.ones)
        assert all(old is new for old, new in zip(buffers, kept))

    def test_noiseless_cells_keep_a_one_with_probability_ones_over_count(self):
        """Over a perfect channel a cell that heard O ones among N messages
        keeps a 1 with probability O / N (here 1/3, 1 and 0)."""
        workspace = _Workspace((1, 3))
        buckets = np.array([0, 1, 0, 0, 2])  # ones first: cells 0 and 1 hear one 1 each
        cells = np.flatnonzero(PushGossipNetwork._count_messages(buckets, buckets[:2], workspace))
        draws = np.random.default_rng(2).random(6000)
        kept = np.array([
            PushGossipNetwork._noisy_bits(cells, np.full(cells.size, u), workspace, PerfectChannel())
            for u in draws
        ])
        assert kept[:, 0].mean() == pytest.approx(1 / 3, abs=0.03)
        assert kept[:, 1].all() and not kept[:, 2].any()


class TestValidationOnEverySerialPath:
    """The O(n) duplicate-sender check keeps the validator's errors, messages
    and check order on both serial entry points, and bits are range-checked
    before any cast could wrap or truncate them."""

    @staticmethod
    def _entry_points(network, perfect, rng):
        return {
            "deliver": lambda s, b: network.deliver(s, b, perfect, rng),
            "deliver_reference": lambda s, b: network.deliver_reference(s, b, perfect, rng),
        }

    @pytest.mark.parametrize(
        "senders, bits, message",
        [
            ([1, 1], [0, 1], "at most one message"),
            ([0, 9, 0], [1, 1, 1], "at most one message"),
            ([10], [1], "out of range"),
            ([-1], [1], "out of range"),
            ([10, 10], [1, 1], "out of range"),  # range is checked before duplicates
            ([3], [3], "0 or 1"),
            ([2], [-1], "0 or 1"),
            ([4, 4], [2, 2], "at most one message"),  # duplicates before bits
            # An int8 cast would turn these into 0, 1, 1 and 0.
            ([1], [256], "0 or 1"),
            ([1], [257], "0 or 1"),
            ([1], [-255], "0 or 1"),
            ([1], [0.9], "0 or 1"),
            ([1, 2], [1.0, 0.0], "dtype float64"),  # non-integer dtypes are refused
        ],
    )
    def test_bad_inputs_raise(self, perfect, rng, senders, bits, message):
        network = PushGossipNetwork(size=10)
        for name, entry in self._entry_points(network, perfect, rng).items():
            with pytest.raises(ProtocolError, match=message):
                entry(np.asarray(senders), np.asarray(bits))
            assert network.rounds_executed == 0, name

    def test_distinct_senders_pass(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        entries = self._entry_points(network, perfect, rng)
        for entry in entries.values():
            entry(np.asarray([9, 0, 4]), np.asarray([1, 0, 1], dtype=np.int8))
            entry(np.asarray([2, 3]), np.asarray([True, False]))
        assert network.rounds_executed == 2 * len(entries)

    @pytest.mark.parametrize("faults", [False, True], ids=["fault-free", "resilient"])
    def test_batch_rejects_bits_a_cast_would_change(self, perfect, faults):
        from repro.substrate.faults import CrashStop, FaultInjector

        network = PushGossipNetwork(size=6)
        rng = np.random.default_rng(0)
        injector = FaultInjector(CrashStop(), 6, rng, num_replicates=2) if faults else None
        mask = np.ones((2, 6), dtype=bool)
        with pytest.raises(ProtocolError, match="dtype float64"):
            network.deliver_batch(mask, np.full((2, 6), 0.9), perfect, rng, faults=injector)
        with pytest.raises(ProtocolError, match="0 or 1"):
            network.deliver_batch(mask, np.full((2, 6), 256), perfect, rng, faults=injector)
        assert network.rounds_executed == 0

    @pytest.mark.parametrize("faults", [False, True], ids=["fault-free", "resilient"])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
    def test_batch_rejects_a_non_boolean_send_mask(self, perfect, faults, dtype):
        """An opinion grid (-1 = no opinion) passed as the mask must not be
        cast: that would make the -1 agents speak and the 0 agents silent."""
        from repro.substrate.faults import CrashStop, FaultInjector

        network = PushGossipNetwork(size=6)
        rng = np.random.default_rng(0)
        injector = FaultInjector(CrashStop(), 6, rng, num_replicates=2) if faults else None
        opinions = np.array([[-1, 0, 1, -1, 0, 1], [1, 1, 0, 0, -1, -1]], dtype=dtype)
        bits = np.zeros((2, 6), dtype=np.int8)
        with pytest.raises(ProtocolError, match="send_mask must be a boolean grid"):
            network.deliver_batch(opinions, bits, perfect, rng, faults=injector)
        assert network.rounds_executed == 0


class TestDeliverBatchRounds:
    """``deliver_batch(..., rounds=L)`` runs ``L`` rounds of one input, draw
    for draw: one call must equal ``L`` one-round calls from the same
    generator state in every total, in the network's counters and in the
    generator's next draw."""

    N, L = 60, 7

    @staticmethod
    def _inputs(replicates, size, fraction, seed):
        picker = np.random.default_rng([seed, replicates, size])
        mask = picker.random((replicates, size)) < fraction
        bits = picker.integers(0, 2, size=(replicates, size)).astype(np.int8)
        return mask, bits

    @pytest.mark.parametrize("channel", [BinarySymmetricChannel(0.2), PerfectChannel()],
                             ids=["bsc", "perfect"])
    @pytest.mark.parametrize("replicates", [1, 8])
    @pytest.mark.parametrize("fraction", [1.0, 0.1, 0.0], ids=["full", "tenth", "empty"])
    @pytest.mark.parametrize("allow_self", [False, True])
    def test_one_call_equals_single_round_calls(self, channel, replicates, fraction, allow_self):
        mask, bits = self._inputs(replicates, self.N, fraction, seed=3)
        fused_net = PushGossipNetwork(size=self.N, allow_self_messages=allow_self)
        loop_net = PushGossipNetwork(size=self.N, allow_self_messages=allow_self)
        fused_rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)

        fused = fused_net.deliver_batch(mask, bits, channel, fused_rng, rounds=self.L)

        heard = np.zeros((replicates, self.N), dtype=np.int64)
        ones = np.zeros((replicates, self.N), dtype=np.int64)
        sent = np.zeros(replicates, dtype=np.int64)
        delivered = np.zeros(replicates, dtype=np.int64)
        for _ in range(self.L):
            report = loop_net.deliver_batch(mask, bits, channel, loop_rng)
            heard += report.accepted
            ones += report.bits
            sent += report.messages_sent
            delivered += report.messages_delivered

        assert fused.rounds == self.L
        assert np.array_equal(fused.heard, heard)
        assert np.array_equal(fused.ones, ones)
        assert np.array_equal(fused.messages_sent, sent)
        assert np.array_equal(fused.messages_delivered, delivered)
        assert np.array_equal(fused.messages_dropped, sent - delivered)
        for counter in ("rounds_executed", "messages_sent_total", "messages_delivered_total",
                        "messages_dropped_total"):
            assert getattr(fused_net, counter) == getattr(loop_net, counter), counter
        assert fused_rng.random() == loop_rng.random()
        assert heard.any() == mask.any(), "the case must exercise delivery when anyone sends"

    def test_one_round_returns_the_round_report(self, perfect):
        mask, bits = self._inputs(2, self.N, 0.5, seed=1)
        report = PushGossipNetwork(size=self.N).deliver_batch(
            mask, bits, perfect, np.random.default_rng(2), rounds=1
        )
        assert isinstance(report, BatchDeliveryReport)
        assert report.heard is report.accepted and report.ones is report.bits

    @pytest.mark.parametrize("rounds", [1, 5])
    def test_a_report_is_unchanged_by_the_next_call(self, rounds):
        """No report aliases the network's count buffers."""
        channel = BinarySymmetricChannel(0.2)
        mask, bits = self._inputs(4, self.N, 0.6, seed=0)
        network, rng = PushGossipNetwork(size=self.N), np.random.default_rng(3)
        first = network.deliver_batch(mask, bits, channel, rng, rounds=rounds)
        kept = {name: getattr(first, name).copy() for name in ("heard", "ones", "messages_sent")}
        network.deliver_batch(mask, 1 - bits, channel, rng, rounds=rounds)
        for name, values in kept.items():
            assert np.array_equal(getattr(first, name), values), name

    def test_rounds_with_a_fault_injector_are_refused(self, perfect):
        """An injector decides crashes and corruption round by round, so a
        faulty call runs one round; a longer one raises before any draw."""
        from repro.substrate.faults import CrashStop, FaultInjector

        mask, bits = self._inputs(2, self.N, 1.0, seed=4)
        network, rng = PushGossipNetwork(size=self.N), np.random.default_rng(3)
        injector = FaultInjector(CrashStop(), self.N, np.random.default_rng(1), num_replicates=2)
        state = rng.bit_generator.state
        with pytest.raises(ProtocolError, match="round by round"):
            network.deliver_batch(mask, bits, perfect, rng, faults=injector, rounds=2)
        assert network.rounds_executed == 0
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rounds_below_one_are_refused(self, perfect, rounds):
        mask, bits = self._inputs(2, self.N, 1.0, seed=4)
        network = PushGossipNetwork(size=self.N)
        with pytest.raises(ParameterError, match="rounds"):
            network.deliver_batch(mask, bits, perfect, np.random.default_rng(0), rounds=rounds)
        assert network.rounds_executed == 0
