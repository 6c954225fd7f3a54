"""Unit tests for repro.substrate.network."""

import numpy as np
import pytest

from repro.errors import ParameterError, ProtocolError
from repro.substrate.faults import CrashStop, FaultInjector
from repro.substrate.network import DeliveryReport, PushGossipNetwork, _Workspace
from repro.substrate.noise import BinarySymmetricChannel, PerfectChannel

#: The channel axis of the oracle tests: a noisy channel and the noiseless
#: one, whose zero flip probability skips the count rule's noise step.
CHANNELS = pytest.mark.parametrize(
    "channel", [BinarySymmetricChannel(epsilon=0.2), PerfectChannel()], ids=["bsc", "perfect"]
)


@pytest.fixture
def perfect():
    return PerfectChannel()


class TestDeliveryBasics:
    def test_empty_round(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        state = rng.bit_generator.state
        report = network.deliver(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8), perfect, rng)
        assert report.messages_sent == 0 and report.messages_delivered == 0
        assert report.heard.shape == report.ones.shape == (10,)
        assert not report.heard.any() and not report.ones.any()
        assert rng.bit_generator.state == state, "an empty round draws nothing"

    def test_single_sender_reaches_someone_else(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        report = network.deliver(np.asarray([4]), np.asarray([1], dtype=np.int8), perfect, rng)
        assert report.messages_sent == 1
        assert report.messages_delivered == 1
        (recipient,) = np.flatnonzero(report.heard)
        assert recipient != 4
        assert report.ones[recipient] == 1

    def test_no_self_messages(self, perfect, rng):
        network = PushGossipNetwork(size=5)
        for sender in range(5):
            for _ in range(40):
                report = network.deliver(
                    np.asarray([sender]), np.zeros(1, dtype=np.int8), perfect, rng
                )
                assert not report.heard[sender]

    def test_every_other_agent_is_reached(self, perfect, rng):
        network = PushGossipNetwork(size=3)
        reached = np.zeros(3, dtype=bool)
        for _ in range(200):
            report = network.deliver(np.asarray([1]), np.zeros(1, dtype=np.int8), perfect, rng)
            reached |= report.heard
        assert reached.tolist() == [True, False, True]

    def test_each_recipient_accepts_one_message(self, perfect, rng):
        network = PushGossipNetwork(size=20)
        senders = np.arange(20)
        report = network.deliver(senders, np.ones(20, dtype=np.int8), perfect, rng)
        assert report.heard.dtype == bool and report.ones.dtype == np.int8
        assert np.array_equal(report.ones, report.heard), "a perfect channel keeps every 1"
        assert report.messages_delivered + report.messages_dropped == report.messages_sent

    def test_reports_add_up_over_rounds(self, perfect, rng):
        network = PushGossipNetwork(size=20)
        reports = [
            network.deliver(np.arange(10), np.zeros(10, dtype=np.int8), perfect, rng)
            for _ in range(3)
        ]
        assert sum(report.messages_sent for report in reports) == 30
        assert sum(report.messages_delivered for report in reports) == sum(
            int(report.heard.sum()) for report in reports
        )


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
        network = PushGossipNetwork(size=n)
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
            if report.heard.tolist() == [False, False, True]:
                collisions += 1
                kept_zero += int(report.ones[2] == 0)
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

    def test_reference_reports_an_empty_round(self, perfect, rng):
        network = PushGossipNetwork(size=6)
        state = rng.bit_generator.state
        report = network.deliver_reference(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8), perfect, rng
        )
        assert report.messages_sent == 0 and report.messages_dropped == 0
        assert report.heard.shape == report.ones.shape == (6,)
        assert not report.heard.any() and not report.ones.any()
        assert rng.bit_generator.state == state


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
        rng = np.random.default_rng(0)
        injector = FaultInjector(CrashStop(), 30, rng, num_replicates=3) if faults else None
        mask = np.ones((3, 30), dtype=bool)
        bits = np.arange(90).reshape(3, 30) % 2
        report = PushGossipNetwork(size=30).deliver_batch(
            mask, bits, self._Refusing(0.2), rng, faults=injector
        )
        assert report.heard.any()


def _unique_count_grids(buckets, one_buckets, cells_total, channel, rng):
    """The count rule with ``np.unique`` counts: flat heard and noisy-bit grids."""
    cells, counts = np.unique(buckets, return_counts=True)
    one_cells, one_counts = np.unique(one_buckets, return_counts=True)
    ones = np.zeros(cells.size, dtype=np.int64)
    ones[np.searchsorted(cells, one_cells)] = one_counts
    flip = channel.flip_probability
    noisy = rng.random(cells.size) < flip + (1.0 - 2.0 * flip) * (ones / counts)
    heard = np.zeros(cells_total, dtype=bool)
    bit_grid = np.zeros(cells_total, dtype=np.int8)
    heard[cells] = True
    bit_grid[cells] = noisy
    return heard, bit_grid


def _unique_deliver(network, senders, bits, channel, rng):
    """Oracle: ``deliver``'s draws with each recipient's counts from ``np.unique``.

    The same ``integers`` / ``random`` draws in the same order (a target per
    sender in the given order, then one uniform per recipient in ascending
    order), with the per-recipient message and 1-message counts found by
    ``np.unique(..., return_counts=True)`` instead of the network's
    ``np.add.at`` into reused buffers.
    """
    senders = np.asarray(senders, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.int8)
    heard = np.zeros(network.size, dtype=bool)
    ones = np.zeros(network.size, dtype=np.int8)
    if senders.size:
        draws = rng.integers(0, network.size - 1, size=senders.size)
        targets = draws + (draws >= senders)
        heard, ones = _unique_count_grids(
            targets, targets[bits == 1], network.size, channel, rng
        )
    return DeliveryReport(heard, ones, int(senders.size))


class TestDeliverMatchesUniqueCountOracle:
    """``deliver`` counts each recipient's messages with ``np.add.at`` into
    reused buffers; it must reproduce the ``np.unique`` counts field for
    field, dtypes included, and leave the generator in the same state."""

    SEEDS = range(12)

    @pytest.mark.parametrize("n", [2, 3, 50, 2000])
    @CHANNELS
    @pytest.mark.parametrize("count", ["zero", "one", "random", "all"])
    def test_report_is_bit_identical(self, n, channel, count):
        for seed in self.SEEDS:
            picker = np.random.default_rng([seed, n])
            k = {"zero": 0, "one": 1, "random": int(picker.integers(0, n + 1)), "all": n}[count]
            senders = picker.choice(n, size=k, replace=False)
            bits = picker.integers(0, 2, size=k).astype(np.int8)

            network = PushGossipNetwork(size=n)
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            report = network.deliver(senders, bits, channel, rng)
            expected = _unique_deliver(network, senders, bits, channel, oracle_rng)

            for name in ("heard", "ones"):
                got, want = getattr(report, name), getattr(expected, name)
                assert got.dtype == want.dtype, (name, seed)
                assert np.array_equal(got, want), (name, seed)
            assert type(report.messages_sent) is int, seed
            for name in ("messages_sent", "messages_delivered", "messages_dropped"):
                assert getattr(report, name) == getattr(expected, name), (name, seed)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state, seed


def _unique_deliver_batch(network, send_mask, bits, channel, rng):
    """Oracle: ``deliver_batch``'s draws with the counts from ``np.unique``.

    The same ``integers`` / ``random`` draws in the same order: one target
    per message, the messages carrying a 1 first and each group in
    row-major order, then one uniform per heard cell in ascending order.
    Fault-free rounds only.
    """
    num_replicates, size = send_mask.shape
    sent = send_mask.sum(axis=1).astype(np.int64)
    carries_one = send_mask & (bits != 0)
    positions = np.concatenate(
        (np.flatnonzero(carries_one), np.flatnonzero(send_mask & ~carries_one))
    )
    rows, cols = np.divmod(positions, size)
    heard = np.zeros(num_replicates * size, dtype=bool)
    ones = np.zeros(num_replicates * size, dtype=np.int8)
    if rows.size:
        draws = rng.integers(0, size - 1, size=rows.size)
        buckets = rows * size + draws + (draws >= cols)
        count = int(np.count_nonzero(carries_one))
        heard, ones = _unique_count_grids(buckets, buckets[:count], heard.size, channel, rng)
    shape = (num_replicates, size)
    return DeliveryReport(heard.reshape(shape), ones.reshape(shape), sent)


class TestDeliverBatchMatchesUniqueCountOracle:
    """``deliver_batch`` counts messages per flat cell with ``np.add.at`` over
    a ones-first layout; it must reproduce the ``np.unique`` counts field for
    field, dtypes included, and leave the generator in the same state."""

    SEEDS = range(6)
    BIT_DTYPES = (np.int8, np.int64, bool)

    @pytest.mark.parametrize("n", [2, 3, 50, 2000])
    @pytest.mark.parametrize("replicates", [1, 3, 8])
    @CHANNELS
    @pytest.mark.parametrize("density", ["none", "one", "random", "all"])
    def test_report_is_bit_identical(self, n, replicates, channel, density):
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

            network = PushGossipNetwork(size=n)
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            report = network.deliver_batch(mask, bits, channel, rng)
            expected = _unique_deliver_batch(network, mask, bits, channel, oracle_rng)

            for name in ("heard", "ones", "messages_sent", "messages_delivered"):
                got, want = getattr(report, name), getattr(expected, name)
                assert got.dtype == want.dtype, (name, seed)
                assert np.array_equal(got, want), (name, seed)
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
        state = rng.bit_generator.state
        for name, entry in self._entry_points(network, perfect, rng).items():
            with pytest.raises(ProtocolError, match=message):
                entry(np.asarray(senders), np.asarray(bits))
            assert rng.bit_generator.state == state, name

    def test_distinct_senders_pass(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        for name, entry in self._entry_points(network, perfect, rng).items():
            report = entry(np.asarray([9, 0, 4]), np.asarray([1, 0, 1], dtype=np.int8))
            assert report.messages_sent == 3, name
            report = entry(np.asarray([2, 3]), np.asarray([True, False]))
            assert report.messages_sent == 2, name

    @pytest.mark.parametrize("faults", [False, True], ids=["fault-free", "resilient"])
    def test_batch_rejects_bits_a_cast_would_change(self, perfect, faults):
        network = PushGossipNetwork(size=6)
        rng = np.random.default_rng(0)
        injector = FaultInjector(CrashStop(), 6, rng, num_replicates=2) if faults else None
        mask = np.ones((2, 6), dtype=bool)
        state = rng.bit_generator.state
        with pytest.raises(ProtocolError, match="dtype float64"):
            network.deliver_batch(mask, np.full((2, 6), 0.9), perfect, rng, faults=injector)
        with pytest.raises(ProtocolError, match="0 or 1"):
            network.deliver_batch(mask, np.full((2, 6), 256), perfect, rng, faults=injector)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("faults", [False, True], ids=["fault-free", "resilient"])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
    def test_batch_rejects_a_non_boolean_send_mask(self, perfect, faults, dtype):
        """An opinion grid (-1 = no opinion) passed as the mask must not be
        cast: that would make the -1 agents speak and the 0 agents silent."""
        network = PushGossipNetwork(size=6)
        rng = np.random.default_rng(0)
        injector = FaultInjector(CrashStop(), 6, rng, num_replicates=2) if faults else None
        opinions = np.array([[-1, 0, 1, -1, 0, 1], [1, 1, 0, 0, -1, -1]], dtype=dtype)
        bits = np.zeros((2, 6), dtype=np.int8)
        state = rng.bit_generator.state
        with pytest.raises(ProtocolError, match="send_mask must be a boolean grid"):
            network.deliver_batch(opinions, bits, perfect, rng, faults=injector)
        assert rng.bit_generator.state == state


class TestDeliverBatchRounds:
    """``deliver_batch(..., rounds=L)`` runs ``L`` rounds of one input, draw
    for draw: one call must equal ``L`` one-round calls from the same
    generator state in every total and in the generator's next draw."""

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
    @pytest.mark.parametrize("size", [N, 3])
    def test_one_call_equals_single_round_calls(self, channel, replicates, fraction, size):
        mask, bits = self._inputs(replicates, size, fraction, seed=3)
        fused_net, loop_net = PushGossipNetwork(size=size), PushGossipNetwork(size=size)
        fused_rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)

        fused = fused_net.deliver_batch(mask, bits, channel, fused_rng, rounds=self.L)

        heard = np.zeros((replicates, size), dtype=np.int64)
        ones = np.zeros((replicates, size), dtype=np.int64)
        sent = np.zeros(replicates, dtype=np.int64)
        delivered = np.zeros(replicates, dtype=np.int64)
        for _ in range(self.L):
            report = loop_net.deliver_batch(mask, bits, channel, loop_rng)
            heard += report.heard
            ones += report.ones
            sent += report.messages_sent
            delivered += report.messages_delivered

        assert np.array_equal(fused.heard, heard)
        assert np.array_equal(fused.ones, ones)
        assert np.array_equal(fused.messages_sent, sent)
        assert np.array_equal(fused.messages_delivered, delivered)
        assert np.array_equal(fused.messages_dropped, sent - delivered)
        assert fused_rng.random() == loop_rng.random()
        assert heard.any() == mask.any(), "the case must exercise delivery when anyone sends"

    def test_one_round_reports_the_round_flags_and_bits(self, perfect):
        mask, bits = self._inputs(2, self.N, 0.5, seed=1)
        report = PushGossipNetwork(size=self.N).deliver_batch(
            mask, bits, perfect, np.random.default_rng(2), rounds=1
        )
        assert report.heard.dtype == bool and report.ones.dtype == np.int8
        assert not report.ones[~report.heard].any(), "no bit where nothing was heard"

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
        mask, bits = self._inputs(2, self.N, 1.0, seed=4)
        network, rng = PushGossipNetwork(size=self.N), np.random.default_rng(3)
        injector = FaultInjector(CrashStop(), self.N, np.random.default_rng(1), num_replicates=2)
        state = rng.bit_generator.state
        with pytest.raises(ProtocolError, match="round by round"):
            network.deliver_batch(mask, bits, perfect, rng, faults=injector, rounds=2)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rounds_below_one_are_refused(self, perfect, rounds):
        mask, bits = self._inputs(2, self.N, 1.0, seed=4)
        network, rng = PushGossipNetwork(size=self.N), np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="rounds"):
            network.deliver_batch(mask, bits, perfect, rng, rounds=rounds)
        assert rng.bit_generator.state == state



def _serial_call(method):
    """Run ``method`` on replicate 0 of the grids, as a serial round."""
    def call(network, mask, bits, channel, rng):
        senders = np.flatnonzero(mask[0])
        return getattr(network, method)(senders, bits[0, senders], channel, rng)
    return call


def _batch_call(rounds=1, faults=False):
    """Run ``deliver_batch`` for ``rounds`` rounds, under a fault-free injector if ``faults``."""
    def call(network, mask, bits, channel, rng):
        injector = None
        if faults:
            injector = FaultInjector(
                CrashStop(fraction=0.0), mask.shape[1], np.random.default_rng(1),
                num_replicates=mask.shape[0],
            )
        return network.deliver_batch(mask, bits, channel, rng, faults=injector, rounds=rounds)
    return call


class TestOneReportContract:
    """Every entry point returns a :class:`DeliveryReport` of per-cell counts
    with the same meaning: serial calls over the ``(n,)`` agents, batch calls
    over the ``(R, n)`` grid, one round or several, with or without faults."""

    N = 40

    #: name -> (replicates, rounds, call); the serial calls report on ``(n,)``.
    ENTRY_POINTS = {
        "serial": (1, 1, _serial_call("deliver")),
        "reference": (1, 1, _serial_call("deliver_reference")),
        "batch-R1": (1, 1, _batch_call()),
        "batch-R8": (8, 1, _batch_call()),
        "batch-R8-rounds40": (8, 40, _batch_call(rounds=40)),
        "resilient-R8": (8, 1, _batch_call(faults=True)),
    }

    @CHANNELS
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_report_contract(self, entry, channel):
        replicates, rounds, call = self.ENTRY_POINTS[entry]
        picker = np.random.default_rng(replicates)
        mask = picker.random((replicates, self.N)) < 0.7
        bits = picker.integers(0, 2, size=(replicates, self.N)).astype(np.int8)
        report = call(PushGossipNetwork(size=self.N), mask, bits, channel, np.random.default_rng(9))

        serial = entry in ("serial", "reference")
        sent = mask.sum(axis=1) * rounds
        assert isinstance(report, DeliveryReport)
        assert report.heard.shape == report.ones.shape == ((self.N,) if serial else mask.shape)
        assert np.all(report.ones >= 0) and np.all(report.ones <= report.heard)
        assert np.all(report.heard <= rounds)
        assert np.array_equal(report.messages_delivered, report.heard.sum(axis=-1))
        assert np.all(report.messages_dropped >= 0)
        assert np.array_equal(report.messages_sent, sent[0] if serial else sent)
        assert report.heard.any(), "the contract must not hold vacuously"
