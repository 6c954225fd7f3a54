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
from repro.substrate.noise import PerfectChannel


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
        assert report.senders[0] == 4

    def test_no_self_messages_by_default(self, perfect, rng):
        network = PushGossipNetwork(size=5)
        senders = np.arange(5)
        for _ in range(200):
            report = network.deliver(senders, np.zeros(5, dtype=np.int8), perfect, rng)
            assert not np.any(report.recipients == report.senders)

    def test_self_messages_allowed_when_enabled(self, perfect, rng):
        network = PushGossipNetwork(size=3, allow_self_messages=True)
        hit_self = False
        for _ in range(200):
            report = network.deliver(np.arange(3), np.zeros(3, dtype=np.int8), perfect, rng)
            hit_self = hit_self or bool(np.any(report.recipients == report.senders))
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
        """When two senders always target the same receiver, each wins about half the time."""
        rng = np.random.default_rng(7)
        network = PushGossipNetwork(size=2, allow_self_messages=False)
        # With n=2 and no self messages, both agents always send to each other...
        # so use 3 agents where agents 0 and 1 both have only agent 2 as a
        # possible target in a size-3 network when targets collide.
        wins_for_zero = 0
        collisions = 0
        network = PushGossipNetwork(size=3)
        for _ in range(3000):
            report = network.deliver(
                np.asarray([0, 1]), np.asarray([0, 1], dtype=np.int8), perfect, rng
            )
            if report.recipients.size == 1 and report.recipients[0] == 2:
                collisions += 1
                wins_for_zero += int(report.senders[0] == 0)
        assert collisions > 500
        assert wins_for_zero / collisions == pytest.approx(0.5, abs=0.06)


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


class TestDeliverBatchNoiseStreamOrder:
    """Differential test for the in-code claim at the end of deliver_batch:
    noising the winner bits directly (one ``transmit`` call on the
    bucket-ascending winners) consumes the channel RNG in exactly the same
    replicate-major, recipient-ascending order as
    ``NoiseChannel.transmit_batch`` over the accepted grid would."""

    def test_single_transmit_matches_transmit_batch_bit_for_bit(self):
        from repro.substrate.noise import BinarySymmetricChannel

        n, R, seed = 40, 8, 2024
        mask = np.ones((R, n), dtype=bool)
        bits = (np.arange(R * n).reshape(R, n) % 2).astype(np.int8)

        # Pass 1 — PerfectChannel consumes no channel randomness, so after
        # this call rng_clean sits exactly where the noise draw would begin,
        # and the report carries the accepted mask and the pre-noise bits.
        rng_clean = np.random.default_rng(seed)
        clean = PushGossipNetwork(size=n).deliver_batch(mask, bits, PerfectChannel(), rng_clean)
        assert clean.accepted.any()

        # Pass 2 — the same round with a noisy channel: targets/priorities
        # consume identically, then deliver_batch noises the winners with a
        # single transmit call.
        rng_noisy = np.random.default_rng(seed)
        noisy = PushGossipNetwork(size=n).deliver_batch(
            mask, bits, BinarySymmetricChannel(epsilon=0.2), rng_noisy
        )
        assert np.array_equal(clean.accepted, noisy.accepted)

        # Applying transmit_batch to the clean grid from the positioned
        # generator must reproduce the noisy grid bit for bit.
        reference = BinarySymmetricChannel(epsilon=0.2).transmit_batch(
            clean.bits, clean.accepted, rng_clean
        )
        assert np.array_equal(reference, noisy.bits)
        # And the generators end in the same state (no hidden extra draws).
        assert np.array_equal(rng_clean.integers(0, 1 << 30, 8), rng_noisy.integers(0, 1 << 30, 8))


def _unique_deliver(network, senders, bits, channel, rng):
    """Oracle: ``deliver``'s draws resolved with the sort-based collision rule.

    The same ``integers`` / ``permutation`` / ``transmit`` draws in the same
    order, with each recipient's first permuted occurrence found by
    ``np.unique(..., return_index=True)`` (a stable sort) instead of the
    O(n) ``np.minimum.at`` scatter.  Counters are left alone.
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
    order = rng.permutation(senders.size)
    recipients, first_position = np.unique(targets[order], return_index=True)
    accepted = order[first_position]
    accepted_bits = channel.transmit(bits[accepted], rng)
    sent, delivered = int(senders.size), int(recipients.size)
    return DeliveryReport(
        recipients=recipients.astype(np.int64),
        bits=accepted_bits.astype(np.int8),
        senders=senders[accepted],
        messages_sent=sent,
        messages_delivered=delivered,
        messages_dropped=sent - delivered,
    )


class TestDeliverMatchesUniqueOracle:
    """``deliver`` resolves collisions with a first-occurrence scatter; it must
    reproduce the sort-based rule field for field, dtypes included, and
    leave the generator in the same state."""

    SEEDS = range(12)

    @pytest.mark.parametrize("n", [2, 3, 50, 2000])
    @pytest.mark.parametrize("allow_self", [False, True])
    @pytest.mark.parametrize("count", ["zero", "one", "random", "all"])
    def test_report_is_bit_identical(self, n, allow_self, count):
        from repro.substrate.noise import BinarySymmetricChannel

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

            for name in ("recipients", "bits", "senders"):
                got, want = getattr(report, name), getattr(expected, name)
                assert got.dtype == want.dtype, (name, seed)
                assert np.array_equal(got, want), (name, seed)
            for name in ("messages_sent", "messages_delivered", "messages_dropped"):
                assert type(getattr(report, name)) is int, (name, seed)
                assert getattr(report, name) == getattr(expected, name), (name, seed)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state, seed
            assert np.all(np.diff(report.recipients) > 0), "recipients stay ascending"


def _argsort_deliver_batch(network, send_mask, bits, channel, rng):
    """Oracle: ``deliver_batch``'s draws resolved with the sort-based rule.

    The same ``integers`` / ``random`` / ``transmit`` draws in the same order,
    with each (replicate, recipient) bucket's winner found by one argsort of
    the combined float key ``bucket + priority`` instead of the O(m)
    scatter-min.  Fault-free rounds only; counters are left alone.
    """
    num_replicates, size = send_mask.shape
    sent = send_mask.sum(axis=1).astype(np.int64)
    accepted = np.zeros((num_replicates, size), dtype=bool)
    accepted_bits = np.zeros((num_replicates, size), dtype=np.int8)
    accepted_senders = np.full((num_replicates, size), -1, dtype=np.int64)
    rows, cols = np.nonzero(send_mask)
    if rows.size:
        if network.allow_self_messages:
            targets = rng.integers(0, size, size=rows.size)
        else:
            draws = rng.integers(0, size - 1, size=rows.size)
            targets = draws + (draws >= cols)
        priorities = rng.random(rows.size)
        buckets = rows * size + targets
        order = np.argsort(buckets + priorities)
        sorted_buckets = buckets[order]
        is_first = np.ones(order.size, dtype=bool)
        is_first[1:] = sorted_buckets[1:] != sorted_buckets[:-1]
        winners = order[is_first]
        winning_buckets = buckets[winners]
        accepted.reshape(-1)[winning_buckets] = True
        accepted_senders.reshape(-1)[winning_buckets] = cols[winners]
        noisy = channel.transmit(bits[rows[winners], cols[winners]], rng)
        accepted_bits.reshape(-1)[winning_buckets] = noisy
    return BatchDeliveryReport.from_grids(accepted, accepted_bits, accepted_senders, sent)


class TestDeliverBatchMatchesSortOracle:
    """``deliver_batch`` resolves collisions with a scatter-min over flat
    buckets; it must reproduce the combined-key argsort rule field for field,
    dtypes included, and leave the generator in the same state."""

    SEEDS = range(6)
    BIT_DTYPES = (np.int8, np.int64, bool)

    @pytest.mark.parametrize("n", [2, 3, 50, 2000])
    @pytest.mark.parametrize("replicates", [1, 3, 8])
    @pytest.mark.parametrize("allow_self", [False, True])
    @pytest.mark.parametrize("density", ["none", "one", "random", "all"])
    def test_report_is_bit_identical(self, n, replicates, allow_self, density):
        from repro.substrate.noise import BinarySymmetricChannel

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
            expected = _argsort_deliver_batch(network, mask, bits, channel, oracle_rng)

            for name in ("accepted", "bits", "senders", "messages_sent", "messages_delivered"):
                got, want = getattr(report, name), getattr(expected, name)
                assert got.dtype == want.dtype, (name, seed)
                assert np.array_equal(got, want), (name, seed)
            assert np.array_equal(report.messages_delivered, expected.accepted.sum(axis=1))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state, seed

    def test_exact_priority_tie_keeps_one_winner(self):
        network = PushGossipNetwork(size=10)
        buckets = np.array([5, 5, 7, 5])
        priorities = np.array([0.25, 0.25, 0.5, 0.75])
        workspace = _Workspace((1, 10))
        winners, winning_buckets = network._resolve_collisions(buckets, priorities, workspace)
        assert winning_buckets.tolist() == [5, 7]
        assert winners[0] in (0, 1) and winners[1] == 2
        expected = np.full(10, -1)
        expected[winning_buckets] = winners
        assert np.array_equal(workspace.owner, expected), "winners left in their cells, -1 elsewhere"

    def test_gap_below_the_combined_key_spacing_keeps_the_true_minimum(self):
        """At bucket 15999 of an (8, 2000) grid, priorities 2^-45 apart round
        to one combined key; the scatter-min still picks the smaller one."""
        network = PushGossipNetwork(size=2000)
        bucket, low = 8 * 2000 - 1, 0.5
        high = low + 2.0**-45
        assert bucket + low == bucket + high  # the old key could not tell them apart
        buckets = np.array([bucket, bucket, 3])
        winners, winning_buckets = network._resolve_collisions(
            buckets, np.array([high, low, 0.9]), _Workspace((8, 2000))
        )
        assert winning_buckets.tolist() == [3, bucket]
        assert winners.tolist() == [2, 1]


class TestValidationOnEverySerialPath:
    """The O(n) duplicate-sender check keeps the validator's errors, messages
    and check order on all three serial entry points, and bits are
    range-checked before any cast could wrap or truncate them."""

    @staticmethod
    def _entry_points(network, perfect, rng):
        from repro.substrate.faults import CrashStop, FaultInjector

        injector = FaultInjector(CrashStop(fraction=0.0), network.size, np.random.default_rng(0))
        return {
            "deliver": lambda s, b: network.deliver(s, b, perfect, rng),
            "deliver_resilient": lambda s, b: network.deliver(s, b, perfect, rng, faults=injector),
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


class TestDeliverBatchPreparedRound:
    """``deliver_batch`` keeps the last validated inputs and reuses them when a
    call's grids match in shape, dtype and content.  The memo must be keyed
    on content, never on identity, and no report may alias the workspace.
    Each case compares against a fresh network with the same generator
    state."""

    N, R = 50, 4
    FIELDS = ("cells", "cell_bits", "cell_senders", "accepted", "bits", "senders",
              "messages_sent", "messages_delivered")

    def _inputs(self, seed=0):
        picker = np.random.default_rng(seed)
        mask = picker.random((self.R, self.N)) < 0.6
        bits = picker.integers(0, 2, size=(self.R, self.N)).astype(np.int8)
        return mask, bits

    def _fresh(self, mask, bits, state):
        from repro.substrate.noise import BinarySymmetricChannel

        rng = np.random.default_rng()
        rng.bit_generator.state = state
        network = PushGossipNetwork(size=self.N)
        return network.deliver_batch(mask.copy(), bits.copy(), BinarySymmetricChannel(0.2), rng)

    def _assert_same(self, got, want):
        for name in self.FIELDS:
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("grid", ["send_mask", "bits"])
    def test_inputs_mutated_in_place_are_seen(self, grid):
        from repro.substrate.noise import BinarySymmetricChannel

        channel = BinarySymmetricChannel(0.2)
        network, rng = PushGossipNetwork(size=self.N), np.random.default_rng(3)
        mask, bits = self._inputs()
        network.deliver_batch(mask, bits, channel, rng)
        if grid == "send_mask":
            mask[0] = ~mask[0]
        else:
            bits[mask] = 1 - bits[mask]
        state = rng.bit_generator.state
        report = network.deliver_batch(mask, bits, channel, rng)
        self._assert_same(report, self._fresh(mask, bits, state))

    def test_out_of_range_bit_written_after_a_valid_call_raises(self, perfect):
        network, rng = PushGossipNetwork(size=self.N), np.random.default_rng(3)
        mask, bits = self._inputs()
        network.deliver_batch(mask, bits, perfect, rng)
        row, col = np.argwhere(mask)[0]
        bits[row, col] = 2
        with pytest.raises(ProtocolError, match="0 or 1"):
            network.deliver_batch(mask, bits, perfect, rng)
        assert network.rounds_executed == 1

    def test_int_grid_equal_to_the_cached_mask_still_raises(self, perfect):
        network, rng = PushGossipNetwork(size=self.N), np.random.default_rng(3)
        mask, bits = self._inputs()
        network.deliver_batch(mask, bits, perfect, rng)
        as_int = mask.astype(np.int8)
        assert np.array_equal(as_int, mask)  # equal content, different dtype
        with pytest.raises(ProtocolError, match="send_mask must be a boolean grid"):
            network.deliver_batch(as_int, bits, perfect, rng)
        assert network.rounds_executed == 1

    def test_a_report_is_unchanged_by_the_next_round(self):
        from repro.substrate.noise import BinarySymmetricChannel

        channel = BinarySymmetricChannel(0.2)
        network, rng = PushGossipNetwork(size=self.N), np.random.default_rng(3)
        mask, bits = self._inputs()
        state = rng.bit_generator.state
        first = network.deliver_batch(mask, bits, channel, rng)
        second = network.deliver_batch(mask, bits, channel, rng)
        # Nothing of the first report was read before the second round ran,
        # so its lazily built fields are gathered only now.
        self._assert_same(first, self._fresh(mask, bits, state))
        assert not np.array_equal(first.cells, second.cells)

    def test_resilient_round_between_phase_rounds_keeps_the_draws(self):
        """A fault-aware round reuses the shape's workspace; the next
        fault-free round with the memoised inputs still matches."""
        from repro.substrate.faults import CrashStop, FaultInjector
        from repro.substrate.noise import BinarySymmetricChannel

        channel = BinarySymmetricChannel(0.2)
        network, rng = PushGossipNetwork(size=self.N), np.random.default_rng(3)
        mask, bits = self._inputs()
        network.deliver_batch(mask, bits, channel, rng)
        injector = FaultInjector(CrashStop(), self.N, np.random.default_rng(1), num_replicates=self.R)
        network.deliver_batch(mask, bits, channel, rng, faults=injector)
        state = rng.bit_generator.state
        report = network.deliver_batch(mask, bits, channel, rng)
        self._assert_same(report, self._fresh(mask, bits, state))
