"""Property-based tests (hypothesis) for the simulation substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.substrate.network import PushGossipNetwork
from repro.substrate.noise import BinarySymmetricChannel, PerfectChannel
from repro.substrate.rng import derive_seed


@st.composite
def round_inputs(draw):
    """A network size, a subset of senders and their bits."""
    size = draw(st.integers(min_value=2, max_value=60))
    sender_count = draw(st.integers(min_value=0, max_value=size))
    senders = draw(
        st.lists(st.integers(0, size - 1), min_size=sender_count, max_size=sender_count, unique=True)
    )
    bits = draw(st.lists(st.integers(0, 1), min_size=len(senders), max_size=len(senders)))
    seed = draw(st.integers(0, 2**31))
    return size, np.asarray(senders, dtype=np.int64), np.asarray(bits, dtype=np.int8), seed


class TestDeliveryInvariants:
    @given(round_inputs())
    @settings(max_examples=80, deadline=None)
    def test_single_accept_invariants(self, data):
        """Every round: one message per recipient, conservation of messages, no self-delivery."""
        size, senders, bits, seed = data
        network = PushGossipNetwork(size=size)
        report = network.deliver(senders, bits, PerfectChannel(), np.random.default_rng(seed))

        assert report.messages_sent == senders.size
        assert report.messages_delivered + report.messages_dropped == report.messages_sent
        recipients = np.flatnonzero(report.heard)
        assert recipients.size == report.messages_delivered
        # A recipient accepts at most one message.
        assert report.heard.dtype == bool
        # A lone sender never delivers to itself.
        if senders.size == 1:
            assert recipients.tolist() != senders.tolist()
        # Dropped messages can only exist if there were more senders than recipients hit.
        if report.messages_dropped:
            assert senders.size > recipients.size

    @given(round_inputs())
    @settings(max_examples=50, deadline=None)
    def test_noiseless_delivery_preserves_bits(self, data):
        size, senders, bits, seed = data
        network = PushGossipNetwork(size=size)
        report = network.deliver(senders, bits, PerfectChannel(), np.random.default_rng(seed))
        # Without noise every kept bit is a bit some sender pushed.
        assert set(report.ones[report.heard].tolist()) <= set(bits.tolist())


class TestChannelInvariants:
    @given(
        st.floats(min_value=0.01, max_value=0.5),
        st.integers(0, 2**31),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_bsc_output_is_always_bits(self, epsilon, seed, count):
        channel = BinarySymmetricChannel(epsilon=epsilon)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=count).astype(np.int8)
        output = channel.transmit(bits, rng)
        assert output.shape == bits.shape
        assert set(np.unique(output).tolist()) <= {0, 1}

class TestRngProperties:
    @given(st.integers(0, 2**40), st.text(min_size=0, max_size=12), st.text(min_size=0, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_derive_seed_deterministic_and_in_range(self, root, token_a, token_b):
        first = derive_seed(root, token_a, token_b)
        second = derive_seed(root, token_a, token_b)
        assert first == second
        assert 0 <= first < 2**63

    @given(st.integers(0, 2**40))
    @settings(max_examples=30, deadline=None)
    def test_derived_seeds_never_collide_with_the_root(self, seed):
        children = [derive_seed(seed, "trial", index) for index in range(4)]
        assert len(set(children + [seed])) == 5
