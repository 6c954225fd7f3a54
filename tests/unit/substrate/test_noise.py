"""Unit tests for repro.substrate.noise."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.substrate.noise import BinarySymmetricChannel, PerfectChannel, validate_epsilon


class TestValidateEpsilon:
    def test_valid_values_pass_through(self):
        assert validate_epsilon(0.25) == 0.25
        assert validate_epsilon(0.5) == 0.5

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.51, 1.0, float("nan"), float("inf")])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ParameterError):
            validate_epsilon(bad)

    @pytest.mark.parametrize("good", [1e-9, 0.1, 0.3, 0.5, np.float32(0.25)])
    def test_half_open_interval_accepted_as_float(self, good):
        value = validate_epsilon(good)
        assert isinstance(value, float) and value == good

class TestBinarySymmetricChannel:
    def test_flip_rate_close_to_crossover(self, rng):
        channel = BinarySymmetricChannel(epsilon=0.2)
        bits = np.zeros(200_000, dtype=np.int8)
        received = channel.transmit(bits, rng)
        assert received.mean() == pytest.approx(0.3, abs=0.01)

    @pytest.mark.parametrize("epsilon", [0.05, 0.15, 0.25, 0.35, 0.45, 0.5])
    def test_flip_rate_matches_crossover_for_every_epsilon(self, epsilon):
        channel = BinarySymmetricChannel(epsilon=epsilon)
        assert channel.flip_probability == pytest.approx(0.5 - epsilon)
        bits = np.ones(100_000, dtype=np.int8)
        received = channel.transmit(bits, np.random.default_rng(17))
        # 100k Bernoulli(p <= 1/2) flips: 5 sigma is at most 0.008.
        assert np.mean(received == 0) == pytest.approx(0.5 - epsilon, abs=0.008)

    def test_flips_where_the_draw_falls_below_the_crossover(self):
        channel = BinarySymmetricChannel(epsilon=0.2)
        bits = np.ones(10_000, dtype=np.int8)
        received = channel.transmit(bits, np.random.default_rng(5))
        draws = np.random.default_rng(5).random(bits.size)
        assert np.array_equal(received == 0, draws < channel.flip_probability)

    def test_empty_input(self, rng):
        channel = BinarySymmetricChannel(epsilon=0.2)
        assert channel.transmit(np.empty(0, dtype=np.int8), rng).size == 0

    def test_rejects_non_bits(self, rng):
        channel = BinarySymmetricChannel(epsilon=0.2)
        with pytest.raises(ParameterError):
            channel.transmit(np.asarray([0, 2]), rng)

    def test_does_not_mutate_input(self, rng):
        channel = BinarySymmetricChannel(epsilon=0.1)
        bits = np.zeros(1000, dtype=np.int8)
        channel.transmit(bits, rng)
        assert bits.sum() == 0


class TestPerfectChannel:
    def test_never_flips(self, rng):
        channel = PerfectChannel()
        bits = rng.integers(0, 2, size=5000).astype(np.int8)
        np.testing.assert_array_equal(channel.transmit(bits, rng), bits)
        assert channel.flip_probability == 0.0

    def test_epsilon_forced_to_half(self):
        assert PerfectChannel(epsilon=0.1).epsilon == 0.5


class TestTransmitBatch:
    """``transmit_batch`` noises the masked cells exactly as ``transmit`` would."""

    @pytest.mark.parametrize("shape", [(1, 5), (3, 8), (6, 1)])
    @pytest.mark.parametrize("density", ["none", "half", "all"])
    def test_masked_cells_noised_in_row_major_order(self, shape, density):
        inputs = np.random.default_rng(sum(shape))
        bits = inputs.integers(0, 2, size=shape, dtype=np.int8)
        mask = {
            "none": np.zeros(shape, dtype=bool),
            "half": inputs.random(shape) < 0.5,
            "all": np.ones(shape, dtype=bool),
        }[density]
        batched = BinarySymmetricChannel(epsilon=0.1).transmit_batch(
            bits, mask, np.random.default_rng(3)
        )
        flat = BinarySymmetricChannel(epsilon=0.1).transmit(bits[mask], np.random.default_rng(3))
        assert batched.shape == bits.shape
        assert np.array_equal(batched[mask], flat)
        assert np.array_equal(batched[~mask], bits[~mask])

    def test_does_not_mutate_input(self, rng):
        bits = np.zeros((4, 4), dtype=np.int8)
        BinarySymmetricChannel(epsilon=0.05).transmit_batch(bits, np.ones((4, 4), dtype=bool), rng)
        assert not bits.any()

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ParameterError):
            PerfectChannel().transmit_batch(
                np.zeros((2, 3), dtype=np.int8), np.ones((3, 2), dtype=bool), rng
            )

    def test_perfect_channel_returns_the_grid(self, rng):
        bits = rng.integers(0, 2, size=(5, 9)).astype(np.int8)
        mask = rng.random((5, 9)) < 0.5
        np.testing.assert_array_equal(PerfectChannel().transmit_batch(bits, mask, rng), bits)
