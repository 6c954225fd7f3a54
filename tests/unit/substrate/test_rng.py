"""Unit tests for repro.substrate.rng."""

import numpy as np
import pytest

from repro.substrate.rng import RandomSource, derive_seed, derive_seeds, spawn_generator


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_distinct_tokens_give_distinct_seeds(self):
        seeds = {derive_seed(7, "stream", name) for name in ("a", "b", "c", "d")}
        assert len(seeds) == 4

    def test_distinct_roots_give_distinct_seeds(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_seed_is_non_negative(self):
        assert derive_seed(123456, "anything") >= 0


class TestDeriveSeeds:
    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_element_i_is_derive_seed_with_index_i(self, count):
        seeds = derive_seeds(9, count, "trial")
        assert seeds.dtype == np.int64
        assert seeds.tolist() == [derive_seed(9, "trial", index) for index in range(count)]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            derive_seeds(9, -1)


class TestSpawnGenerator:
    def test_same_tokens_reproduce_stream(self):
        first = spawn_generator(5, "noise").random(10)
        second = spawn_generator(5, "noise").random(10)
        np.testing.assert_allclose(first, second)

    def test_different_tokens_diverge(self):
        first = spawn_generator(5, "noise").random(10)
        second = spawn_generator(5, "delivery").random(10)
        assert not np.allclose(first, second)


class TestRandomSource:
    def test_stream_is_cached(self):
        source = RandomSource(seed=11)
        assert source.stream("delivery") is source.stream("delivery")

    def test_streams_are_independent_of_creation_order(self):
        first = RandomSource(seed=11)
        a_then_b = (first.stream("a").random(5), first.stream("b").random(5))
        second = RandomSource(seed=11)
        b_then_a = (second.stream("b").random(5), second.stream("a").random(5))
        np.testing.assert_allclose(a_then_b[0], b_then_a[1])
        np.testing.assert_allclose(a_then_b[1], b_then_a[0])

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomSource(seed="not-a-seed")

    @pytest.mark.parametrize("seed", [1.5, 2.0, None])
    def test_non_integral_seed_types_rejected(self, seed):
        with pytest.raises(TypeError):
            RandomSource(seed=seed)

    def test_numpy_integer_seed_is_normalised(self):
        source = RandomSource(seed=np.int64(11))
        assert type(source.seed) is int
        np.testing.assert_array_equal(
            source.stream("delivery").random(5), RandomSource(seed=11).stream("delivery").random(5)
        )

    @pytest.mark.parametrize("name", ["delivery", "protocol", "seeding"])
    def test_stream_is_the_spawned_generator_of_its_name(self, name):
        """``stream(name)`` draws what ``spawn_generator(seed, "stream", name)`` draws."""
        np.testing.assert_array_equal(
            RandomSource(seed=31).stream(name).random(8), spawn_generator(31, "stream", name).random(8)
        )
