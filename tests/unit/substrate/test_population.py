"""Unit tests for repro.substrate.population."""

import numpy as np
import pytest

from repro.errors import ParameterError, SimulationError
from repro.substrate.population import Population


class TestConstruction:
    def test_initial_state_with_source(self):
        population = Population(size=10, source=3)
        assert population.num_activated() == 1
        assert population.activated[3]
        assert population.activation_phase[3] == 0
        assert population.num_opinionated() == 0

    def test_initial_state_without_source(self):
        population = Population(size=10, source=None)
        assert population.num_activated() == 0

    def test_too_small_population_rejected(self):
        with pytest.raises(ParameterError):
            Population(size=1)

    def test_source_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            Population(size=5, source=5)


class TestSourceOpinion:
    def test_set_source_opinion(self):
        population = Population(size=5, source=0)
        population.set_source_opinion(1)
        assert population.opinions[0] == 1
        assert population.count_opinion(1) == 1

    def test_no_source_raises(self):
        population = Population(size=5, source=None)
        with pytest.raises(SimulationError):
            population.set_source_opinion(1)

    def test_invalid_opinion_rejected(self):
        population = Population(size=5, source=0)
        with pytest.raises(ParameterError):
            population.set_source_opinion(2)


class TestSeeding:
    def test_seed_opinionated_set(self):
        population = Population(size=20, source=None)
        members = np.asarray([1, 5, 9])
        opinions = np.asarray([1, 0, 1])
        population.seed_opinionated_set(members, opinions)
        assert population.num_activated() == 3
        assert population.count_opinion(1) == 2
        assert population.count_opinion(0) == 1

    def test_duplicate_members_rejected(self):
        population = Population(size=20, source=None)
        with pytest.raises(ParameterError):
            population.seed_opinionated_set(np.asarray([1, 1]), np.asarray([0, 1]))

    def test_mismatched_shapes_rejected(self):
        population = Population(size=20, source=None)
        with pytest.raises(ParameterError):
            population.seed_opinionated_set(np.asarray([1, 2]), np.asarray([0]))

    def test_member_out_of_range_rejected(self):
        population = Population(size=20, source=None)
        with pytest.raises(ParameterError):
            population.seed_opinionated_set(np.asarray([25]), np.asarray([1]))


class TestActivation:
    def test_activate_is_idempotent(self):
        population = Population(size=10, source=0)
        first = population.activate(np.asarray([2, 3]), phase=1, round_index=5)
        assert set(first.tolist()) == {2, 3}
        second = population.activate(np.asarray([3, 4]), phase=2, round_index=9)
        assert set(second.tolist()) == {4}
        # Agent 3 keeps its original activation phase.
        assert population.activation_phase[3] == 1
        assert population.activation_phase[4] == 2

    def test_counts(self):
        population = Population(size=10, source=0)
        population.activate(np.asarray([1, 2, 3]), phase=1, round_index=1)
        assert population.num_activated() == 4


class TestOpinionAccounting:
    def test_bias_and_fraction(self):
        population = Population(size=10, source=None)
        population.seed_opinionated_set(np.arange(8), np.asarray([1, 1, 1, 1, 1, 1, 0, 0]))
        assert population.bias(1) == pytest.approx((6 - 2) / (2 * 8))
        assert population.bias(0) == pytest.approx(-(6 - 2) / (2 * 8))
        assert population.correct_fraction(1) == pytest.approx(0.6)

    def test_bias_with_no_opinions_is_zero(self):
        assert Population(size=4, source=None).bias(1) == 0.0

    def test_all_correct(self):
        population = Population(size=4, source=None)
        population.seed_opinionated_set(np.arange(4), np.ones(4, dtype=np.int8))
        assert population.all_correct(1)
        assert not population.all_correct(0)

    def test_set_opinions_validates_values(self):
        population = Population(size=4, source=None)
        with pytest.raises(ParameterError):
            population.set_opinions(np.asarray([0]), np.asarray([5]))

    def test_snapshot(self):
        population = Population(size=6, source=0)
        population.set_source_opinion(1)
        snapshot = population.snapshot()
        assert snapshot == {
            "size": 6,
            "activated": 1,
            "opinionated": 1,
            "count_zero": 0,
            "count_one": 1,
        }
