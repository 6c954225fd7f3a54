"""Unit and property tests for the contact-graph topology policies.

Each :class:`~repro.substrate.topology.ContactTopology` replaces the uniform
push target draw; the tests pin the structural guarantees (degree windows,
cluster membership, offline masks, never-self targets) and the marginal
rates (cross-cluster fraction, offline fraction) against the configured
parameters, plus batch/serial marginal agreement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.substrate.noise import PerfectChannel
from repro.substrate.network import PushGossipNetwork
from repro.substrate.topology import (
    ChurnTopology,
    DegreeLimitedTopology,
    TwoClusterTopology,
)


class TestValidation:
    def test_degree_bounds(self):
        with pytest.raises(ParameterError):
            DegreeLimitedTopology(degree=0)
        with pytest.raises(ParameterError):
            DegreeLimitedTopology(degree=10).validate(10)
        DegreeLimitedTopology(degree=9).validate(10)

    def test_two_cluster_needs_four_agents(self):
        with pytest.raises(ParameterError):
            TwoClusterTopology().validate(3)
        with pytest.raises(ParameterError):
            TwoClusterTopology(cross_probability=1.5)
        TwoClusterTopology().validate(4)

    def test_churn_probability_range(self):
        with pytest.raises(ParameterError):
            ChurnTopology(offline_probability=1.0)
        with pytest.raises(ParameterError):
            ChurnTopology(offline_probability=-0.1)
        ChurnTopology(offline_probability=0.0).validate(5)


class TestDegreeLimited:
    def test_targets_stay_in_the_forward_window(self):
        degree, size = 5, 30
        topology = DegreeLimitedTopology(degree=degree)
        targets, offline = topology.draw_round_grid(8, size, np.random.default_rng(1))
        assert offline is None
        assert targets.shape == (8, size)
        cols = np.arange(size)[None, :]
        distance = (targets - cols) % size
        assert (distance >= 1).all() and (distance <= degree).all()

    def test_all_window_members_are_reachable(self):
        topology = DegreeLimitedTopology(degree=3)
        targets, _ = topology.draw_round_grid(400, 10, np.random.default_rng(2))
        distances = np.unique((targets - np.arange(10)[None, :]) % 10)
        assert set(distances.tolist()) == {1, 2, 3}


class TestTwoCluster:
    def test_cluster_membership_of_targets(self):
        size = 40
        topology = TwoClusterTopology(cross_probability=0.0)
        targets, offline = topology.draw_round_grid(20, size, np.random.default_rng(3))
        assert offline is None
        half = size // 2
        cols = np.arange(size)[None, :]
        same_side = (targets < half) == (cols < half)
        assert same_side.all()
        assert (targets != cols).all()

    def test_cross_fraction_matches_probability(self):
        cross_probability = 0.2
        topology = TwoClusterTopology(cross_probability=cross_probability)
        targets, _ = topology.draw_round_grid(300, 30, np.random.default_rng(4))
        cols = np.arange(30)[None, :]
        crossed = (targets < 15) != (cols < 15)
        rate = crossed.mean()
        assert abs(rate - cross_probability) < 0.02

    def test_odd_population_puts_extra_agent_in_second_cluster(self):
        topology = TwoClusterTopology(cross_probability=0.0)
        targets, _ = topology.draw_round_grid(50, 9, np.random.default_rng(5))
        cols = np.arange(9)[None, :]
        assert (((targets < 4) == (cols < 4)) | (cols >= 4)).all()


class TestChurn:
    def test_offline_rate_matches_probability(self):
        offline_probability = 0.15
        topology = ChurnTopology(offline_probability=offline_probability)
        targets, offline = topology.draw_round_grid(200, 50, np.random.default_rng(6))
        assert offline is not None and offline.shape == (200, 50)
        assert abs(offline.mean() - offline_probability) < 0.01
        assert (targets != np.arange(50)[None, :]).all()

    def test_zero_churn_behaves_like_uniform(self):
        topology = ChurnTopology(offline_probability=0.0)
        targets, offline = topology.draw_round_grid(100, 20, np.random.default_rng(7))
        assert not offline.any()
        # Every non-self target appears (marginal support check).
        for agent in (0, 7, 19):
            seen = set(targets[:, agent].tolist())
            assert agent not in seen
            assert len(seen) > 10

    def test_offline_agents_neither_send_nor_receive(self):
        network = PushGossipNetwork(size=12)
        topology = ChurnTopology(offline_probability=0.5)
        rng = np.random.default_rng(8)
        saw_drop = False
        for _ in range(20):
            report = network.deliver(
                np.arange(12), np.ones(12, dtype=np.int8), PerfectChannel(), rng,
                topology=topology,
            )
            saw_drop = saw_drop or report.messages_sent < 12
        assert saw_drop

