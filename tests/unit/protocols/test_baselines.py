"""Unit tests for the baseline protocols (repro.protocols.*)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.protocols import (
    DirectSourceReference,
    ImmediateForwardingBroadcast,
    NoisyVoterBroadcast,
    SilentWaitBroadcast,
    default_decision_threshold,
)
from repro.substrate import PerfectChannel, SimulationEngine


def broadcast_engine(n=400, epsilon=0.25, seed=1, channel=None):
    return SimulationEngine.create(n=n, epsilon=epsilon, seed=seed, channel=channel)


class TestImmediateForwarding:
    def test_spreads_to_everyone_but_stays_unreliable(self):
        result = ImmediateForwardingBroadcast().run(broadcast_engine(seed=2), correct_opinion=1)
        assert result.converged  # the rumor reaches everyone ...
        assert result.final_correct_fraction < 0.85  # ... but reliability is poor
        assert not result.success
        assert result.extra["all_informed_round"] is not None

    def test_noiseless_forwarding_is_perfect(self):
        result = ImmediateForwardingBroadcast().run(
            broadcast_engine(seed=3, channel=PerfectChannel()), correct_opinion=1
        )
        assert result.success

    def test_requires_source(self):
        engine = SimulationEngine.create(n=50, epsilon=0.25, seed=4, source=None)
        with pytest.raises(SimulationError):
            ImmediateForwardingBroadcast().run(engine)

    def test_round_budget_respected(self):
        result = ImmediateForwardingBroadcast(max_rounds=7).run(broadcast_engine(seed=5))
        assert result.rounds == 7


class TestSilentWait:
    def test_default_threshold_formula(self):
        threshold = default_decision_threshold(1000, 0.2)
        assert threshold % 2 == 1
        assert threshold >= 4 * np.log(1000) / 0.04

    def test_first_two_messages_take_about_sqrt_n_rounds(self):
        rounds = []
        for seed in range(5):
            engine = broadcast_engine(n=900, seed=seed)
            result = SilentWaitBroadcast(threshold=2, max_rounds=2000).run(engine)
            rounds.append(result.extra["first_round_with_two_messages"])
        mean_rounds = np.mean(rounds)
        # Birthday paradox: expected ~ sqrt(pi/2 * n) ~ 37 for n=900; allow a wide band.
        assert 8 <= mean_rounds <= 150

    def test_completes_with_small_threshold(self):
        engine = broadcast_engine(n=60, epsilon=0.4, seed=7)
        result = SilentWaitBroadcast(threshold=21, max_rounds=30_000).run(engine)
        assert result.converged
        assert result.extra["decided_fraction"] == 1.0
        assert result.final_correct_fraction > 0.9

    def test_only_source_ever_sends(self):
        engine = broadcast_engine(n=200, seed=8)
        result = SilentWaitBroadcast(threshold=3, max_rounds=500).run(engine)
        assert result.messages_sent == result.rounds


class TestDirectSourceReference:
    def test_everyone_correct_with_default_rounds(self):
        result = DirectSourceReference().run(broadcast_engine(seed=9), correct_opinion=1)
        assert result.success
        assert result.extra["first_all_correct_round"] is not None
        assert result.extra["first_all_correct_round"] <= result.rounds

    def test_messages_are_n_per_round(self):
        engine = broadcast_engine(n=100, seed=10)
        result = DirectSourceReference(rounds=25).run(engine)
        assert result.rounds == 25
        assert result.messages_sent == 2500

    def test_single_round_is_a_coin_flip_per_agent(self):
        engine = broadcast_engine(n=5000, epsilon=0.1, seed=11)
        result = DirectSourceReference(rounds=1).run(engine)
        assert result.final_correct_fraction == pytest.approx(0.6, abs=0.03)


class TestNoisyVoter:
    def test_does_not_converge_under_noise(self):
        result = NoisyVoterBroadcast(max_rounds=300).run(broadcast_engine(seed=12), correct_opinion=1)
        assert not result.success
        assert 0.3 < result.final_correct_fraction < 0.7

    def test_zealot_source_never_flips(self):
        engine = broadcast_engine(seed=13)
        NoisyVoterBroadcast(max_rounds=100).run(engine, correct_opinion=1)
        assert engine.population.opinions[engine.population.source] == 1

    def test_requires_source(self):
        engine = SimulationEngine.create(n=50, epsilon=0.25, seed=14, source=None)
        with pytest.raises(SimulationError):
            NoisyVoterBroadcast().run(engine)
