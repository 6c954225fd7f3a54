"""Unit tests for the baseline protocols (repro.protocols.*).

Each baseline has one step rule; a serial trial is that rule at ``R = 1``
under the trial's seed, which is what :func:`run_once` runs.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.exec.batching import run_baseline_batch
from repro.protocols import NoisyVoterBroadcast, default_decision_threshold
from repro.substrate import PerfectChannel


def run_once(protocol, n=400, epsilon=0.25, seed=1, channel=None, **options):
    """One serial trial of ``protocol``: its rule at ``R = 1`` under ``seed``."""
    return run_baseline_batch(
        protocol, n=n, epsilon=epsilon, num_replicates=1, base_seed=seed, channel=channel,
        **options,
    ).measurements(0)


class TestImmediateForwarding:
    def test_spreads_to_everyone_but_stays_unreliable(self):
        result = run_once("immediate-forwarding", seed=2)
        assert result["converged"]  # the rumor reaches everyone ...
        assert result["fraction"] < 0.85  # ... but reliability is poor
        assert not result["success"]
        assert result["all_informed_round"] is not None

    def test_noiseless_forwarding_is_perfect(self):
        result = run_once("immediate-forwarding", seed=3, channel=PerfectChannel())
        assert result["success"]

    def test_round_budget_respected(self):
        result = run_once("immediate-forwarding", seed=5, max_rounds=7)
        assert result["rounds"] == 7


class TestSilentWait:
    def test_default_threshold_formula(self):
        threshold = default_decision_threshold(1000, 0.2)
        assert threshold % 2 == 1
        assert threshold >= 4 * np.log(1000) / 0.04

    def test_first_two_messages_take_about_sqrt_n_rounds(self):
        rounds = [
            run_once("silent-wait", n=900, seed=seed, threshold=2, max_rounds=2000)[
                "first_two_messages_round"
            ]
            for seed in range(5)
        ]
        mean_rounds = np.mean(rounds)
        # Birthday paradox: expected ~ sqrt(pi/2 * n) ~ 37 for n=900; allow a wide band.
        assert 8 <= mean_rounds <= 150

    def test_completes_with_small_threshold(self):
        result = run_once("silent-wait", n=60, epsilon=0.4, seed=7, threshold=21, max_rounds=30_000)
        assert result["converged"]
        assert result["decided_fraction"] == 1.0
        assert result["fraction"] > 0.9

    def test_only_source_ever_sends(self):
        result = run_once("silent-wait", n=200, seed=8, threshold=3, max_rounds=500)
        assert result["messages"] == result["rounds"]


class TestDirectSourceReference:
    def test_everyone_correct_with_default_rounds(self):
        result = run_once("direct-source-reference", seed=9)
        assert result["success"]
        assert result["rounds_to_all_correct"] is not None
        assert result["rounds_to_all_correct"] <= result["rounds"]

    def test_messages_are_n_per_round(self):
        result = run_once("direct-source-reference", n=100, seed=10, rounds=25)
        assert result["rounds"] == 25
        assert result["messages"] == 2500

    def test_single_round_is_a_coin_flip_per_agent(self):
        result = run_once("direct-source-reference", n=5000, epsilon=0.1, seed=11, rounds=1)
        assert result["fraction"] == pytest.approx(0.6, abs=0.03)


class _WrongBitToTheZealot:
    """Network stand-in that delivers a wrong bit to agent 0 every round."""

    def deliver_batch(self, send_mask, bits, channel, rng):
        heard = np.zeros_like(send_mask)
        heard[:, 0] = True
        return SimpleNamespace(heard=heard, ones=np.zeros_like(bits))


class TestNoisyVoter:
    def test_does_not_converge_under_noise(self):
        result = run_once("noisy-voter", seed=12, max_rounds=300)
        assert not result["success"]
        assert 0.3 < result["fraction"] < 0.7

    def test_zealot_source_never_flips(self):
        result = NoisyVoterBroadcast(max_rounds=100).simulate(
            n=2,
            num_replicates=3,
            network=_WrongBitToTheZealot(),
            channel=PerfectChannel(),
            rng=np.random.default_rng(13),
            correct_opinion=1,
        )
        # Agent 1 never hears anything, so the zealot is the one correct agent.
        assert np.all(result.final_correct_fraction == 0.5)
