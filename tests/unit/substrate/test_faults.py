"""Unit and property tests for the fault-injection layer.

Covers the three promises of :mod:`repro.substrate.faults`' determinism
contract — dedicated fault stream, positional (shape-only) main-stream
consumption, marginal rates matching the configured model — plus the
crash/Byzantine mechanics themselves.  The empirical-rate tests
aggregate over many seeds and assert within generous CI bounds, so they are
deterministic for the pinned seeds but meaningfully tight.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.substrate.faults import (
    NONE,
    ByzantineSenders,
    CrashStop,
    FaultInjector,
    NoFaults,
    build_injector,
)
from repro.substrate.network import PushGossipNetwork
from repro.substrate.noise import BinarySymmetricChannel


def _injector(model, size=40, seed=0, num_replicates=1):
    return FaultInjector(model, size, np.random.default_rng(seed), num_replicates=num_replicates)


class TestModelValidation:
    def test_bad_fractions_rejected(self):
        with pytest.raises(ParameterError):
            CrashStop(fraction=1.5)
        with pytest.raises(ParameterError):
            CrashStop(crash_probability=-0.1)
        with pytest.raises(ParameterError):
            ByzantineSenders(fraction=-0.2)

    def test_injector_rejects_nofaults_and_bad_shapes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ParameterError):
            FaultInjector(NoFaults(), 10, rng)
        with pytest.raises(ParameterError):
            FaultInjector(CrashStop(), 1, rng)
        with pytest.raises(ParameterError):
            FaultInjector(CrashStop(), 10, rng, num_replicates=0)
        with pytest.raises(ParameterError):
            FaultInjector(CrashStop(immune=(99,)), 10, rng)

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")], ids=["below", "above", "nan"])
    @pytest.mark.parametrize(
        "build",
        [
            lambda value: CrashStop(fraction=value),
            lambda value: CrashStop(crash_probability=value),
            lambda value: ByzantineSenders(fraction=value),
        ],
        ids=["crash-fraction", "crash-probability", "byzantine-fraction"],
    )
    def test_out_of_range_rates_rejected(self, build, value):
        with pytest.raises(ParameterError):
            build(value)

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_closed_interval_endpoints_accepted(self, value):
        assert CrashStop(fraction=value, crash_probability=value).fraction == value
        assert ByzantineSenders(fraction=value).fraction == value

    def test_build_injector_maps_nofaults_to_none(self):
        rng = np.random.default_rng(0)
        assert build_injector(None, 10, rng) is None
        assert build_injector(NONE, 10, rng) is None
        assert build_injector(NoFaults(), 10, rng) is None
        assert build_injector(CrashStop(), 10, rng) is not None


class TestMembership:
    def test_prone_set_size_is_floor_of_fraction(self):
        injector = _injector(CrashStop(fraction=0.25, immune=(0, 1)), size=42)
        # eligible = 40, floor(0.25 * 40) = 10 prone agents
        assert injector.prone.sum() == 10
        assert not injector.prone[0, [0, 1]].any()

    def test_byzantine_set_respects_immunity_per_replicate(self):
        injector = _injector(
            ByzantineSenders(fraction=0.5, immune=(3,)), size=11, num_replicates=7
        )
        assert injector.byzantine.shape == (7, 11)
        assert (injector.byzantine.sum(axis=1) == 5).all()
        assert not injector.byzantine[:, 3].any()

    @pytest.mark.parametrize(
        "size, fraction, immune",
        [
            (2, 0.5, ()),
            (2, 1.0, (0,)),
            (10, 0.0, ()),
            (10, 0.33, (4, 9)),
            (37, 0.9, (0, 1, 2)),
            (64, 1.0, ()),
        ],
    )
    @pytest.mark.parametrize("kind", ["crash", "byzantine"])
    def test_member_count_is_floor_of_fraction_of_eligible(self, kind, size, fraction, immune):
        model_type = CrashStop if kind == "crash" else ByzantineSenders
        injector = _injector(
            model_type(fraction=fraction, immune=immune), size=size, num_replicates=3
        )
        members = injector.prone if kind == "crash" else injector.byzantine
        expected = int(np.floor(fraction * (size - len(immune))))
        assert members.sum(axis=1).tolist() == [expected] * 3
        assert not members[:, list(immune)].any()

    def test_membership_varies_across_replicates(self):
        injector = _injector(ByzantineSenders(fraction=0.3), size=50, num_replicates=8)
        assert len({tuple(np.flatnonzero(row)) for row in injector.byzantine}) > 1


class TestCrashMechanics:
    def test_forced_schedule_crashes_exactly_the_listed_agents(self):
        model = CrashStop(forced={0: (2,), 2: (5, 7)})
        injector = _injector(model, size=10)
        injector.begin_round()
        assert set(np.flatnonzero(injector.crashed[0])) == {2}
        injector.begin_round()  # round 1: nothing scheduled
        injector.begin_round()  # round 2
        assert set(np.flatnonzero(injector.crashed[0])) == {2, 5, 7}
        assert injector.num_crashed().tolist() == [3]

    def test_crashes_are_permanent_and_silence_senders(self):
        injector = _injector(CrashStop(forced={0: (1, 4)}), size=8)
        for _ in range(2):
            injector.begin_round()
            mask = injector.filter_send_mask(np.ones((1, 8), dtype=bool))
            assert not mask[0, [1, 4]].any() and mask.sum() == 6

    @pytest.mark.parametrize("num_replicates", [1, 3])
    def test_zero_crash_probability_never_crashes(self, num_replicates):
        injector = _injector(
            CrashStop(fraction=1.0, crash_probability=0.0), size=12, num_replicates=num_replicates
        )
        for _ in range(10):
            injector.begin_round()
        assert not injector.crashed.any()
        assert injector.counters["crash_opportunities"] == 10 * 12 * num_replicates
        assert injector.counters["crashes"] == 0

    @pytest.mark.parametrize("num_replicates", [1, 3])
    def test_certain_crash_takes_every_prone_agent_in_the_first_round(self, num_replicates):
        injector = _injector(
            CrashStop(fraction=0.5, crash_probability=1.0, immune=(0,)),
            size=13,
            num_replicates=num_replicates,
        )
        injector.begin_round()
        assert np.array_equal(injector.crashed, injector.prone)
        assert injector.num_crashed().tolist() == [6] * num_replicates
        injector.begin_round()
        # Nobody is left at risk, so the second round adds no opportunity.
        assert injector.counters["crash_opportunities"] == 6 * num_replicates
        assert injector.counters["crashes"] == 6 * num_replicates

    def test_empirical_crash_rate_matches_configuration(self):
        crash_probability, rounds = 0.1, 12
        opportunities = crashes = 0
        for seed in range(40):
            injector = _injector(
                CrashStop(fraction=0.5, crash_probability=crash_probability),
                size=60,
                seed=seed,
            )
            for _ in range(rounds):
                injector.begin_round()
            opportunities += injector.counters["crash_opportunities"]
            crashes += injector.counters["crashes"]
        rate = crashes / opportunities
        # ~9k Bernoulli(0.1) opportunities: 4 sigma is about +-0.013.
        assert abs(rate - crash_probability) < 0.02


class TestByzantineMechanics:
    def test_grid_corruption_touches_only_members(self):
        injector = _injector(ByzantineSenders(fraction=0.3), size=20, num_replicates=5)
        bits = np.ones((5, 20), dtype=np.int8)
        corrupted = injector.corrupt_outgoing_grid(bits, np.ones((5, 20), dtype=bool))
        assert (corrupted[~injector.byzantine] == 1).all()

    def test_empirical_random_mode_corruption_rate(self):
        # A random fake bit disagrees with an all-ones payload half the time.
        disagree = total = 0
        for seed in range(40):
            injector = _injector(ByzantineSenders(fraction=0.5), size=40, seed=seed)
            members = injector.byzantine[0]
            for _ in range(5):
                bits = np.ones((1, 40), dtype=np.int8)
                corrupted = injector.corrupt_outgoing_grid(bits, np.ones((1, 40), dtype=bool))[0]
                disagree += int((corrupted[members] == 0).sum())
                total += int(members.sum())
        assert abs(disagree / total - 0.5) < 0.04

    def test_counter_counts_member_messages_only(self):
        injector = _injector(ByzantineSenders(fraction=0.25), size=16)
        send_mask = np.zeros((1, 16), dtype=bool)
        send_mask[0, ::2] = True
        injector.corrupt_outgoing_grid(np.zeros((1, 16), dtype=np.int8), send_mask)
        assert injector.counters["byzantine_messages"] == int(
            (injector.byzantine & send_mask).sum()
        )


class TestDedicatedStream:
    """Fault decisions must never consume delivery/channel/protocol variates."""

    def test_fault_stream_consumption_is_positional(self):
        # Two very different crash histories, same generator: equal draws left.
        draws_left = []
        for probability in (0.0, 1.0):
            rng = np.random.default_rng(77)
            injector = FaultInjector(
                CrashStop(fraction=0.5, crash_probability=probability), 20, rng
            )
            for _ in range(6):
                injector.begin_round()
            draws_left.append(rng.random(4))
        assert np.array_equal(draws_left[0], draws_left[1])


class TestSerialRngStability:
    """A crash in round t must not shift other agents' draws in rounds >= t,
    on one replicate (a serial faulty trial)."""

    @staticmethod
    def _run_rounds(model, seed=5, size=16, rounds=4):
        network = PushGossipNetwork(size=size)
        channel = BinarySymmetricChannel(epsilon=0.3)
        rng = np.random.default_rng(seed)
        injector = build_injector(model, size, np.random.default_rng(999))
        send_mask = np.ones((1, size), dtype=bool)
        bits = np.ones((1, size), dtype=np.int8)
        reports = []
        for _ in range(rounds):
            report = network.deliver_batch(send_mask, bits, channel, rng, faults=injector)
            cells = np.flatnonzero(report.heard)
            reports.append((cells, report.ones.reshape(-1)[cells]))
        return reports, rng.random(8)

    def test_crash_does_not_shift_other_agents_draws(self):
        # Same main seed; one run crashes agents {1, 2} at round 1, the other
        # crashes nobody (probability-0 prone set via forced={}).
        quiet, quiet_tail = self._run_rounds(CrashStop(forced={}))
        crashed, crashed_tail = self._run_rounds(CrashStop(forced={1: (1, 2)}))
        # Main-stream consumption is unchanged by the crashes...
        assert np.array_equal(quiet_tail, crashed_tail)
        # ...round 0 precedes the crash, so deliveries are identical...
        assert np.array_equal(quiet[0][0], crashed[0][0])
        assert np.array_equal(quiet[0][1], crashed[0][1])
        overlap = 0
        for round_index in (1, 2, 3):
            quiet_cells, quiet_bits = quiet[round_index]
            crashed_cells, crashed_bits = crashed[round_index]
            # ...and afterwards every surviving sender keeps its target, so
            # every cell the crashed run reaches, the quiet run reaches too.
            assert np.isin(crashed_cells, quiet_cells).all()
            # Every sender pushes a 1, so a cell's noisy bit is 1 with the
            # same probability whatever reached it, and each cell reads its
            # own uniform: cells heard in both runs keep the same bit.
            common, in_quiet, in_crashed = np.intersect1d(
                quiet_cells, crashed_cells, return_indices=True
            )
            assert np.array_equal(quiet_bits[in_quiet], crashed_bits[in_crashed])
            overlap += common.size
        assert overlap > 10  # the comparison must not be vacuous

    def test_mass_crash_leaves_main_stream_consumption_fixed(self):
        # Extreme case: everyone crashes at round 1 vs. nobody ever does.
        everyone = tuple(range(16))
        quiet, quiet_tail = self._run_rounds(CrashStop(forced={}))
        dead, dead_tail = self._run_rounds(CrashStop(forced={1: everyone}))
        assert np.array_equal(quiet_tail, dead_tail)
        for round_index in (1, 2, 3):
            assert dead[round_index][0].size == 0
            assert quiet[round_index][0].size > 0

class TestDeliveryIntegration:
    def test_crashed_agents_stop_sending(self):
        network = PushGossipNetwork(size=20)
        injector = _injector(CrashStop(forced={0: tuple(range(1, 20))}), size=20, seed=11)
        report = network.deliver_batch(
            np.ones((1, 20), dtype=bool), np.ones((1, 20), dtype=np.int8),
            BinarySymmetricChannel(epsilon=0.3), np.random.default_rng(11), faults=injector,
        )
        # Only agent 0 is left to speak, and it never reaches itself.
        assert report.messages_sent.tolist() == [1]
        (recipient,) = np.flatnonzero(report.heard[0])
        assert report.messages_delivered.tolist() == [1] and recipient != 0
