"""Differential tests for the instrumented stage kernels.

The contract (module docstring of :mod:`repro.exec.stage_batching`, and
``docs/ARCHITECTURE.md``): every *deterministic* observable of the serial
broadcast stage executors — the phase schedule, per-phase round counts,
phase-0 sender counts, schedule-fixed message counts, conservation
identities, error behaviour — is bit-identical between
:func:`execute_stage_one` / :func:`execute_stage_two` and their batched
counterparts, for every seed; the stochastic observables agree in
distribution (the batch consumes one batch-level stream).  Late starts and
skewed clocks exist only on the kernels, checked here against their
schedules.  Composition with the
protocol-level simulators is pinned bit-for-bit: ``run_broadcast_batch`` is
exactly ``source state -> run_stage1_batch -> run_stage2_batch`` on the same
stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.majority import compute_start_phase
from repro.core.opinions import NO_OPINION, counts_from_bias
from repro.core.parameters import ProtocolParameters, StageOneParameters
from repro.core.schedule import build_stage1_schedule, build_stage2_schedule
from repro.core.stage1 import ReceptionAccumulator, execute_stage_one
from repro.core.stage2 import SampleAccumulator, execute_stage_two, population_bias
from repro.core.synchronizer import default_guard, run_with_bounded_skew
from repro.errors import ParameterError, SimulationError
from repro.exec.batching import replicate_trial, run_baseline_batch, run_broadcast_batch
from repro.exec.stage_batching import (
    BatchState,
    population_bias_grid,
    run_bounded_skew_batch,
    run_clock_free_batch,
    run_stage1_batch,
    run_stage1_instrumented,
    run_stage2_batch,
    run_stage2_instrumented,
    seeded_batch_state,
    source_batch_state,
)
from repro.exec import stage_batching
from repro.substrate.network import PushGossipNetwork
from repro.substrate.noise import BinarySymmetricChannel
from repro.substrate.rng import RandomSource, spawn_generator

N = 240
EPSILON = 0.3
SEEDS = range(12)


def _parameters(n: int = N, epsilon: float = EPSILON) -> ProtocolParameters:
    return ProtocolParameters.calibrated(n, epsilon)


def _serial_stage1(seed: int, parameters: StageOneParameters, n: int = N, epsilon: float = EPSILON):
    opinions = np.full(n, NO_OPINION, dtype=np.int8)
    opinions[0] = 1
    activated = opinions != NO_OPINION
    channel = BinarySymmetricChannel(epsilon=epsilon)
    return execute_stage_one(opinions, activated, parameters, 1, channel, RandomSource(seed))


class TestStageOneDifferential:
    def test_schedule_and_deterministic_observables_exactly_match_serial(self):
        """Phase indices, per-phase rounds, phase-0 senders and phase-0
        messages are deterministic given the parameters, so they must be
        bit-identical to the serial executor — for every seed."""
        parameters = _parameters().stage1
        serial = [_serial_stage1(seed, parameters) for seed in SEEDS]
        batch = run_stage1_instrumented(N, EPSILON, len(list(SEEDS)), base_seed=1, parameters=parameters)

        assert batch.rounds == serial[0].rounds
        assert [phase.phase for phase in batch.phases] == [
            summary.phase for summary in serial[0].phases
        ]
        assert [phase.rounds for phase in batch.phases] == [
            summary.rounds for summary in serial[0].phases
        ]
        # Phase 0: only the source speaks, in every replicate of both paths.
        phase0 = batch.phase(0)
        assert np.all(phase0.senders == 1)
        assert all(result.phase(0).senders == 1 for result in serial)
        assert np.all(phase0.messages_sent == parameters.beta_s)
        assert all(result.phase(0).messages_sent == parameters.beta_s for result in serial)

    def test_conservation_identities_hold_per_replicate(self):
        """X_i = X_{i-1} + Y_i and Z_i <= Y_i, exactly as serially."""
        parameters = _parameters().stage1
        batch = run_stage1_instrumented(N, EPSILON, 8, base_seed=3, parameters=parameters)
        previous = np.ones(8, dtype=np.int64)  # the source is activated up front
        for phase in batch.phases:
            assert np.all(phase.activated_total == previous + phase.newly_activated)
            assert np.all(phase.newly_correct <= phase.newly_activated)
            previous = phase.activated_total
        assert np.all(batch.phases[-1].activated_total <= N)

    def test_stochastic_observables_agree_with_serial_in_distribution(self):
        parameters = _parameters().stage1
        serial = [_serial_stage1(seed, parameters) for seed in range(20)]
        batch = run_stage1_instrumented(N, EPSILON, 20, base_seed=5, parameters=parameters)

        serial_x0 = np.mean([result.phase(0).activated_total for result in serial])
        batch_x0 = batch.phase(0).activated_total.mean()
        assert batch_x0 == pytest.approx(serial_x0, rel=0.25)

        serial_final = np.mean([result.final_bias for result in serial])
        assert batch.final_bias.mean() == pytest.approx(serial_final, abs=0.1)
        assert batch.all_activated.mean() == pytest.approx(
            np.mean([result.all_activated for result in serial]), abs=0.35
        )

    def test_messages_equal_senders_times_rounds_like_serial(self):
        parameters = _parameters().stage1
        batch = run_stage1_instrumented(N, EPSILON, 6, base_seed=11, parameters=parameters)
        total = np.zeros(6, dtype=np.int64)
        for phase in batch.phases:
            assert np.all(phase.messages_sent == phase.senders * phase.rounds)
            total += phase.messages_sent
        assert np.array_equal(batch.messages_sent, total)

    def test_repeatability_is_bit_identical(self):
        parameters = _parameters().stage1
        first = run_stage1_instrumented(N, EPSILON, 5, base_seed=7, parameters=parameters)
        second = run_stage1_instrumented(N, EPSILON, 5, base_seed=7, parameters=parameters)
        assert np.array_equal(first.final_bias, second.final_bias)
        assert np.array_equal(first.messages_sent, second.messages_sent)
        for phase_a, phase_b in zip(first.phases, second.phases):
            assert np.array_equal(phase_a.activated_total, phase_b.activated_total)
            assert np.array_equal(phase_a.bias_of_new, phase_b.bias_of_new)

    @pytest.mark.parametrize("initial_set_size", [20, 60])
    def test_start_phase_runs_the_late_schedule(self, initial_set_size):
        """Corollary 2.18: entering Stage I at phase i_A runs exactly the
        (shorter) phase schedule from i_A on."""
        parameters = _parameters()
        start_phase = compute_start_phase(parameters, initial_set_size)
        schedule = build_stage1_schedule(parameters.stage1, start_phase=start_phase)

        rng = spawn_generator(9, "test-start-phase", N)
        state = seeded_batch_state(N, 4, initial_set_size, 0.2, 1, rng)
        network = PushGossipNetwork(size=N)
        channel = BinarySymmetricChannel(epsilon=EPSILON)
        batch = run_stage1_batch(
            state, network, channel, rng, parameters.stage1, 1, start_phase=start_phase
        )

        assert [phase.phase for phase in batch.phases] == [phase.index for phase in schedule]
        assert [phase.rounds for phase in batch.phases] == [phase.length for phase in schedule]
        assert batch.rounds == schedule.total_rounds

    def test_no_opinionated_agents_raises_the_serial_error(self):
        """The degenerate case raises the same SimulationError on both paths."""
        parameters = _parameters().stage1
        # The source has not been given its opinion.
        opinions = np.full(N, NO_OPINION, dtype=np.int8)
        activated = np.zeros(N, dtype=bool)
        activated[0] = True
        channel = BinarySymmetricChannel(epsilon=EPSILON)
        with pytest.raises(SimulationError, match="at least one initially opinionated"):
            execute_stage_one(opinions, activated, parameters, 1, channel, RandomSource(0))

        state = BatchState(
            opinions=np.full((3, N), NO_OPINION, dtype=np.int8),
            activated=np.zeros((3, N), dtype=bool),
            messages_sent=np.zeros(3, dtype=np.int64),
        )
        network = PushGossipNetwork(size=N)
        channel = BinarySymmetricChannel(epsilon=EPSILON)
        rng = spawn_generator(0, "test-empty", N)
        with pytest.raises(SimulationError, match="at least one initially opinionated"):
            run_stage1_batch(state, network, channel, rng, parameters, 1)

    def test_minimal_population_runs_on_both_paths(self):
        """n=2 (the smallest population the substrate admits) must not crash."""
        parameters = StageOneParameters(beta_s=4, beta=2, beta_f=2, num_intermediate_phases=1)
        serial = _serial_stage1(1, parameters, n=2, epsilon=0.3)
        batch = run_stage1_instrumented(2, 0.3, 4, base_seed=1, parameters=parameters)
        assert batch.rounds == serial.rounds
        assert np.all(batch.phase(0).activated_total <= 2)


def _serial_stage2(seed: int, initial_bias: float, parameters, n: int = N, epsilon: float = EPSILON):
    """Serial Stage II from a fully opinionated population at ``initial_bias``."""
    streams = RandomSource(seed)
    correct, _ = counts_from_bias(n, initial_bias)
    opinions = np.zeros(n, dtype=np.int8)
    opinions[:correct] = 1
    streams.stream("seeding").shuffle(opinions)
    return execute_stage_two(opinions, parameters, 1, BinarySymmetricChannel(epsilon=epsilon), streams)


class TestStageTwoDifferential:
    INITIAL_BIAS = 0.15

    def test_schedule_and_message_counts_exactly_match_serial(self):
        """The Stage-II schedule is fixed by the parameters, and with a fully
        opinionated population every agent sends every round — rounds and
        messages are therefore bit-identical to the serial executor."""
        parameters = _parameters().stage2
        serial = [_serial_stage2(seed, self.INITIAL_BIAS, parameters) for seed in SEEDS]
        batch = run_stage2_instrumented(
            N, EPSILON, len(list(SEEDS)), initial_bias=self.INITIAL_BIAS,
            base_seed=2, parameters=parameters,
        )
        assert batch.rounds == serial[0].rounds
        assert [phase.phase for phase in batch.phases] == [
            summary.phase for summary in serial[0].phases
        ]
        assert [phase.rounds for phase in batch.phases] == [
            summary.rounds for summary in serial[0].phases
        ]
        for phase, summary in zip(batch.phases, serial[0].phases):
            assert np.all(phase.messages_sent == summary.messages_sent)
        assert np.all(
            batch.messages_sent == serial[0].messages_sent
        ), "fully opinionated population: message counts are schedule-fixed"

    def test_initial_bias_is_realised_before_the_first_phase(self):
        parameters = _parameters().stage2
        batch = run_stage2_instrumented(
            N, EPSILON, 6, initial_bias=self.INITIAL_BIAS, base_seed=4, parameters=parameters
        )
        serial = _serial_stage2(0, self.INITIAL_BIAS, parameters)
        # counts_from_bias makes the seeded split deterministic on both paths.
        assert np.all(batch.phase(1).bias_before == serial.phase(1).bias_before)

    def test_boosting_trajectory_agrees_with_serial_in_distribution(self):
        parameters = _parameters().stage2
        serial = [_serial_stage2(seed, self.INITIAL_BIAS, parameters) for seed in range(10)]
        batch = run_stage2_instrumented(
            N, EPSILON, 10, initial_bias=self.INITIAL_BIAS, base_seed=6, parameters=parameters
        )
        serial_success = np.mean([result.consensus_reached for result in serial])
        assert batch.consensus_reached.mean() == pytest.approx(serial_success, abs=0.35)
        serial_bias1 = np.mean([result.phase(1).bias_after for result in serial])
        assert batch.phase(1).bias_after.mean() == pytest.approx(serial_bias1, abs=0.08)
        # The boost is real on both paths: final bias far above the seed bias.
        assert batch.final_bias.mean() > 2 * self.INITIAL_BIAS

    def test_repeatability_is_bit_identical(self):
        parameters = _parameters().stage2
        runs = [
            run_stage2_instrumented(
                N, EPSILON, 4, initial_bias=0.2, base_seed=8, parameters=parameters
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].final_correct_fraction, runs[1].final_correct_fraction)
        for phase_a, phase_b in zip(runs[0].phases, runs[1].phases):
            assert np.array_equal(phase_a.successful_agents, phase_b.successful_agents)
            assert np.array_equal(phase_a.bias_after, phase_b.bias_after)


class TestCompositionBitIdentity:
    def test_broadcast_batch_is_exactly_stage1_then_stage2(self):
        """run_broadcast_batch == source state -> stage1 -> stage2 on the
        same stream: the protocol-level simulator and the instrumented
        kernels can never drift apart."""
        protocol = run_broadcast_batch(N, EPSILON, 7, base_seed=13)

        parameters = _parameters()
        rng = spawn_generator(13, "batch-broadcast", N)
        network = PushGossipNetwork(size=N)
        channel = BinarySymmetricChannel(epsilon=EPSILON)
        state = source_batch_state(N, 7, 1)
        stage1 = run_stage1_batch(state, network, channel, rng, parameters.stage1, 1)
        stage2 = run_stage2_batch(state, network, channel, rng, parameters.stage2, 1)

        assert protocol.rounds == stage1.rounds + stage2.rounds
        assert np.array_equal(protocol.stage1_bias, stage1.final_bias)
        assert np.array_equal(protocol.final_correct_fraction, stage2.final_correct_fraction)
        assert np.array_equal(protocol.success, stage2.consensus_reached)
        assert np.array_equal(protocol.messages_sent, stage1.messages_sent + stage2.messages_sent)

    def test_population_bias_grid_matches_population_bias(self):
        rng = RandomSource(1).stream("seeding")
        members = rng.choice(50, size=30, replace=False)
        opinions = np.full(50, NO_OPINION, dtype=np.int8)
        opinions[members] = (rng.random(30) < 0.6).astype(np.int8)
        assert population_bias_grid(opinions[None, :], 1)[0] == pytest.approx(population_bias(opinions, 1))


class TestWindowedBatch:
    """The Section-3 batch entry points run the stage kernels on skewed clocks."""

    @staticmethod
    def _stages(seed, offsets=None, guard=None):
        parameters = _parameters()
        R = 3
        rng = spawn_generator(seed, "skewed-kernels", N)
        network = PushGossipNetwork(size=N)
        channel = BinarySymmetricChannel(epsilon=EPSILON)
        state = source_batch_state(N, R, 1)
        skewed = {}
        if offsets is not None:
            stage1_schedule = build_stage1_schedule(parameters.stage1).dilated(guard)
            stage2_schedule = build_stage2_schedule(
                parameters.stage2, start_round=stage1_schedule.end
            ).dilated(guard)
            skewed = dict(offsets=offsets, schedules=[stage1_schedule] * R)
        stage1 = run_stage1_batch(state, network, channel, rng, parameters.stage1, 1, **skewed)
        if offsets is not None:
            skewed["schedules"] = [stage2_schedule] * R
        stage2 = run_stage2_batch(state, network, channel, rng, parameters.stage2, 1, **skewed)
        return stage1, stage2, state

    def test_equal_clocks_reproduce_the_synchronous_kernels(self):
        """Identical offsets and undilated schedules: every round is an
        interior round, so the run is the synchronous one, draw for draw."""
        synchronous = self._stages(4)
        equal_clocks = self._stages(4, offsets=np.zeros((3, N), dtype=np.int64), guard=0)
        for sync_stage, skewed_stage in zip(synchronous[:2], equal_clocks[:2]):
            assert skewed_stage.rounds == sync_stage.rounds
            for sync_phase, skewed_phase in zip(sync_stage.phases, skewed_stage.phases):
                for field in sync_phase.__dataclass_fields__:
                    assert np.array_equal(getattr(sync_phase, field), getattr(skewed_phase, field))
        assert np.array_equal(synchronous[2].opinions, equal_clocks[2].opinions)
        assert np.array_equal(synchronous[2].messages_sent, equal_clocks[2].messages_sent)

    def test_guard_smaller_than_skew_rejected(self):
        offsets = np.zeros((3, N), dtype=np.int64)
        offsets[1, 7] = 12
        with pytest.raises(ParameterError, match="at least the clock skew"):
            self._stages(4, offsets=offsets, guard=11)

    def test_skewed_clocks_need_offsets_and_one_schedule_per_replicate(self):
        parameters = _parameters()
        network = PushGossipNetwork(size=N)
        channel = BinarySymmetricChannel(epsilon=EPSILON)
        schedule = build_stage1_schedule(parameters.stage1)
        offsets = np.zeros((3, N), dtype=np.int64)
        for skewed in (
            dict(offsets=offsets),
            dict(schedules=[schedule] * 3),
            dict(offsets=offsets, schedules=[schedule] * 2),
            dict(offsets=offsets[:, :5], schedules=[schedule] * 3),
        ):
            with pytest.raises(ParameterError):
                run_stage1_batch(
                    source_batch_state(N, 3, 1), network, channel, np.random.default_rng(0),
                    parameters.stage1, 1, **skewed,
                )

    def test_skew_one_rounds_are_exact(self):
        """With max_skew=1 every offset is 0, so the guarded schedule is the
        whole story: a serial run (one replicate) and every replicate of a
        batch take the same rounds."""
        parameters = _parameters()
        serial = run_with_bounded_skew(N, EPSILON, max_skew=1, seed=5, parameters=parameters)
        batch = run_bounded_skew_batch(N, EPSILON, 4, max_skew=1, base_seed=5, parameters=parameters)
        assert np.all(batch.rounds == serial.rounds)

    def test_bounded_skew_rounds_formula_matches_the_serial_clock(self):
        """rounds = dilated-stage2-schedule end + max offset, per replicate."""
        parameters = _parameters()
        max_skew = 16
        batch = run_bounded_skew_batch(
            N, EPSILON, 6, max_skew=max_skew, base_seed=21, parameters=parameters
        )
        stage1_schedule = build_stage1_schedule(parameters.stage1).dilated(max_skew)
        stage2_schedule = build_stage2_schedule(
            parameters.stage2, start_round=stage1_schedule.end
        ).dilated(max_skew)
        assert np.all(batch.rounds >= stage2_schedule.end)
        assert np.all(batch.rounds < stage2_schedule.end + max_skew)
        assert np.all(batch.skew < max_skew)

    def test_clock_free_batch_mirrors_the_serial_protocol_shape(self):
        parameters = _parameters()
        batch = run_clock_free_batch(N, EPSILON, 4, base_seed=17, parameters=parameters)
        sync_rounds = parameters.total_rounds
        assert np.all(batch.rounds > sync_rounds), "guards and activation are additive overhead"
        assert np.all(batch.guard >= default_guard(N))
        assert np.all(batch.guard >= batch.skew)
        assert np.all(batch.activation_rounds >= 1)
        assert batch.success.mean() >= 0.5
        measurements = batch.measurements(0)
        assert set(measurements) >= {"rounds", "messages", "success", "skew"}

    def test_windowed_batch_is_repeatable(self):
        parameters = _parameters()
        runs = [
            run_clock_free_batch(N, EPSILON, 3, base_seed=19, parameters=parameters)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].rounds, runs[1].rounds)
        assert np.array_equal(runs[0].messages_sent, runs[1].messages_sent)
        assert np.array_equal(runs[0].skew, runs[1].skew)


class TestSilentWaitBatch:
    N = 60
    THRESHOLD = 9

    def _serial(self, seed, epsilon=0.45, **settings):
        """One serial trial: the rule at ``R = 1`` under ``seed``."""
        return replicate_trial(
            seed, 0, run_baseline_batch, protocol="silent-wait", n=self.N, epsilon=epsilon,
            threshold=self.THRESHOLD, **settings,
        )

    def test_statistical_agreement_with_serial(self):
        serial = [self._serial(seed) for seed in range(6)]
        batch = run_baseline_batch(
            "silent-wait", n=self.N, epsilon=0.45, num_replicates=12,
            base_seed=3, threshold=self.THRESHOLD,
        )
        serial_rounds = np.mean([result["rounds"] for result in serial])
        assert batch.rounds.mean() == pytest.approx(serial_rounds, rel=0.3)
        # At eps=0.45 the 9-sample majority is almost surely correct.
        assert batch.success.mean() >= 0.5
        assert np.all(batch.converged)
        serial_double = np.mean([result["first_two_messages_round"] for result in serial])
        batch_double = batch.extra["first_two_messages_round"]
        assert batch_double.mean() == pytest.approx(serial_double, rel=0.8)
        assert batch_double.mean() < 4 * np.sqrt(self.N) * 2

    def test_budget_exhaustion_reports_converged_false(self):
        batch = run_baseline_batch(
            "silent-wait", n=self.N, epsilon=0.45, num_replicates=3,
            base_seed=5, threshold=self.THRESHOLD, max_rounds=10,
        )
        assert np.all(~batch.converged)
        assert np.all(batch.rounds == 10)
        assert not np.any(batch.success)

    def test_allow_self_messages_matches_the_serial_target_distribution(self):
        """Regression: the batched rule must honour allow_self_messages like
        PushGossipNetwork._draw_targets — self-addressed pushes are wasted on
        the already-decided source, so runs are measurably slower, on both
        paths alike."""
        def serial_mean(allow_self: bool) -> float:
            rounds = [
                self._serial(seed, allow_self_messages=allow_self)["rounds"] for seed in range(5)
            ]
            return float(np.mean(rounds))

        def batch_mean(allow_self: bool) -> float:
            batch = run_baseline_batch(
                "silent-wait", n=self.N, epsilon=0.45, num_replicates=20,
                base_seed=11, threshold=self.THRESHOLD,
                allow_self_messages=allow_self,
            )
            return float(batch.rounds.mean())

        assert batch_mean(True) > batch_mean(False), "self-messages must slow the batch path"
        assert batch_mean(True) == pytest.approx(serial_mean(True), rel=0.3)

    def test_measurements_carry_the_serial_extras(self):
        batch = run_baseline_batch(
            "silent-wait", n=self.N, epsilon=0.45, num_replicates=2,
            base_seed=7, threshold=self.THRESHOLD,
        )
        measurements = batch.measurements(0)
        assert measurements["threshold"] == self.THRESHOLD
        assert set(measurements) >= {
            "rounds", "success", "converged", "decided_fraction",
            "first_two_messages_round",
        }


class TestScratchBufferHoisting:
    """The micro-perf pin: per-phase scratch grids are allocated once per
    batch (reset by fill), and the serial accumulators never reallocate their
    buffers across phases."""

    @staticmethod
    def _count_constructions(monkeypatch):
        constructions = []
        original = stage_batching._PhaseCounts.__init__

        def counting_init(self, shape):
            constructions.append(shape)
            original(self, shape)

        monkeypatch.setattr(stage_batching._PhaseCounts, "__init__", counting_init)
        return constructions

    def test_batch_stage1_allocates_its_counts_exactly_once(self, monkeypatch):
        parameters = StageOneParameters(beta_s=8, beta=4, beta_f=8, num_intermediate_phases=2)
        assert parameters.num_phases >= 3, "need a multi-phase run for the pin to mean anything"
        constructions = self._count_constructions(monkeypatch)
        run_stage1_instrumented(N, EPSILON, 4, base_seed=1, parameters=parameters)
        assert constructions == [(4, N)]

    def test_batch_stage2_allocates_its_counts_exactly_once(self, monkeypatch):
        parameters = _parameters().stage2
        assert parameters.num_phases >= 3
        constructions = self._count_constructions(monkeypatch)
        run_stage2_instrumented(N, EPSILON, 4, initial_bias=0.2, base_seed=1, parameters=parameters)
        assert constructions == [(4, N)]

    def test_scratch_reset_reuses_the_same_buffers(self):
        counts = stage_batching._PhaseCounts((3, 7))
        heard, ones = counts.heard, counts.ones
        heard[1, 2], ones[1, 2] = 5, 2
        counts.reset()
        assert counts.heard is heard and counts.ones is ones
        assert not heard.any() and not ones.any()

    def test_serial_accumulators_never_reallocate_across_phases(self):
        rng = np.random.default_rng(0)
        reception = ReceptionAccumulator(16)
        counts, ones = reception._counts, reception._ones
        for _ in range(5):  # five "phases"
            reception.observe(np.array([1, 2, 3]), np.array([1, 0, 1], dtype=np.int8))
            reception.chosen_bits(np.array([1, 2]), rng)
            reception.reset()
            assert reception._counts is counts and reception._ones is ones

        samples = SampleAccumulator(16)
        totals, ones = samples._total, samples._ones
        for _ in range(5):
            samples.observe(np.array([4, 5]), np.array([1, 1], dtype=np.int8))
            samples.reset()
            assert samples._total is totals and samples._ones is ones


class TestDeliveryCallsPerPhase:
    """A phase's senders and bits are fixed, so on equal clocks each stage
    kernel delivers a whole phase in one ``deliver_batch`` call; skewed-clock
    edge rounds and faulty rounds go one round per call."""

    @staticmethod
    def _record_rounds(monkeypatch):
        calls = []
        original = PushGossipNetwork.deliver_batch

        def recording(self, send_mask, bits, channel, rng, faults=None, rounds=1):
            calls.append(rounds)
            return original(self, send_mask, bits, channel, rng, faults=faults, rounds=rounds)

        monkeypatch.setattr(PushGossipNetwork, "deliver_batch", recording)
        return calls

    def test_equal_clocks_make_one_call_per_phase(self, monkeypatch):
        calls = self._record_rounds(monkeypatch)
        result = run_broadcast_batch(N, EPSILON, 3, base_seed=2)
        parameters = _parameters()
        phases = parameters.stage1.num_phases + parameters.stage2.num_phases
        assert len(calls) == phases
        assert sum(calls) == result.rounds

    def test_faulty_rounds_make_one_call_each(self, monkeypatch):
        from repro.substrate.faults import CrashStop

        calls = self._record_rounds(monkeypatch)
        model = CrashStop(fraction=0.2, crash_probability=0.1, immune=(0,))
        result = run_broadcast_batch(N, EPSILON, 3, base_seed=2, model=model)
        assert set(calls) == {1}
        assert len(calls) == result.rounds

    def test_skewed_clocks_fuse_only_the_interior_rounds(self, monkeypatch):
        calls = self._record_rounds(monkeypatch)
        run_bounded_skew_batch(N, EPSILON, 2, max_skew=4, base_seed=2)
        parameters = _parameters()
        phases = parameters.stage1.num_phases + parameters.stage2.num_phases
        fused = [rounds for rounds in calls if rounds > 1]
        assert len(fused) == phases, "one interior run per phase"
        assert len(calls) > phases, "edge rounds go one per call"
