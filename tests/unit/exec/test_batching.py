"""Unit tests for the batched execution path: gossip rounds and full protocol.

Pins both halves of the determinism contract in ``repro.exec.batching``'s
module docstring: exact equality wherever the model is deterministic
(channel semantics, round schedules, seed bookkeeping) and distributional
agreement with the serial path for the stochastic observables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExecutionConfig, run_experiment
from repro.core.broadcast import solve_noisy_broadcast
from repro.core.majority import solve_noisy_majority_consensus
from repro.core.parameters import ProtocolParameters
from repro.errors import ExperimentError, ParameterError, ProtocolError
from repro.exec import batching
from repro.exec.batching import (
    run_batch_cell,
    run_broadcast_batch,
    run_broadcast_sweep_batched,
    run_majority_batch,
    run_sweep_batched,
)
from repro.exec.runner import trial_seed
from repro.exec.stage_batching import run_stage1_instrumented
from repro.substrate.network import PushGossipNetwork
from repro.substrate.rng import derive_seed
from repro.substrate.noise import BinarySymmetricChannel, PerfectChannel


class TestTransmitBatch:
    def test_equals_flat_transmit_seed_for_seed(self):
        """transmit_batch is bit-identical to transmit on the masked values."""
        channel = BinarySymmetricChannel(epsilon=0.2)
        rng_batch = np.random.default_rng(13)
        rng_flat = np.random.default_rng(13)
        bits = np.asarray([[1, 0, 1, 1], [0, 0, 1, 0]], dtype=np.int8)
        mask = np.asarray([[True, False, True, True], [False, True, True, False]])

        batched = channel.transmit_batch(bits, mask, rng_batch)
        flat = channel.transmit(bits[mask], rng_flat)

        assert np.array_equal(batched[mask], flat)
        assert np.array_equal(batched[~mask], bits[~mask]), "unaccepted entries pass through"

    def test_shape_mismatch_rejected(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            PerfectChannel().transmit_batch(
                np.ones((2, 3), dtype=np.int8), np.ones((3, 2), dtype=bool), np.random.default_rng(0)
            )


class TestDeliverBatch:
    def test_single_sender_per_replicate_is_exact(self):
        """With one sender and no noise the model is deterministic: exactly one
        delivery per replicate, the sent bit survives, no self-delivery."""
        network = PushGossipNetwork(size=30)
        rng = np.random.default_rng(3)
        R = 16
        mask = np.zeros((R, 30), dtype=bool)
        mask[:, 4] = True
        bits = np.ones((R, 30), dtype=np.int8)
        report = network.deliver_batch(mask, bits, PerfectChannel(), rng)
        assert np.array_equal(report.messages_sent, np.ones(R, dtype=np.int64))
        assert np.array_equal(report.messages_delivered, np.ones(R, dtype=np.int64))
        rows, cols = np.nonzero(report.heard)
        assert np.array_equal(rows, np.arange(R)), "exactly one acceptance per replicate"
        assert np.all(cols != 4), "no self-delivery"
        assert np.all(report.ones[rows, cols] == 1)
        assert np.all(report.ones[~report.heard] == 0)

    def test_statistics_match_serial_deliver(self):
        """Delivered fraction and flip rate agree with serial ``deliver``."""
        n, rounds = 400, 30
        channel = BinarySymmetricChannel(epsilon=0.2)
        senders = np.arange(n)
        bits = np.ones(n, dtype=np.int8)

        serial_rng = np.random.default_rng(1)
        serial_net = PushGossipNetwork(size=n)
        serial_delivered = serial_flipped = 0
        for _ in range(rounds):
            report = serial_net.deliver(senders, bits, channel, serial_rng)
            serial_delivered += report.messages_delivered
            serial_flipped += int((report.ones[report.heard] == 0).sum())

        batch_rng = np.random.default_rng(2)
        batch_net = PushGossipNetwork(size=n)
        batch = batch_net.deliver_batch(
            np.ones((rounds, n), dtype=bool), np.ones((rounds, n), dtype=np.int8), channel, batch_rng
        )
        batch_delivered = int(batch.messages_delivered.sum())
        batch_flipped = int((batch.ones[batch.heard] == 0).sum())

        serial_fraction = serial_delivered / (rounds * n)
        batch_fraction = batch_delivered / (rounds * n)
        assert serial_fraction == pytest.approx(1 - np.exp(-1), abs=0.02)
        assert batch_fraction == pytest.approx(serial_fraction, abs=0.02)
        assert batch_flipped / batch_delivered == pytest.approx(
            serial_flipped / serial_delivered, abs=0.02
        )

    def test_deterministic_for_fixed_seed(self):
        network = PushGossipNetwork(size=50)
        mask = np.ones((6, 50), dtype=bool)
        bits = np.ones((6, 50), dtype=np.int8)
        first = network.deliver_batch(mask, bits, BinarySymmetricChannel(0.25), np.random.default_rng(9))
        second = network.deliver_batch(mask, bits, BinarySymmetricChannel(0.25), np.random.default_rng(9))
        assert np.array_equal(first.heard, second.heard)
        assert np.array_equal(first.ones, second.ones)

    def test_validation(self):
        network = PushGossipNetwork(size=10)
        rng = np.random.default_rng(0)
        channel = PerfectChannel()
        with pytest.raises(ProtocolError):
            network.deliver_batch(np.ones(10, dtype=bool), np.ones(10, dtype=np.int8), channel, rng)
        with pytest.raises(ProtocolError):
            network.deliver_batch(
                np.ones((2, 8), dtype=bool), np.ones((2, 8), dtype=np.int8), channel, rng
            )
        bad_bits = np.full((2, 10), 3, dtype=np.int8)
        with pytest.raises(ProtocolError):
            network.deliver_batch(np.ones((2, 10), dtype=bool), bad_bits, channel, rng)
        opinions = np.full((2, 10), -1, dtype=np.int8)  # no agent holds an opinion
        with pytest.raises(ProtocolError, match="boolean"):
            network.deliver_batch(opinions, np.zeros((2, 10), dtype=np.int8), channel, rng)


class TestBatchedBroadcast:
    def test_round_schedule_exactly_matches_serial(self):
        """The paper's schedule is deterministic: batch rounds == serial rounds."""
        serial = solve_noisy_broadcast(n=250, epsilon=0.3, seed=0)
        batch = run_broadcast_batch(n=250, epsilon=0.3, num_replicates=4, base_seed=0)
        assert batch.rounds == serial.rounds

    def test_statistical_agreement_with_serial(self):
        n, epsilon, R = 300, 0.3, 6
        serial = [solve_noisy_broadcast(n=n, epsilon=epsilon, seed=seed) for seed in range(R)]
        batch = run_broadcast_batch(n=n, epsilon=epsilon, num_replicates=R, base_seed=0)
        assert batch.success.mean() >= 0.8
        assert np.mean([r.success for r in serial]) >= 0.8
        serial_messages = np.mean([r.messages_sent for r in serial])
        assert batch.messages_sent.mean() == pytest.approx(serial_messages, rel=0.05)
        assert batch.final_correct_fraction.mean() == pytest.approx(
            np.mean([r.final_correct_fraction for r in serial]), abs=0.05
        )

    def test_deterministic_for_fixed_base_seed(self):
        first = run_broadcast_batch(n=250, epsilon=0.3, num_replicates=5, base_seed=7)
        second = run_broadcast_batch(n=250, epsilon=0.3, num_replicates=5, base_seed=7)
        assert np.array_equal(first.success, second.success)
        assert np.array_equal(first.messages_sent, second.messages_sent)
        assert np.array_equal(first.final_correct_fraction, second.final_correct_fraction)
        different = run_broadcast_batch(n=250, epsilon=0.3, num_replicates=5, base_seed=8)
        assert not np.array_equal(first.messages_sent, different.messages_sent)

    def test_rejects_zero_replicates(self):
        with pytest.raises(ExperimentError):
            run_broadcast_batch(n=250, epsilon=0.3, num_replicates=0)

    def test_measurements_are_trial_compatible(self):
        batch = run_broadcast_batch(n=250, epsilon=0.3, num_replicates=3, base_seed=1)
        measurements = batch.measurements(0)
        assert {"rounds", "messages", "messages_per_agent", "success", "final_correct_fraction"} <= set(
            measurements
        )
        assert measurements["messages_per_agent"] == pytest.approx(measurements["messages"] / 250)


class TestRunBatchCell:
    def test_batch_fn_gets_the_replicate_count_and_the_cell_batch_seed(self):
        captured = {}

        def fake_batch(**kwargs):
            captured.update(kwargs)
            return run_broadcast_batch(**kwargs)

        run_batch_cell("B", fake_batch, 3, base_seed=5, n=250, epsilon=0.3)
        assert captured == {
            "num_replicates": 3,
            "base_seed": derive_seed(5, "B", "batch"),
            "n": 250,
            "epsilon": 0.3,
        }

    def test_replicates_are_recorded_under_the_serial_trial_seeds(self):
        result = run_batch_cell(
            "B", run_broadcast_batch, 3, base_seed=5, config={"n": 250}, n=250, epsilon=0.3
        )
        batch = run_broadcast_batch(
            n=250, epsilon=0.3, num_replicates=3, base_seed=derive_seed(5, "B", "batch")
        )
        assert (result.name, result.config, result.num_trials) == ("B", {"n": 250}, 3)
        assert [t.trial_index for t in result.trials] == [0, 1, 2]
        assert [t.seed for t in result.trials] == [trial_seed(5, "B", i) for i in range(3)]
        assert [t.measurements for t in result.trials] == [
            batch.measurements(i) for i in range(3)
        ]

    def test_measure_overrides_the_batch_measurements(self):
        def phase_counts(batch):
            return [{"phases": len(batch.phases)} for _ in range(batch.num_replicates)]

        result = run_batch_cell(
            "S", run_stage1_instrumented, 2, measure=phase_counts, n=250, epsilon=0.3
        )
        batch = run_stage1_instrumented(n=250, epsilon=0.3, num_replicates=2)
        assert [t.measurements for t in result.trials] == phase_counts(batch)
        assert [t.seed for t in result.trials] == [trial_seed(0, "S", i) for i in range(2)]

    def test_failing_cell_on_a_pool_is_named_in_the_error(self, on_local_pool):
        with pytest.raises(ExperimentError) as excinfo:
            on_local_pool(
                run_broadcast_sweep_batched,
                name="M",
                points=[{"correct_opinion": 1}, {"correct_opinion": 2}],
                trials_per_point=2,
                defaults={"n": 250, "epsilon": 0.3},
            )
        assert "name='M[correct_opinion=2]'" in str(excinfo.value)


class TestBatchAdapters:
    def test_batched_sweep_mirrors_run_sweep_naming(self):
        sweep = run_broadcast_sweep_batched(
            name="S",
            points=[{"n": 250}, {"n": 350}],
            trials_per_point=2,
            base_seed=3,
            defaults={"epsilon": 0.3},
        )
        assert [point.as_dict()["n"] for point in sweep.points] == [250, 350]
        assert [result.name for result in sweep.results] == ["S[n=250]", "S[n=350]"]
        xs, ys = sweep.series("n", "rounds")
        assert xs == [250, 350]
        assert ys[1] > ys[0], "larger n needs more rounds"

    def test_sweep_requires_n_and_epsilon(self):
        with pytest.raises(ExperimentError):
            run_broadcast_sweep_batched(
                name="S", points=[{"n": 250}], trials_per_point=2, base_seed=0
            )


class TestBatchedMajority:
    def test_round_schedule_and_start_phase_exactly_match_serial(self):
        """Schedule and start phase are deterministic: batch == serial exactly."""
        serial = solve_noisy_majority_consensus(
            n=300, epsilon=0.3, initial_set_size=40, majority_bias=0.25, seed=0
        )
        batch = run_majority_batch(
            n=300, epsilon=0.3, num_replicates=4, initial_set_size=40, majority_bias=0.25
        )
        assert batch.rounds == serial.rounds
        assert batch.start_phase == serial.start_phase
        assert batch.initial_bias == pytest.approx(serial.initial_bias)

    def test_statistical_agreement_with_serial(self):
        n, epsilon, R = 300, 0.3, 6
        kwargs = dict(n=n, epsilon=epsilon, initial_set_size=50, majority_bias=0.3)
        serial = [solve_noisy_majority_consensus(seed=seed, **kwargs) for seed in range(R)]
        batch = run_majority_batch(num_replicates=R, base_seed=0, **kwargs)
        assert batch.success.mean() >= 0.8
        assert np.mean([r.success for r in serial]) >= 0.8
        serial_messages = np.mean([r.messages_sent for r in serial])
        assert batch.messages_sent.mean() == pytest.approx(serial_messages, rel=0.05)
        assert batch.final_correct_fraction.mean() == pytest.approx(
            np.mean([r.final_correct_fraction for r in serial]), abs=0.05
        )

    def test_deterministic_for_fixed_base_seed(self):
        kwargs = dict(
            n=250, epsilon=0.3, num_replicates=5, initial_set_size=30, majority_bias=0.3
        )
        first = run_majority_batch(base_seed=7, **kwargs)
        second = run_majority_batch(base_seed=7, **kwargs)
        assert np.array_equal(first.success, second.success)
        assert np.array_equal(first.messages_sent, second.messages_sent)
        assert np.array_equal(first.final_correct_fraction, second.final_correct_fraction)
        assert np.array_equal(first.stage1_bias, second.stage1_bias)
        different = run_majority_batch(base_seed=8, **kwargs)
        assert not np.array_equal(first.stage1_bias, different.stage1_bias)

    def test_start_phase_override_shortens_schedule(self):
        """A forced late start skips early Stage-I phases, exactly as serially."""
        base = dict(n=400, epsilon=0.4, num_replicates=2, initial_set_size=60, majority_bias=0.3,
                    s0=1.0, beta_override=4)
        parameters = ProtocolParameters.calibrated(400, 0.4, s0=1.0, beta_override=4)
        default = run_majority_batch(base_seed=1, **base)
        late = run_majority_batch(base_seed=1, start_phase=default.start_phase + 1, **base)
        assert late.start_phase == default.start_phase + 1 < parameters.stage1.num_phases
        assert late.rounds == default.rounds - parameters.stage1.phase_length(default.start_phase)

    @pytest.mark.parametrize("start_phase", [2, 5])
    def test_start_phase_past_stage1_rejected(self, start_phase):
        """n = 200, eps = 0.3 has two Stage-I phases; starting past them used
        to return a Stage-II-only run."""
        with pytest.raises(ParameterError, match="out of range"):
            run_majority_batch(
                n=200, epsilon=0.3, num_replicates=2, initial_set_size=60,
                majority_bias=0.25, start_phase=start_phase,
            )

    def test_validation(self):
        with pytest.raises(ExperimentError):
            run_majority_batch(
                n=250, epsilon=0.3, num_replicates=0, initial_set_size=30, majority_bias=0.3
            )
        with pytest.raises(ParameterError):
            run_majority_batch(
                n=250, epsilon=0.3, num_replicates=2, initial_set_size=0, majority_bias=0.3
            )
        with pytest.raises(ParameterError):
            run_majority_batch(
                n=250, epsilon=0.3, num_replicates=2, initial_set_size=30, majority_bias=-0.1
            )

    def test_measurements_are_e8_trial_compatible(self):
        """Batch measurements form a superset of the serial E8 trial keys."""
        batch = run_majority_batch(
            n=250, epsilon=0.3, num_replicates=3, initial_set_size=30, majority_bias=0.3
        )
        measurements = batch.measurements(0)
        assert {"success", "final_fraction", "rounds"} <= set(measurements)
        assert measurements["final_fraction"] == measurements["final_correct_fraction"]
        assert measurements["start_phase"] == batch.start_phase


class TestSweepDispatch:
    def test_forwards_calibration_overrides_regression(self):
        """Regression for the drop-through bug: a calibration override in
        ``defaults`` must reach the batch simulator, exactly as a serial
        ``run_sweep`` trial function receives the full point settings.  The
        round schedule is a deterministic function of the override, so the
        check is exact."""
        overridden_serial = solve_noisy_broadcast(n=250, epsilon=0.3, seed=0, s0=4.0)
        plain_serial = solve_noisy_broadcast(n=250, epsilon=0.3, seed=0)
        assert overridden_serial.rounds != plain_serial.rounds, "override must matter"

        sweep = run_broadcast_sweep_batched(
            name="S",
            points=[{"n": 250}],
            trials_per_point=2,
            base_seed=0,
            defaults={"epsilon": 0.3, "s0": 4.0},
        )
        assert sweep.results[0].mean("rounds") == overridden_serial.rounds

    def test_forwards_every_recognised_instance_setting(self, monkeypatch):
        """correct_opinion and calibration overrides all reach the simulator."""
        captured = {}

        def fake_batch(**kwargs):
            captured.update(kwargs)
            return run_broadcast_batch(n=kwargs["n"], epsilon=kwargs["epsilon"], num_replicates=2)

        monkeypatch.setitem(
            batching._SWEEP_SETTINGS, fake_batch, batching._SWEEP_SETTINGS[run_broadcast_batch]
        )
        run_sweep_batched(
            name="S",
            points=[{"n": 250, "correct_opinion": 0}],
            batch_fn=fake_batch,
            trials_per_point=2,
            base_seed=0,
            defaults={"epsilon": 0.3, "b0": 2.5},
        )
        assert captured["correct_opinion"] == 0
        assert captured["b0"] == 2.5

    def test_coerces_numeric_settings_like_serial_trials(self):
        """Float grid values a serial sweep accepts work identically batched."""
        sweep = run_broadcast_sweep_batched(
            name="S",
            points=[{"n": 250.0}],
            trials_per_point=2,
            base_seed=0,
            defaults={"epsilon": 0.3},
        )
        assert sweep.results[0].rate("success") >= 0.0  # ran without TypeError

    @pytest.mark.parametrize("setting", ["turbo", "allow_self_messages"])
    def test_unrecognised_setting_raises(self, setting):
        """A typo'd setting, or the self-message switch agents no longer have."""
        with pytest.raises(ExperimentError, match="unrecognised"):
            run_broadcast_sweep_batched(
                name="S",
                points=[{"n": 250, setting: True}],
                trials_per_point=2,
                base_seed=0,
                defaults={"epsilon": 0.3},
            )

    def test_majority_grid_keys_are_not_broadcast_settings(self):
        with pytest.raises(ExperimentError, match=r"unrecognised setting\(s\) \['set_size'\]"):
            run_broadcast_sweep_batched(
                name="S",
                points=[{"set_size": 30}],
                trials_per_point=2,
                defaults={"n": 250, "epsilon": 0.3},
            )

    def test_batch_fn_without_a_settings_entry_raises(self):
        with pytest.raises(ExperimentError, match="cannot dispatch"):
            run_sweep_batched(
                name="S",
                points=[{"n": 250}],
                batch_fn=run_stage1_instrumented,
                trials_per_point=2,
                defaults={"epsilon": 0.3},
            )


class TestPooledBatchedSweep:
    def test_pool_is_bit_identical_to_in_process(self, on_local_pool):
        kwargs = dict(
            name="P",
            points=[{"n": 250}, {"n": 300}],
            trials_per_point=2,
            base_seed=5,
            defaults={"epsilon": 0.3},
        )
        in_process = run_broadcast_sweep_batched(**kwargs)
        pooled = on_local_pool(run_broadcast_sweep_batched, **kwargs)
        assert [r.to_dict() for r in pooled.results] == [
            r.to_dict() for r in in_process.results
        ]


class TestDriverBatchMode:
    def test_e1_batch_report_matches_serial_schedule(self):
        """E1 in batch mode reproduces the schedule-determined columns exactly."""
        kwargs = dict(sizes=(250, 400), epsilon=0.3, trials=2)
        serial = run_experiment("E1", **kwargs).report
        batched = run_experiment("E1", config=ExecutionConfig(batch=True), **kwargs).report
        assert [row["mean_rounds"] for row in batched.rows] == [
            row["mean_rounds"] for row in serial.rows
        ]
        assert all(row["success_rate"] >= 0.5 for row in batched.rows)

    def test_e8_batch_report_matches_serial_schedule(self):
        """E8 in batch mode is statistically equivalent to the serial driver:
        the schedule-determined columns match exactly and well-initialised
        points succeed on both paths."""
        kwargs = dict(n=400, epsilon=0.3, set_sizes=(40, 100), biases=(0.3,), trials=2)
        serial = run_experiment("E8", **kwargs).report
        batched = run_experiment("E8", config=ExecutionConfig(batch=True), **kwargs).report
        assert [row["mean_rounds"] for row in batched.rows] == [
            row["mean_rounds"] for row in serial.rows
        ]
        assert [row["set_size"] for row in batched.rows] == [
            row["set_size"] for row in serial.rows
        ]
        assert all(row["success_rate"] >= 0.5 for row in batched.rows)

    @pytest.mark.parametrize(
        "batch, tasks", [(True, 2), (False, 2)], ids=["batch-point-tasks", "serial-point-tasks"]
    )
    def test_e8_on_a_pool_identical(self, batch, tasks):
        kwargs = dict(n=300, epsilon=0.3, set_sizes=(40,), biases=(0.3, 0.35), trials=2)
        in_process = run_experiment("E8", config=ExecutionConfig(batch=batch), **kwargs)
        pooled = run_experiment(
            "E8",
            config=ExecutionConfig(
                batch=batch, backend="local", backend_options={"workers": 2}
            ),
            **kwargs,
        )
        assert pooled.execution["backend"] == {"name": "local", "workers": 2, "tasks": tasks}
        assert in_process.report.rows == pooled.report.rows

    def test_e10_batch_mode_statistically_equivalent(self):
        """E10's batched Monte-Carlo grid agrees with the per-delta loop."""
        kwargs = dict(epsilon=0.25, deltas=(0.02, 0.1), monte_carlo_reps=20_000)
        serial = run_experiment("E10", **kwargs).report
        batched = run_experiment("E10", config=ExecutionConfig(batch=True), **kwargs).report
        assert batched.config["batch"] is True
        for serial_row, batched_row in zip(serial.rows, batched.rows):
            assert batched_row["exact_majority_prob"] == serial_row["exact_majority_prob"]
            assert batched_row["monte_carlo_majority_prob"] == pytest.approx(
                serial_row["monte_carlo_majority_prob"], abs=0.02
            )
            assert batched_row["bound_satisfied"] == serial_row["bound_satisfied"]
