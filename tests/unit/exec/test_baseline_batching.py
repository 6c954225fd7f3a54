"""Differential tests for the batched baseline-protocol path (E7 family).

Pins the determinism contract of :func:`repro.exec.batching.run_baseline_batch`
against the serial protocol classes in :mod:`repro.protocols`: exact equality
wherever the model is deterministic (round budgets, sampling schedules,
noiseless dynamics) and distributional agreement for the stochastic
observables (success, final fraction, messages) — the batch consumes one
batch-level random stream instead of one stream tree per engine, which is the
documented RNG-consumption-order caveat.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExecutionConfig, run_experiment
from repro.errors import ExperimentError, ParameterError
from repro.exec.batching import (
    batchable_baselines,
    run_baseline_batch,
    run_sweep_batched,
)
from repro.protocols.direct_source import DirectSourceReference
from repro.protocols.naive_forward import ImmediateForwardingBroadcast
from repro.protocols.noisy_voter import NoisyVoterBroadcast
from repro.protocols.silent_wait import SilentWaitBroadcast
from repro.substrate.engine import SimulationEngine
from repro.substrate.noise import PerfectChannel

#: ExecutionConfig fields of a two-worker local pool.
POOL = {"backend": "local", "backend_options": {"workers": 2}}


def _serial_runs(protocol_factory, n, epsilon, seeds, channel=None):
    results = []
    for seed in seeds:
        engine = SimulationEngine.create(n=n, epsilon=epsilon, seed=seed, channel=channel)
        results.append(protocol_factory().run(engine, correct_opinion=1))
    return results


class TestDispatch:
    def test_batchable_baselines_lists_the_e7_and_e11_family(self):
        assert batchable_baselines() == [
            "direct-source-reference",
            "immediate-forwarding",
            "noisy-voter",
            "silent-wait",
        ]

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ExperimentError, match="not a registered protocol"):
            run_baseline_batch("teleportation", n=100, epsilon=0.3, num_replicates=2)

    def test_registered_but_unbatched_protocol_rejected(self):
        """A real registry name without a step rule fails with a distinct message."""
        with pytest.raises(ExperimentError, match="no batched step rule"):
            run_baseline_batch("three-state-majority", n=100, epsilon=0.3, num_replicates=2)

    def test_unrecognised_option_rejected_per_protocol(self):
        """`rounds` belongs to the direct-source reference, not the voter."""
        with pytest.raises(ExperimentError, match="unrecognised option"):
            run_baseline_batch("noisy-voter", n=100, epsilon=0.3, num_replicates=2, rounds=5)

    def test_none_options_mean_protocol_default(self):
        batch = run_baseline_batch(
            "immediate-forwarding", n=100, epsilon=0.3, num_replicates=2, max_rounds=None
        )
        assert batch.rounds[0] == ImmediateForwardingBroadcast().run(
            SimulationEngine.create(n=100, epsilon=0.3, seed=0), correct_opinion=1
        ).rounds

    def test_rejects_zero_replicates(self):
        with pytest.raises(ExperimentError):
            run_baseline_batch("noisy-voter", n=100, epsilon=0.3, num_replicates=0)

    def test_deterministic_for_fixed_base_seed(self):
        kwargs = dict(n=150, epsilon=0.3, num_replicates=4, base_seed=9)
        first = run_baseline_batch("immediate-forwarding", **kwargs)
        second = run_baseline_batch("immediate-forwarding", **kwargs)
        assert np.array_equal(first.final_correct_fraction, second.final_correct_fraction)
        assert np.array_equal(first.messages_sent, second.messages_sent)
        different = run_baseline_batch("immediate-forwarding", n=150, epsilon=0.3, num_replicates=4, base_seed=10)
        assert not np.array_equal(first.messages_sent, different.messages_sent)


#: Budgets a baseline rejects on both paths: (registry name, class, options).
INVALID_BUDGETS = [
    ("noisy-voter", NoisyVoterBroadcast, {"max_rounds": 0}),
    ("noisy-voter", NoisyVoterBroadcast, {"check_every": 0}),
    ("silent-wait", SilentWaitBroadcast, {"max_rounds": 0}),
    ("silent-wait", SilentWaitBroadcast, {"threshold": 0}),
    ("direct-source-reference", DirectSourceReference, {"rounds": 0}),
]


@pytest.mark.parametrize("path", ["serial", "batch"])
@pytest.mark.parametrize(
    "protocol, protocol_class, options",
    INVALID_BUDGETS,
    ids=[f"{name}-{next(iter(options))}" for name, _, options in INVALID_BUDGETS],
)
def test_serial_and_batch_reject_the_same_budgets(path, protocol, protocol_class, options):
    """The serial class holds the check and the batched rule goes through it."""
    with pytest.raises(ParameterError, match="must be at least 1"):
        if path == "serial":
            engine = SimulationEngine.create(n=60, epsilon=0.3, seed=0)
            protocol_class(**options).run(engine, correct_opinion=1)
        else:
            run_baseline_batch(protocol, n=60, epsilon=0.3, num_replicates=2, **options)


class TestForwardingDifferential:
    def test_round_budget_exactly_matches_serial(self):
        """The forwarding budget is fixed by n: batch rounds == serial rounds."""
        serial = _serial_runs(ImmediateForwardingBroadcast, 250, 0.3, range(3))
        batch = run_baseline_batch("immediate-forwarding", n=250, epsilon=0.3, num_replicates=3)
        assert {r.rounds for r in serial} == {int(batch.rounds[0])}
        assert np.all(batch.rounds == serial[0].rounds)

    def test_statistical_agreement_with_serial(self):
        """Success/final-fraction/messages agree with the serial protocol
        (same dynamics, different stream — the documented caveat)."""
        n, epsilon, R = 400, 0.2, 8
        serial = _serial_runs(ImmediateForwardingBroadcast, n, epsilon, range(R))
        batch = run_baseline_batch("immediate-forwarding", n=n, epsilon=epsilon, num_replicates=R)
        # Section 1.6: both paths hover near the coin flip, far from consensus.
        assert 0.3 < batch.final_correct_fraction.mean() < 0.8
        assert 0.3 < np.mean([r.final_correct_fraction for r in serial]) < 0.8
        assert batch.success.mean() == np.mean([r.success for r in serial]) == 0.0
        serial_messages = np.mean([r.messages_sent for r in serial])
        assert batch.messages_sent.mean() == pytest.approx(serial_messages, rel=0.1)
        # The rumor reaches everyone on both paths (reach is the easy part).
        assert batch.converged.all() and all(r.converged for r in serial)

    def test_noiseless_forwarding_is_all_correct(self):
        """With a perfect channel only correct bits circulate — exact equality."""
        serial = _serial_runs(
            ImmediateForwardingBroadcast, 120, 0.5, range(2), channel=PerfectChannel()
        )
        batch = run_baseline_batch(
            "immediate-forwarding", n=120, epsilon=0.5, num_replicates=4, channel=PerfectChannel()
        )
        assert batch.success.all() and all(r.success for r in serial)
        assert np.all(batch.final_correct_fraction == 1.0)


class TestVoterDifferential:
    def test_budget_exhaustion_matches_serial_under_noise(self):
        """Under noise the voter never converges: rounds == budget on both
        paths, and neither path fakes a convergence round."""
        n, epsilon, R, budget = 300, 0.2, 5, 80
        serial = _serial_runs(
            lambda: NoisyVoterBroadcast(max_rounds=budget), n, epsilon, range(R)
        )
        batch = run_baseline_batch(
            "noisy-voter", n=n, epsilon=epsilon, num_replicates=R, max_rounds=budget
        )
        assert all(r.rounds == budget and not r.converged for r in serial)
        assert np.all(batch.rounds == budget)
        assert not batch.converged.any()
        assert batch.measurements(0)["rounds_converged"] is None
        # The population bias sits at the noise floor on both paths.
        assert abs(batch.final_correct_fraction.mean() - 0.5) < 0.15
        assert abs(np.mean([r.final_correct_fraction for r in serial]) - 0.5) < 0.15

    def test_noiseless_voter_converges_on_both_paths(self):
        """Without noise only the zealot's bit circulates, so the dynamics
        lock onto it; both paths stop at a consensus check, not the budget."""
        n, R = 80, 4
        serial = _serial_runs(
            lambda: NoisyVoterBroadcast(max_rounds=2000), n, 0.5, range(R), channel=PerfectChannel()
        )
        batch = run_baseline_batch(
            "noisy-voter", n=n, epsilon=0.5, num_replicates=R, channel=PerfectChannel()
        )
        assert batch.converged.all() and all(r.converged for r in serial)
        assert batch.success.all() and all(r.success for r in serial)
        # Convergence is only detected on check_every boundaries, exactly as serially.
        assert np.all(batch.rounds % 16 == 0)
        assert all(r.rounds % 16 == 0 for r in serial)
        assert batch.rounds.mean() == pytest.approx(np.mean([r.rounds for r in serial]), rel=0.5)


class TestDirectSourceDifferential:
    def test_sampling_schedule_exactly_matches_serial(self):
        """The sampling budget is fixed by (n, epsilon): batch == serial."""
        serial = _serial_runs(DirectSourceReference, 250, 0.3, range(3))
        batch = run_baseline_batch("direct-source-reference", n=250, epsilon=0.3, num_replicates=3)
        assert np.all(batch.rounds == serial[0].rounds)
        assert np.all(batch.messages_sent == serial[0].messages_sent)

    def test_statistical_agreement_with_serial(self):
        n, epsilon, R = 300, 0.3, 6
        serial = _serial_runs(DirectSourceReference, n, epsilon, range(R))
        batch = run_baseline_batch("direct-source-reference", n=n, epsilon=epsilon, num_replicates=R)
        assert batch.success.all() and all(r.success for r in serial)
        serial_first = [r.extra["first_all_correct_round"] for r in serial]
        assert all(first is not None for first in serial_first)
        batch_first = batch.extra["rounds_to_all_correct"]
        assert not np.isnan(batch_first).any()
        assert batch_first.mean() == pytest.approx(np.mean(serial_first), rel=0.5)

    def test_never_converged_replicates_report_none_not_budget(self):
        """With a tiny sampling budget the running majority cannot go
        all-correct; the measurement is None, never the budget in disguise."""
        batch = run_baseline_batch(
            "direct-source-reference", n=200, epsilon=0.1, num_replicates=3, rounds=1
        )
        assert np.isnan(batch.extra["rounds_to_all_correct"]).all()
        measurements = batch.measurements(0)
        assert measurements["rounds_to_all_correct"] is None
        assert measurements["all_correct"] is False
        assert measurements["rounds"] == 1


class TestBaselineSweepShape:
    def test_baseline_points_record_baseline_measurements(self):
        sweep = run_sweep_batched(
            name="B",
            points=[{"protocol": "immediate-forwarding"}],
            batch_fn=run_baseline_batch,
            trials_per_point=2,
            base_seed=0,
            defaults={"n": 150, "epsilon": 0.3},
        )
        measurements = sweep.results[0].trials[0].measurements
        assert {"rounds", "success", "converged", "fraction"} <= set(measurements)

    def test_forwards_protocol_options_and_coerces(self):
        sweep = run_sweep_batched(
            name="B",
            points=[{"protocol": "noisy-voter", "max_rounds": 32.0}],
            batch_fn=run_baseline_batch,
            trials_per_point=2,
            base_seed=0,
            defaults={"n": 150, "epsilon": 0.3},
        )
        assert sweep.results[0].mean("rounds") == 32

    def test_requires_protocol_when_forced_baseline(self):
        with pytest.raises(ExperimentError, match="must define"):
            run_sweep_batched(
                name="B",
                points=[{"n": 150}],
                batch_fn=run_baseline_batch,
                trials_per_point=2,
                defaults={"epsilon": 0.3},
                )

    def test_unrecognised_setting_raises(self):
        with pytest.raises(ExperimentError, match="unrecognised"):
            run_sweep_batched(
                name="B",
                points=[{"protocol": "noisy-voter", "turbo": True}],
                batch_fn=run_baseline_batch,
                trials_per_point=2,
                defaults={"n": 150, "epsilon": 0.3},
            )

    def test_pool_is_bit_identical_to_in_process(self, on_local_pool):
        kwargs = dict(
            name="B",
            points=[{"protocol": "immediate-forwarding"}, {"protocol": "noisy-voter", "max_rounds": 24}],
            batch_fn=run_baseline_batch,
            trials_per_point=2,
            base_seed=5,
            defaults={"n": 150, "epsilon": 0.3},
        )
        in_process = run_sweep_batched(**kwargs)
        pooled = on_local_pool(run_sweep_batched, **kwargs)
        assert [r.to_dict() for r in pooled.results] == [
            r.to_dict() for r in in_process.results
        ]


class TestE7DriverBatchMode:
    def test_e7_batch_report_matches_serial_schedule(self):
        """E7 in batch mode reproduces the schedule-determined columns exactly
        and applies the same never-converged convention as the serial driver."""
        kwargs = dict(n=300, epsilons=(0.3,), trials=2, voter_rounds=48)
        serial = run_experiment("E7", **kwargs).report
        batched = run_experiment("E7", config=ExecutionConfig(batch=True), **kwargs).report
        serial_rows = {row["protocol"]: row for row in serial.rows}
        batched_rows = {row["protocol"]: row for row in batched.rows}
        assert list(serial_rows) == list(batched_rows)
        # Schedule-fixed round columns are exactly equal.
        for protocol in ("breathe-before-speaking", "immediate-forwarding"):
            assert batched_rows[protocol]["mean_rounds"] == serial_rows[protocol]["mean_rounds"]
        # The voter exhausts its budget on both paths: NaN rounds, rate 0.
        for rows in (serial_rows, batched_rows):
            assert np.isnan(rows["noisy-voter"]["mean_rounds"])
            assert rows["noisy-voter"]["all_correct_rate"] == 0.0
            assert rows["direct-source-reference"]["all_correct_rate"] == 1.0

    @pytest.mark.parametrize("batch", [True, False], ids=["batch", "serial"])
    def test_e7_cells_on_a_pool_identical(self, batch):
        kwargs = dict(n=250, epsilons=(0.3,), trials=2, voter_rounds=32)
        in_process = run_experiment("E7", config=ExecutionConfig(batch=batch), **kwargs)
        pooled = run_experiment("E7", config=ExecutionConfig(batch=batch, **POOL), **kwargs)
        assert pooled.execution["backend"]["tasks"] == 4  # one per protocol cell
        assert _rows_equal(in_process.report.rows, pooled.report.rows)


def _rows_equal(left_rows, right_rows):
    """Row-list equality that treats NaN cells as equal (NaN != NaN)."""
    if len(left_rows) != len(right_rows):
        return False
    for left, right in zip(left_rows, right_rows):
        if set(left) != set(right):
            return False
        for key in left:
            left_value, right_value = left[key], right[key]
            both_nan = (
                isinstance(left_value, float)
                and isinstance(right_value, float)
                and np.isnan(left_value)
                and np.isnan(right_value)
            )
            if not both_nan and left_value != right_value:
                return False
    return True
