"""Tests for the batched baseline dispatcher and the baseline rules (E7/E11 family).

:func:`repro.exec.batching.run_baseline_batch` looks a baseline up by name
and runs its one step rule; a serial trial is the same call at ``R = 1``
(:func:`repro.exec.batching.replicate_trial`).  These tests pin the
dispatch, the budgets and the exact behaviour of each rule where the model
is deterministic (round budgets, sampling schedules, noiseless dynamics);
the rules' distributions are recorded in ``test_comparator_distribution.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExecutionConfig, run_experiment
from repro.errors import ExperimentError, ParameterError
from repro.exec.batching import (
    batchable_baselines,
    replicate_trial,
    run_baseline_batch,
    run_sweep_batched,
)
from repro.protocols.direct_source import DirectSourceReference
from repro.protocols.naive_forward import ImmediateForwardingBroadcast
from repro.protocols.noisy_voter import NoisyVoterBroadcast
from repro.protocols.silent_wait import SilentWaitBroadcast
from repro.substrate.noise import PerfectChannel

#: ExecutionConfig fields of a two-worker local pool.
POOL = {"backend": "local", "backend_options": {"workers": 2}}


class TestDispatch:
    def test_batchable_baselines_lists_the_e7_and_e11_family(self):
        assert batchable_baselines() == [
            "direct-source-reference",
            "immediate-forwarding",
            "noisy-voter",
            "silent-wait",
        ]

    def test_unknown_protocol_rejected(self):
        """One error for any name without a batched rule, naming those that have one."""
        expected = "unknown baseline 'teleportation'; batchable baselines are " + ", ".join(
            batchable_baselines()
        )
        with pytest.raises(ExperimentError) as raised:
            run_baseline_batch("teleportation", n=100, epsilon=0.3, num_replicates=2)
        assert str(raised.value) == expected

    def test_unrecognised_option_rejected_per_protocol(self):
        """`rounds` belongs to the direct-source reference, not the voter."""
        with pytest.raises(ExperimentError, match="unrecognised option"):
            run_baseline_batch("noisy-voter", n=100, epsilon=0.3, num_replicates=2, rounds=5)

    def test_none_options_mean_protocol_default(self):
        batch = run_baseline_batch(
            "immediate-forwarding", n=100, epsilon=0.3, num_replicates=2, max_rounds=None
        )
        assert batch.rounds[0] == ImmediateForwardingBroadcast.default_budget(100)

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


#: Budgets a baseline rejects on both paths: (protocol name, class, options).
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
    """The protocol class holds the check; both paths build the class."""
    with pytest.raises(ParameterError, match="must be at least 1"):
        protocol_class(**options)
    with pytest.raises(ParameterError, match="must be at least 1"):
        if path == "serial":
            replicate_trial(
                0, 0, run_baseline_batch, protocol=protocol, n=60, epsilon=0.3, **options
            )
        else:
            run_baseline_batch(protocol, n=60, epsilon=0.3, num_replicates=2, **options)


class TestForwardingRule:
    def test_round_budget_is_the_default_budget(self):
        """The forwarding budget is fixed by n, for a serial trial and a batch alike."""
        serial = replicate_trial(0, 0, run_baseline_batch, protocol="immediate-forwarding",
                                 n=250, epsilon=0.3)
        batch = run_baseline_batch("immediate-forwarding", n=250, epsilon=0.3, num_replicates=3)
        assert serial["rounds"] == ImmediateForwardingBroadcast.default_budget(250)
        assert np.all(batch.rounds == serial["rounds"])

    def test_noiseless_forwarding_is_all_correct(self):
        """With a perfect channel only correct bits circulate — exact equality."""
        batch = run_baseline_batch(
            "immediate-forwarding", n=120, epsilon=0.5, num_replicates=4, channel=PerfectChannel()
        )
        assert batch.success.all()
        assert np.all(batch.final_correct_fraction == 1.0)


class TestVoterRule:
    def test_budget_exhaustion_under_noise(self):
        """Under noise the voter never converges: rounds == budget, and no
        convergence round is faked."""
        n, epsilon, R, budget = 300, 0.2, 5, 80
        batch = run_baseline_batch(
            "noisy-voter", n=n, epsilon=epsilon, num_replicates=R, max_rounds=budget
        )
        assert np.all(batch.rounds == budget)
        assert not batch.converged.any()
        assert batch.measurements(0)["rounds_converged"] is None
        # The population bias sits at the noise floor.
        assert abs(batch.final_correct_fraction.mean() - 0.5) < 0.15

    def test_noiseless_voter_converges_at_a_check(self):
        """Without noise only the zealot's bit circulates, so the dynamics
        lock onto it and stop at a consensus check, not the budget."""
        batch = run_baseline_batch(
            "noisy-voter", n=80, epsilon=0.5, num_replicates=4, channel=PerfectChannel()
        )
        assert batch.converged.all()
        assert batch.success.all()
        # Convergence is only detected on check_every boundaries.
        assert np.all(batch.rounds % 16 == 0)
        assert np.all(batch.rounds < NoisyVoterBroadcast.max_rounds)


class TestDirectSourceRule:
    def test_sampling_schedule_is_the_default(self):
        """The sampling budget is fixed by (n, epsilon)."""
        batch = run_baseline_batch("direct-source-reference", n=250, epsilon=0.3, num_replicates=3)
        rounds = DirectSourceReference.default_rounds(250, 0.3)
        assert np.all(batch.rounds == rounds)
        assert np.all(batch.messages_sent == 250 * rounds)

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
