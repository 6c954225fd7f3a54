"""Integration tests for the newly batched stage-level drivers (E4–E6, E9, E11).

Each driver must produce, under ``batch=True``, a report with exactly the
serial row/column structure (the row builders are shared between the two
paths), and — where the driver sweeps independent cells — return
bit-identical reports when the cells run on a local process pool.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionConfig, run_experiment
from repro.experiments import e4_phase0, e5_stage1_growth, e6_stage2_boost, e9_async, e11_lower_bounds

#: Tiny-but-meaningful workloads per driver (parameter overrides).
WORKLOADS = {
    "E4": dict(n=300, epsilons=(0.2, 0.3), trials=5),
    "E5": dict(n=400, epsilon=0.35, beta_override=4, trials=3),
    "E6": dict(n=300, epsilon=0.25, trials=4),
    "E9": dict(n=200, epsilon=0.3, skews=(4, 8), trials=2),
    "E11": dict(n=80, epsilon=0.3, trials=2),
}

CELL_IDS = ("E4", "E9", "E11")


@pytest.mark.parametrize("experiment_id", sorted(WORKLOADS, key=lambda eid: int(eid[1:])))
def test_batch_report_has_the_serial_structure(experiment_id):
    overrides = WORKLOADS[experiment_id]
    serial = run_experiment(experiment_id, **overrides).report
    batched = run_experiment(
        experiment_id, config=ExecutionConfig(batch=True), **overrides
    ).report
    assert batched.experiment_id == experiment_id
    assert [list(row.keys()) for row in batched.rows] == [
        list(row.keys()) for row in serial.rows
    ]
    assert len(batched.notes) == len(serial.notes)
    assert batched.render()


@pytest.mark.parametrize("experiment_id", CELL_IDS)
def test_batch_cells_on_a_pool_are_bit_identical_to_in_process(experiment_id):
    overrides = WORKLOADS[experiment_id]
    in_process = run_experiment(
        experiment_id, config=ExecutionConfig(batch=True), **overrides
    ).report
    pooled = run_experiment(
        experiment_id,
        config=ExecutionConfig(batch=True, backend="local", backend_options={"workers": 2}),
        **overrides,
    ).report
    assert pooled.rows == in_process.rows


def test_e4_batch_reproduces_claim_2_2_statistics():
    serial = e4_phase0.run(n=600, epsilons=(0.3,), trials=8)
    batched = run_experiment(
        "E4", config=ExecutionConfig(batch=True), n=600, epsilons=(0.3,), trials=8
    ).report
    serial_row, batch_row = serial.rows[0], batched.rows[0]
    assert batch_row["beta_s"] == serial_row["beta_s"]
    assert batch_row["mean_x0"] == pytest.approx(serial_row["mean_x0"], rel=0.3)
    assert batch_row["bias_bound_rate"] >= 0.5


def test_e5_batch_keeps_the_per_phase_claim_columns():
    report = e5_stage1_growth.run(
        n=400, epsilon=0.35, beta_override=4, trials=3,
        config=ExecutionConfig(batch=True),
    )
    assert [row["phase"] for row in report.rows] == list(range(len(report.rows)))
    assert all("mean_X_i" in row and "mean_bias_eps_i" in row for row in report.rows)
    # Conservation: the X_i trajectory is non-decreasing on the batch path too.
    means = [row["mean_X_i"] for row in report.rows]
    assert all(later >= earlier for earlier, later in zip(means, means[1:]))


def test_e6_batch_boosts_the_bias():
    report = e6_stage2_boost.run(
        n=300, epsilon=0.25, trials=4, config=ExecutionConfig(batch=True)
    )
    first, last = report.rows[0], report.rows[-1]
    assert last["mean_bias_after"] > first["mean_bias_after"] * 0.9
    assert last["mean_bias_after"] > 0.3


def test_e9_batch_shows_the_guard_overhead():
    report = e9_async.run(
        n=200, epsilon=0.3, skews=(4, 16), trials=2, config=ExecutionConfig(batch=True)
    )
    rows = {(row["variant"], row["skew_D"]): row for row in report.rows}
    sync = rows[("fully-synchronous", 0)]
    assert sync["overhead_rounds"] == 0.0
    small = rows[("bounded-skew", 4)]
    large = rows[("bounded-skew", 16)]
    assert large["overhead_rounds"] > small["overhead_rounds"] > 0
    clock_free = rows[("clock-free (activation + guards)", report.rows[-1]["skew_D"])]
    assert clock_free["overhead_rounds"] > 0


def test_e11_batch_keeps_the_never_converged_convention():
    report = e11_lower_bounds.run(
        n=80, epsilon=0.3, trials=2, config=ExecutionConfig(batch=True)
    )
    direct_row, silent_row = report.rows
    assert direct_row["all_correct_rate"] >= 0.0
    # Listen-only is far slower than the direct reference, on the batch path too.
    assert silent_row["mean_rounds"] > direct_row["mean_rounds"]

