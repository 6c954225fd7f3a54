"""The benchmark's own tests: the full pipeline at toy size, and the span arithmetic.

Run with ``python -m pytest perfbench -q``; each toy run takes a few seconds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0.5", "--trace", str(trace), "--toy"]
    return subprocess.run(argv, cwd=str(cwd), capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_toy_run_reports_every_layer_and_adds_up(workload):
    result = result_of(run_benchmark(ROOT, workload, 1))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, m["unit"]) for name, m in result["metrics"].items()
    ]
    assert all(math.isfinite(value) for value in metrics.values())
    self_total = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert self_total + metrics["unattributed_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    if workload != "service_mixed":  # the service client idles between polls
        assert metrics["unattributed_s"] < 0.05 * metrics["trace.wall_s"]
    exercised = {
        "broadcast_serial": "substrate.deliver.calls",
        "broadcast_batch": "substrate.deliver_batch.calls",
        "majority_pool": "exec.backend.tasks",
        "service_mixed": "store.get.hit_ratio",
    }[workload]
    assert metrics[exercised] > 0


@pytest.mark.parametrize("workload", ["broadcast_serial", "service_mixed"])
def test_untraced_toy_run_reports_every_end_to_end_metric(workload):
    result = result_of(run_benchmark(ROOT, workload, 0))
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (name, m["unit"]) for name, m in result["metrics"].items()
    ]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_times_are_scaled_to_nominal_speed_by_the_reference():
    import run
    import workloads

    tally = workloads.Tally(unit_s=[2.0, 4.0, 6.0])
    scaled, raw = run.timings([1.0, 3.0], tally, [0.1, 0.2, 0.3], requests_per_s=5.0, agent_rounds_per_s=7.0)
    slowdown = 0.2 / run.reference.NOMINAL_S
    assert raw["slowdown"] == pytest.approx(slowdown)
    assert scaled == pytest.approx({"setup_s": 2.0 / slowdown, "run_s.p50": 4.0 / slowdown,
                                    "requests_per_s": 5.0 * slowdown, "agent_rounds_per_s": 7.0 * slowdown})


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "broadcast_serial", 0)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_decompose_splits_concurrent_leaves_and_sums_to_the_window():
    recorded = [
        (1, None, "outer", 0.0, 10.0, None),
        (2, 1, "child", 2.0, 4.0, None),
        (3, 1, "worker", 5.0, 9.0, None),  # two concurrent children, 5..7
        (4, 1, "worker", 5.0, 7.0, None),
        (5, None, "other", 11.0, 12.0, None),
    ]
    self_s, unattributed = spans.decompose(recorded, 0.0, 13.0)
    assert self_s == pytest.approx({"outer": 4.0, "child": 2.0, "worker": 4.0, "other": 1.0})
    assert unattributed == pytest.approx(2.0)
    clipped, rest = spans.decompose(recorded, 3.0, 6.0)
    assert clipped == pytest.approx({"outer": 1.0, "child": 1.0, "worker": 1.0})
    assert rest == 0.0


def test_link_by_containment_parents_server_spans_to_the_client_request():
    client = [(10, None, "client.request", 0.0, 1.0, None), (11, None, "client.request", 2.0, 3.0, None)]
    server = [(20, None, "service.http", 2.1, 2.9, None), (21, None, "job", 0.5, 2.5, None),
              (22, 20, "service.submit_run", 2.2, 2.8, None)]
    linked = spans.link_by_containment(server, client)
    assert [span[1] for span in linked] == [11, None, 20]


def test_a_run_tolerates_one_missed_trial_and_fails_the_second():
    import workloads

    sys.path.insert(0, str(workloads.SRC))
    from repro.core.parameters import ProtocolParameters

    length = ProtocolParameters.calibrated(64, 0.2).total_rounds
    report = {"config": {"trials": 2},
              "rows": [{"n": 64, "epsilon": 0.2, "mean_rounds": length, "success_rate": 0.5}]}
    tally = workloads.Tally()
    assert tally.count("E1", report, 1.0) == []
    assert tally.count("E1", report, 1.0) != []
    assert (tally.trials, tally.trials_correct, tally.misses) == (4, 2, 2)
    wrong_length = {"config": {"trials": 1}, "rows": [dict(report["rows"][0], mean_rounds=length + 1, success_rate=1.0)]}
    assert workloads.Tally().count("E1", wrong_length, 1.0) != []
