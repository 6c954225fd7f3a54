"""Every experiment reports the same on a local pool as in-process.

Trial seeds are derived in the parent before any task is dispatched, so
where a task runs can never change its result.  The golden digests in
``tests/unit/test_fault_none_regression.py`` and the cross-backend pin in
``tests/unit/exec/test_backends.py`` check that for a few dispatch sites;
this module checks it for every registered experiment in both modes, and
that the manifest's task count depends on the experiment, not the backend.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionConfig, experiment_ids, run_experiment

#: One tiny configuration per experiment (mirroring the driver smoke tests).
TINY = {
    "E1": dict(sizes=(200, 400), epsilon=0.3, trials=2),
    "E2": dict(epsilons=(0.25, 0.45), n=300, trials=2),
    "E3": dict(sizes=(300,), epsilons=(0.3,), trials=2),
    "E4": dict(n=600, epsilons=(0.3,), trials=3),
    "E5": dict(n=1500, epsilon=0.4, beta_override=6, trials=2),
    "E6": dict(n=800, epsilon=0.3, trials=2),
    "E7": dict(n=250, epsilons=(0.3,), trials=2, voter_rounds=32),
    "E8": dict(n=400, epsilon=0.3, set_sizes=(120,), biases=(0.05, 0.3), trials=2),
    "E9": dict(n=250, epsilon=0.3, skews=(4,), trials=2),
    "E10": dict(epsilon=0.25, deltas=(0.01, 0.1), monte_carlo_reps=2000),
    "E11": dict(n=120, epsilon=0.35, trials=2),
    "E12": dict(n=150, epsilon=0.3, fault_fractions=(0.0, 0.2), trials=2),
}

POOL = {"backend": "local", "backend_options": {"workers": 2}}


def test_every_experiment_has_a_tiny_configuration():
    assert sorted(TINY) == sorted(experiment_ids())


@pytest.mark.parametrize("batch", [False, True], ids=["serial", "batch"])
@pytest.mark.parametrize("experiment_id", sorted(TINY, key=lambda key: int(key[1:])))
def test_local_pool_report_matches_in_process(experiment_id, batch):
    reference = run_experiment(experiment_id, config=ExecutionConfig(batch=batch), **TINY[experiment_id])
    pooled = run_experiment(
        experiment_id, config=ExecutionConfig(batch=batch, **POOL), **TINY[experiment_id]
    )
    assert pooled.report.render() == reference.report.render()
    assert pooled.fingerprint == reference.fingerprint
    tasks = reference.execution["backend"]["tasks"]
    assert reference.execution["backend"] == {"name": "in-process", "tasks": tasks}
    assert pooled.execution["backend"] == {"name": "local", "workers": 2, "tasks": tasks}
