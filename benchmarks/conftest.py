"""Shared configuration for the benchmark harness.

Each ``bench_e*.py`` file regenerates one experiment of the E1–E11 table in
``README.md`` by running its driver through the unified experiment API
(:func:`repro.api.run_experiment`) under ``pytest-benchmark`` (so wall-clock
cost is recorded) and printing the driver's report table.  Run with::

    pytest benchmarks/ --benchmark-only -s

(``-s`` shows the report tables; omit it if you only want the benchmark
timings and the pass/fail assertions.)

Execution strategy comes from one place: the ``exec_config`` fixture builds
an :class:`repro.api.ExecutionConfig` from the ``REPRO_BENCH_JOBS``
environment variable with the CLI's ``--jobs`` convention (``0`` = a local
process pool with one worker per CPU, ``k >= 2`` = ``k`` workers, unset or
``1`` = in-process) — e.g. ``REPRO_BENCH_JOBS=4 pytest benchmarks/`` runs
every benchmark on one persistent four-worker pool per run.  Results are
bit-identical either way, only the wall-clock changes.
``benchmarks/bench_backend_dispatch.py`` measures the dispatch overhead of
the in-process and pool backends and the persistent pool's reuse win over
per-call spawn-up.  ``benchmarks/bench_exec_speedup.py``,
``benchmarks/bench_e7_batch_speedup.py``,
``benchmarks/bench_e8_batch_speedup.py`` and
``benchmarks/bench_stage_batch_speedup.py`` measure the speedups of the
pooled, batched and batched-on-a-pool paths explicitly and record them as
JSON under ``benchmarks/results/``; at the end of every benchmark session
``benchmarks/collect_results.py`` merges those files into the top-level
``BENCH_SUMMARY.json`` so the perf trajectory stays machine-readable across
PRs.

Every result file records the commit, CPU count and versions it was
measured on, from the ``machine_stamp`` fixture
(``bench_deliver_serial.py`` takes the same stamp directly, so its smoke
gate checks it too).
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionConfig


def pytest_sessionfinish(session, exitstatus):
    """Regenerate the top-level BENCH_SUMMARY.json after a benchmark run."""
    module = _collect_results()
    if module.RESULTS_DIR.is_dir() and any(module.RESULTS_DIR.glob("*.json")):
        module.collect()


def _collect_results():
    """``benchmarks/collect_results.py``, imported by path (benchmarks/ is not a package)."""
    import importlib.util
    from pathlib import Path

    script = Path(__file__).parent / "collect_results.py"
    spec = importlib.util.spec_from_file_location("_bench_collect_results", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def machine_stamp():
    """Commit, CPU count, python and numpy of this benchmark run.

    Taken once, before any result file of the run is written, so the commit
    carries no ``-dirty`` suffix from the run's own output.
    """
    return _collect_results().machine_stamp()


@pytest.fixture
def print_report():
    """Return a helper that prints an ExperimentReport on its own lines."""

    def _print(report) -> None:
        print()
        print(report.render())
        print()

    return _print


@pytest.fixture
def exec_config() -> ExecutionConfig:
    """Execution settings shared by every benchmark, from ``REPRO_BENCH_JOBS``."""
    return ExecutionConfig.from_env("REPRO_BENCH_JOBS")
