"""Unit tests for the execution-backend layer and its pool routing.

Covers the :class:`~repro.exec.backends.base.ExecutionBackend` contract
(ordered results, lifecycle, task counts, per-thread installation), the
chunking pin, the labelled worker-failure errors, the adversarial ordering
differential (a mock backend that completes tasks in shuffled order must
still produce a bit-identical E8 sweep), and the cross-backend golden
digests of every dispatch site.
"""

from __future__ import annotations

import pathlib
import random
import sys
import threading

import pytest

# The golden-grid helpers live one directory up (tests/unit is not a package).
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from _golden_grid import GRID, grid_digest

from repro.api import ExecutionConfig
from repro.errors import ExperimentError
from repro.exec import pool
from repro.exec.backends import (
    InProcessBackend,
    LocalPoolBackend,
    Task,
    active_backend,
    backend_names,
    chunksize_for,
    create_backend,
    default_jobs,
    run_task,
    task_failure_error,
    task_label,
    use_backend,
    validate_backend_spec,
)


def _add(a, b):
    return a + b


def _boom(_seed, _index):
    raise ValueError("exploding trial")


def _trial(seed, index):
    return {"value": seed + index}


def _active_backend_name():
    return active_backend().name


class TestTask:
    def test_run_task_applies_args_and_kwargs(self):
        task = Task(fn=_add, args=(2,), kwargs={"b": 3})
        assert run_task(task) == 5

    def test_task_label_includes_the_context(self):
        task = Task(fn=_add, context=(("point", "E8[n=10]"), ("seed", 42)))
        assert task_label(task, 7) == "task 7 (point='E8[n=10]', seed=42)"
        assert task_label(Task(fn=_add), 0) == "task 0"

    def test_failure_error_names_task_index_point_and_seed(self):
        tasks = [Task(fn=_add, context=(("point", "p"), ("seed", 5)))]
        error = task_failure_error(tasks, 0, ValueError("dead"), where="local")
        assert "local execution failed" in str(error)
        assert "task 0 (point='p', seed=5)" in str(error)
        assert "ValueError: dead" in str(error)

    def test_failure_error_survives_an_out_of_range_index(self):
        error = task_failure_error([], 3, RuntimeError("x"), where="local")
        assert "task 3" in str(error)


class TestInProcessBackend:
    def test_results_come_back_in_task_order(self):
        tasks = [Task(fn=_add, args=(i, 1)) for i in range(5)]
        backend = InProcessBackend()
        assert backend.submit(tasks) == [1, 2, 3, 4, 5]
        assert backend.describe() == {"name": "in-process", "tasks": 5}

    def test_exceptions_propagate_raw(self):
        """Exactly the historical serial semantics: no wrapping."""
        with pytest.raises(ValueError, match="exploding"):
            InProcessBackend().submit([Task(fn=_boom, args=(1, 2))])

    def test_nested_submissions_are_not_counted(self):
        """A cell task's own trials count on no backend, so manifests agree."""
        backend = InProcessBackend()

        def cell(size):
            return sum(backend.submit([Task(fn=_add, args=(i, 1)) for i in range(size)]))

        assert backend.submit([Task(fn=cell, args=(2,)), Task(fn=cell, args=(3,))]) == [3, 6]
        assert backend.tasks == 2
        assert backend.submit([Task(fn=_add, args=(1, 1))]) == [2]
        assert backend.tasks == 3


class TestLocalPoolBackend:
    def test_pool_is_created_once_and_reused_across_submits(self):
        tasks = [Task(fn=_add, args=(i, 0)) for i in range(4)]
        with LocalPoolBackend(workers=2) as backend:
            first = backend.submit(tasks)
            pool_object = backend._pool
            second = backend.submit(tasks)
            assert backend._pool is pool_object  # no respawn between submits
        assert first == second == [0, 1, 2, 3]
        assert backend._pool is None  # close() tore it down
        assert backend.describe() == {"name": "local", "workers": 2, "tasks": 8}

    def test_invalid_workers_rejected(self):
        with pytest.raises(ExperimentError, match="non-negative"):
            LocalPoolBackend(workers=-1)

    def test_zero_workers_means_one_per_cpu(self):
        assert LocalPoolBackend(workers=0).workers == default_jobs()

    def test_workers_run_their_tasks_in_process(self):
        """A forked worker must not dispatch back into the parent's pool."""
        with LocalPoolBackend(workers=2) as backend, use_backend(backend):
            names = backend.submit([Task(fn=_active_backend_name) for _ in range(2)])
        assert names == ["in-process", "in-process"]

    def test_worker_failure_is_labelled_with_task_context(self):
        tasks = [
            Task(fn=_add, args=(0, 0), context=(("point", "ok"),)),
            Task(fn=_boom, args=(1, 2), context=(("point", "E8[x]"), ("seed", 99))),
        ]
        with LocalPoolBackend(workers=2) as backend:
            with pytest.raises(ExperimentError) as excinfo:
                backend.submit(tasks)
        message = str(excinfo.value)
        assert "local execution failed" in message
        assert "task 1 (point='E8[x]', seed=99)" in message
        assert "exploding trial" in message

    def test_every_submission_is_chunked(self):
        """The chunking pin: submissions route through chunksize_for."""
        tasks = [Task(fn=_add, args=(i, 0)) for i in range(40)]
        with LocalPoolBackend(workers=2) as backend:
            backend.submit(tasks)
            assert backend.last_chunksize == chunksize_for(40, 2) == 5
            backend.submit(tasks[:3])
            assert backend.last_chunksize == chunksize_for(3, 2) == 1


class TestChunksizeFor:
    def test_targets_four_chunks_per_worker(self):
        assert chunksize_for(80, 4) == 5
        assert chunksize_for(16, 2) == 2

    def test_never_below_one(self):
        assert chunksize_for(3, 8) == 1
        assert chunksize_for(0, 1) == 1


class TestActiveBackend:
    def test_shared_in_process_backend_by_default(self):
        assert isinstance(active_backend(), InProcessBackend)
        assert active_backend() is active_backend()

    def test_use_backend_installs_and_uninstalls(self):
        default = active_backend()
        backend = InProcessBackend()
        with use_backend(backend) as installed:
            assert installed is backend
            assert active_backend() is backend
        assert active_backend() is default

    def test_nesting_is_rejected(self):
        default = active_backend()
        with use_backend(InProcessBackend()):
            with pytest.raises(ExperimentError, match="cannot be nested"):
                with use_backend(InProcessBackend()):
                    pass  # pragma: no cover
        assert active_backend() is default

    def test_uninstalled_even_when_the_run_raises(self):
        default = active_backend()
        with pytest.raises(RuntimeError):
            with use_backend(InProcessBackend()):
                raise RuntimeError("driver failed")
        assert active_backend() is default

    def test_installation_is_per_thread(self):
        """Two threads may each hold a backend at once; neither sees the other's."""
        both_installed = threading.Barrier(2, timeout=30)
        seen, errors = {}, []

        def run(slot):
            try:
                backend = InProcessBackend()
                with use_backend(backend):
                    both_installed.wait()
                    seen[slot] = active_backend() is backend
            except BaseException as error:  # surfaced by the assertion below
                errors.append(error)
                both_installed.abort()

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert seen == {0: True, 1: True}


class _RecordingBackend(InProcessBackend):
    """In-process execution that records every submitted task list."""

    def __init__(self):
        super().__init__()
        self.submissions = []

    def submit(self, tasks):
        self.submissions.append(list(tasks))
        return super().submit(tasks)


class TestPoolRouting:
    """Every pool helper funnels through the installed backend."""

    def test_run_trial_groups_is_one_submission_of_labelled_trials(self):
        backend = _RecordingBackend()
        with use_backend(backend):
            results = pool.run_trial_groups([("a", _trial, [10, 20]), ("b", _trial, [7])])
        assert results == [[{"value": 10}, {"value": 21}], [{"value": 7}]]
        (tasks,) = backend.submissions
        assert tasks[1].context == (("experiment", "a"), ("trial", 1), ("seed", 20))
        assert tasks[2].context == (("experiment", "b"), ("trial", 0), ("seed", 7))

    def test_run_point_tasks_scrapes_context_from_kwargs(self):
        backend = _RecordingBackend()
        with use_backend(backend):
            results = pool.run_point_tasks([(_add, {"a": 1, "b": 2}), (_add, {"a": 3, "b": 4})])
        assert results == [3, 7]
        (tasks,) = backend.submissions
        assert tasks[0].context == (("position", 0),)

    def test_no_installed_backend_runs_in_process(self):
        assert pool.run_point_tasks([(_add, {"a": 1, "b": 1})]) == [2]

    def test_unpicklable_callables_are_probed_once_each(self):
        captured = 3

        def closure(a, b):
            return a + b + captured

        tasks = [Task(fn=_add, args=(i, i)) for i in range(3)]
        assert pool.picklability_error(tasks) is None
        nested = [Task(fn=_add, kwargs={"a": 1, "b": closure})]
        assert "closure" in pool.picklability_error(nested)
        with LocalPoolBackend(workers=2) as backend, use_backend(backend):
            assert pool.submit_tasks([Task(fn=closure, args=(1, 2))]) == [6]
        assert backend.tasks == 0, "an unpicklable task list must run in-process"


class _ShuffledBackend(InProcessBackend):
    """Adversarial completion order: executes tasks shuffled, returns ordered.

    Models what a remote fleet does — tasks finish in arbitrary order — while
    honouring the contract that ``submit`` returns results by task position.
    """

    name = "shuffled"

    def submit(self, tasks):
        self.tasks += len(tasks)
        order = list(range(len(tasks)))
        random.Random(1234).shuffle(order)
        results = [None] * len(tasks)
        for index in order:
            results[index] = run_task(tasks[index])
        return results


class TestOrderedAssemblyDifferential:
    def test_shuffled_completion_is_bit_identical_on_a_small_e8_grid(self):
        """Seeds derived in the parent + ordered assembly ⇒ backend-invariant."""
        from repro.api import run_experiment
        from repro.experiments import e8_majority

        kwargs = dict(
            n=60, epsilon=0.3, set_sizes=(10, 16), biases=(0.2,), trials=3, base_seed=11
        )
        serial = run_experiment("E8", **kwargs).report
        backend = _ShuffledBackend()
        with use_backend(backend):
            shuffled = e8_majority.run(**kwargs)
        assert backend.tasks == 6  # one per (point, trial)
        assert shuffled.rows == serial.rows
        assert shuffled.render() == serial.render()


#: The dispatch sites the backends route, each as its golden-grid configuration.
DISPATCH_SITES = {
    "E1-serial-run_sweep": ("E1", False),
    "E1-batch-run_broadcast_sweep_batched": ("E1", True),
    "E8-batch-run_sweep_batched": ("E8", True),
    "E7-serial-run_point_tasks": ("E7", False),
}

BACKENDS = {
    "in-process": ExecutionConfig(backend="in-process"),
    "local": ExecutionConfig(backend="local", backend_options={"workers": 2}),
}


class TestCrossBackendGoldenDigest:
    """The acceptance pin: bit-identical artifacts on every backend and dispatch site."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("site", sorted(DISPATCH_SITES))
    def test_backend_matches_the_default_digest(self, site, backend):
        experiment_id, batch = DISPATCH_SITES[site]
        (overrides,) = [o for e, b, o in GRID if (e, b) == (experiment_id, batch)]
        config = BACKENDS[backend]
        configured = ExecutionConfig(
            batch=batch, backend=config.backend, backend_options=config.backend_options
        )
        reference = grid_digest(experiment_id, batch, overrides)
        assert grid_digest(experiment_id, batch, overrides, config=configured) == reference


class TestFactory:
    def test_two_backends_with_one_option(self):
        assert backend_names() == "in-process, local"

    def test_validate_rejects_unknown_backend_and_options(self):
        with pytest.raises(ExperimentError, match="registered backends"):
            validate_backend_spec("threads")
        with pytest.raises(ExperimentError, match="no option"):
            validate_backend_spec("in-process", {"workers": 2})
        with pytest.raises(ExperimentError, match="no option"):
            validate_backend_spec("local", {"endpoint": "127.0.0.1:0"})

    def test_workers_option_sizes_the_pool(self):
        backend = create_backend("local", {"workers": 3})
        assert isinstance(backend, LocalPoolBackend) and backend.workers == 3
        assert create_backend("local").workers == default_jobs()
        assert isinstance(create_backend("in-process"), InProcessBackend)
