"""The persistent local process pool backend.

:class:`LocalPoolBackend` is a :class:`concurrent.futures.ProcessPoolExecutor`
fan-out whose pool is created once in :meth:`~LocalPoolBackend.start` and
reused across every :meth:`~LocalPoolBackend.submit` call of the run,
instead of being re-spawned per dispatch.  Multi-family drivers (a sweep
family per epsilon, per protocol, per fault model ...) would otherwise pay a
full interpreter spawn-up per family; ``benchmarks/bench_backend_dispatch.py``
records the reuse win.  Every submission is chunked with
:func:`chunksize_for` so large task lists amortise per-task IPC.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from ...errors import ExperimentError
from .base import ExecutionBackend, Task, clear_active_backend, run_task, task_failure_error

__all__ = ["default_jobs", "chunksize_for", "LocalPoolBackend"]

#: Target number of chunks handed to each worker, to amortise IPC overhead
#: while keeping the pool load-balanced.
CHUNKS_PER_WORKER = 4


def default_jobs() -> int:
    """Number of worker processes to use when the caller does not specify one."""
    return max(1, os.cpu_count() or 1)


def chunksize_for(num_tasks: int, jobs: int) -> int:
    """Chunk size yielding roughly :data:`CHUNKS_PER_WORKER` chunks per worker."""
    return max(1, num_tasks // max(1, jobs * CHUNKS_PER_WORKER))


class LocalPoolBackend(ExecutionBackend):
    """Fan tasks out over one persistent local process pool.

    Parameters
    ----------
    workers:
        Worker-process count; ``0`` (default) means one per CPU.

    Attributes
    ----------
    last_chunksize:
        The ``chunksize`` handed to the most recent ``pool.map`` — every
        submission is chunked (``tests/unit/exec/test_backends.py`` pins
        this).
    """

    name = "local"

    def __init__(self, workers: int = 0) -> None:
        super().__init__()
        if workers < 0:
            raise ExperimentError(
                f"local backend workers must be non-negative (0 = one per CPU), got {workers}"
            )
        self.workers = workers or default_jobs()
        self.last_chunksize: Optional[int] = None
        self._pool: Optional[ProcessPoolExecutor] = None

    def start(self) -> "LocalPoolBackend":
        """Spawn the worker pool (idempotent); reused by every ``submit``."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=clear_active_backend
            )
        return self

    def close(self) -> None:
        """Shut the pool down cleanly (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def submit(self, tasks: Sequence[Task]) -> List[Any]:
        """Execute the tasks on the shared pool, collecting in task order.

        The pool preserves submission order in ``map`` regardless of which
        worker finishes first, so ordered assembly is structural.  A failure
        — an exception inside a worker, or the pool dying underneath us —
        is re-raised as a labelled :class:`~repro.errors.ExperimentError`
        naming the first uncollected task (its index, point and seed).
        """
        self.start()
        assert self._pool is not None  # for the type checker; start() just ran
        self.tasks += len(tasks)
        self.last_chunksize = chunksize_for(len(tasks), self.workers)
        results: List[Any] = []
        iterator = self._pool.map(run_task, tasks, chunksize=self.last_chunksize)
        while True:
            try:
                value = next(iterator)
            except StopIteration:
                break
            except Exception as error:
                raise task_failure_error(tasks, len(results), error, where=self.name) from error
            results.append(value)
        return results

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary of the backend (recorded in run manifests)."""
        return {"name": self.name, "workers": self.workers, "tasks": self.tasks}
