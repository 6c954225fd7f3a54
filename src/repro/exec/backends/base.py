"""The :class:`ExecutionBackend` contract, the task unit it executes, and the
in-process reference backend.

Every dispatch site of the execution layer (:mod:`repro.exec.pool`) builds
:class:`Task` lists and hands them to the *active* backend:

* a :class:`Task` is one self-contained unit of work — a picklable callable
  with its arguments pre-resolved in the parent (including every seed), plus
  a ``context`` tuple naming what the task *is* (task index, sweep-point
  name, seed) so failures can be attributed;
* an :class:`ExecutionBackend` takes an ordered task list and returns the
  results **in task order**, whatever execution strategy it uses underneath
  (an in-process loop or a persistent local pool).

The ordering half of the contract is what keeps the repository's bit-identity
pins alive: seeds are derived in the parent *before* ``submit`` and results
are assembled by task position, never by completion time, so a backend may
complete tasks in any order without changing a single byte of the assembled
:class:`~repro.analysis.experiments.ExperimentResult`.

A backend is *installed* for the duration of one run with
:func:`use_backend`; :func:`active_backend` returns it, or a shared
:class:`InProcessBackend` when none is installed on the calling thread.
"""

from __future__ import annotations

import abc
import contextlib
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

from ...errors import ExperimentError

__all__ = [
    "Task",
    "run_task",
    "task_label",
    "task_failure_error",
    "ExecutionBackend",
    "InProcessBackend",
    "active_backend",
    "use_backend",
]


@dataclass(frozen=True)
class Task:
    """One unit of work: ``fn(*args, **kwargs)`` with attribution context.

    Everything a task needs — the callable, its arguments, the seed buried in
    them — is resolved in the parent before the task is built, so executing a
    task is pure function application and its result is independent of
    *where* (or how many times) it runs.

    ``context`` is a tuple of ``(key, value)`` pairs used only for error
    attribution (e.g. ``(("point", "E8[...]"), ("seed", 12345))``); it never
    influences execution.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    context: Tuple[Tuple[str, Any], ...] = ()


def run_task(task: Task) -> Any:
    """Execute one task (shared by every backend)."""
    return task.fn(*task.args, **dict(task.kwargs))


def task_label(task: Task, index: int) -> str:
    """Human-readable attribution of one task, e.g. ``task 3 (point=..., seed=...)``."""
    details = ", ".join(f"{key}={value!r}" for key, value in task.context)
    return f"task {index}" + (f" ({details})" if details else "")


def task_failure_error(
    tasks: Sequence[Task], index: int, error: BaseException, *, where: str
) -> ExperimentError:
    """Build the labelled :class:`~repro.errors.ExperimentError` for a worker failure.

    A ``BrokenProcessPool`` or an exception raised inside a worker would
    otherwise propagate with no indication of which point or seed failed;
    pooled backends route their failures through here so the raised error
    names the task (index, sweep-point name, seed) and the execution
    strategy that ran it.  ``index`` is the position of the first task whose
    result had not been collected when the failure surfaced — exact for
    in-task exceptions (results come back in order), a lower bound for a
    pool that died.
    """
    label = task_label(tasks[index], index) if 0 <= index < len(tasks) else f"task {index}"
    return ExperimentError(
        f"{where} execution failed at {label}: {type(error).__name__}: {error}"
    )


class ExecutionBackend(abc.ABC):
    """Strategy interface for executing an ordered list of :class:`Task`s.

    Lifecycle: :meth:`start` acquires resources (spawns the pool),
    :meth:`submit` may then be called any number of times — one pool
    outlives many sweep-point families — and :meth:`close` releases
    everything.  Backends are context managers (``with backend:`` is
    start/close).

    Attributes
    ----------
    tasks:
        How many tasks the run dispatched to this backend; recorded in the
        run manifest, so a run whose driver dispatched nothing (E10
        vectorises its whole Monte-Carlo in-process) shows ``0``.  Only
        top-level tasks count: the trials a cell task dispatches run inside
        that task, so the count is the same on every backend.
    """

    #: Short machine-readable strategy name (the ``backend`` config value).
    name: str = "?"

    def __init__(self) -> None:
        self.tasks = 0

    def start(self) -> "ExecutionBackend":
        """Acquire execution resources; idempotent.  Returns ``self``."""
        return self

    def close(self) -> None:
        """Release execution resources; idempotent."""

    @abc.abstractmethod
    def submit(self, tasks: Sequence[Task]) -> List[Any]:
        """Execute ``tasks`` and return their results **in task order**.

        Implementations may run tasks anywhere and complete them in any
        order, but the returned list must satisfy ``result[i] ==
        run_task(tasks[i])`` — the ordered-assembly half of the determinism
        contract — and must add ``len(tasks)`` to :attr:`tasks`.  Failures
        raise :class:`~repro.errors.ExperimentError` built by
        :func:`task_failure_error` (in-process execution keeps the raw
        exception).
        """

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary of the backend (recorded in run manifests)."""
        return {"name": self.name, "tasks": self.tasks}

    def __enter__(self) -> "ExecutionBackend":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.close()


class InProcessBackend(ExecutionBackend):
    """Execute every task in the calling process, in order.

    The deterministic reference: a plain loop, so exceptions propagate raw
    (no wrapping) and no pickling constraint applies to the task callables.
    Re-entrant: a task may itself dispatch tasks to the same backend; those
    nested tasks are not counted in :attr:`tasks`, as a pool worker would
    not report them either.
    """

    name = "in-process"

    def __init__(self) -> None:
        super().__init__()
        self._depth = 0

    def submit(self, tasks: Sequence[Task]) -> List[Any]:
        """Run the tasks sequentially in the current process."""
        if self._depth == 0:
            self.tasks += len(tasks)
        self._depth += 1
        try:
            return [run_task(task) for task in tasks]
        finally:
            self._depth -= 1


#: Per-thread installation state: concurrent runs (two service workers,
#: two library threads) each install their own backend.
_LOCAL = threading.local()

#: What :func:`active_backend` returns on a thread with nothing installed.
_SHARED_IN_PROCESS = InProcessBackend()


def active_backend() -> ExecutionBackend:
    """The backend installed on this thread by :func:`use_backend`.

    Falls back to a shared :class:`InProcessBackend`, so every dispatch
    site has exactly one place to send its tasks.
    """
    backend = getattr(_LOCAL, "backend", None)
    return _SHARED_IN_PROCESS if backend is None else backend


def clear_active_backend() -> None:
    """Forget this thread's installed backend.

    Runs as the pool-worker initializer: a forked worker inherits the
    parent thread's state, and its tasks must run in-process rather than
    dispatch back into a copy of the parent's pool.
    """
    _LOCAL.backend = None


@contextlib.contextmanager
def use_backend(backend: ExecutionBackend) -> Iterator[ExecutionBackend]:
    """Install ``backend`` as this thread's active backend for the enclosed run.

    :func:`repro.api.run_experiment` wraps the driver invocation in this, so
    every dispatch site inside the driver — trial fan-out, sweep points,
    batched task lists — routes through the one backend the user
    configured.  Nesting on one thread is rejected: one run, one backend.
    Other threads are unaffected.
    """
    current = getattr(_LOCAL, "backend", None)
    if current is not None:
        raise ExperimentError(
            f"an execution backend ({current.name}) is already active; "
            "backends cannot be nested"
        )
    _LOCAL.backend = backend
    try:
        yield backend
    finally:
        _LOCAL.backend = None
