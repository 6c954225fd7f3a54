"""Dispatch plumbing between the trial/sweep layers and the execution backends.

Monte-Carlo trials are embarrassingly parallel: every trial receives its own
pre-derived seed and never communicates.  So are the grid points of a sweep:
every point is seeded independently of the others.  This module turns
either granularity into ordered :class:`~repro.exec.backends.base.Task`
lists and sends them, through :func:`submit_tasks`, to the run's active
backend (:func:`repro.exec.backends.active_backend`: the backend
:func:`repro.api.run_experiment` installed, else the shared in-process one).

Two properties matter more than raw throughput:

* **Determinism** — seeds are derived in the parent before dispatch and
  results are collected in submission order, so the assembled
  :class:`~repro.analysis.experiments.ExperimentResult` is bit-identical on
  every backend.
* **Graceful degradation** — callables that cannot cross a process boundary
  (closures, lambdas, functions defined in ``__main__`` without a file) are
  detected up front by :func:`picklability_error`, and :func:`submit_tasks`
  runs such a task list in-process instead of crashing mid-experiment.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from .backends import InProcessBackend, Task, active_backend, run_task

__all__ = ["picklability_error", "submit_tasks", "run_trial_groups", "run_point_tasks"]

#: Signature of a trial function: ``(seed, trial_index) -> measurements``.
TrialFunction = Callable[[int, int], Mapping[str, Any]]


def picklability_error(tasks: Sequence[Task]) -> Optional[str]:
    """Return why ``tasks`` cannot be sent to a worker, or ``None`` if they can.

    Probes every distinct callable once: each task's ``fn`` and any callable
    among its arguments (a cell task's ``trial_fn``).  Closures and lambdas
    pickle by qualified name and therefore fail here; the drivers in
    :mod:`repro.experiments` bind parameters with :func:`functools.partial`
    over module-level functions precisely so this probe passes.
    """
    seen = set()
    for task in tasks:
        for candidate in (task.fn, *task.args, *task.kwargs.values()):
            if not callable(candidate) or id(candidate) in seen:
                continue
            seen.add(id(candidate))
            try:
                pickle.dumps(candidate)
            except Exception as error:  # pickle raises a zoo of types here
                return f"{type(error).__name__}: {error}"
    return None


def submit_tasks(tasks: Sequence[Task]) -> List[Any]:
    """Execute a task list on the run's active backend, results in task order.

    The single funnel every dispatch goes through.  A task list holding an
    unpicklable callable runs in-process instead of on a pool backend (the
    results are identical either way; the pool's task count stays put).
    """
    backend = active_backend()
    if not isinstance(backend, InProcessBackend) and picklability_error(tasks) is not None:
        return [run_task(task) for task in tasks]
    return backend.submit(tasks)


def run_trial_groups(
    groups: Sequence[Tuple[str, TrialFunction, Sequence[int]]],
) -> List[List[Any]]:
    """Run every trial of every ``(name, trial_fn, seeds)`` group in one submission.

    One task per trial — ``trial_fn(seeds[i], i)`` — so a pool balances a
    whole sweep's trials at once.  Returns the raw measurements per group,
    in trial order; the caller validates and packages them.
    """
    tasks = [
        Task(
            fn=trial_fn,
            args=(int(seed), index),
            context=(("experiment", name), ("trial", index), ("seed", int(seed))),
        )
        for name, trial_fn, seeds in groups
        for index, seed in enumerate(seeds)
    ]
    raw = submit_tasks(tasks)
    split: List[List[Any]] = []
    offset = 0
    for _, _, seeds in groups:
        split.append(raw[offset : offset + len(seeds)])
        offset += len(seeds)
    return split


def run_point_tasks(tasks: Sequence[Tuple[Callable[..., Any], Mapping[str, Any]]]) -> List[Any]:
    """Run pre-resolved ``(fn, kwargs)`` tasks — one per point or cell — in order.

    Every cell is a :func:`repro.analysis.experiments.run_trials` or
    :func:`repro.exec.batching.run_batch_cell` call and returns an
    :class:`~repro.analysis.experiments.ExperimentResult`: the batched sweep
    points of :func:`repro.exec.batching.run_sweep_batched` and the cells of
    the cell-structured experiments (E4, E7, E9, E11, E12).  Every kwarg was
    resolved in the parent, so the results are identical on every backend.
    Failure context is read off the kwargs (the cell's ``name`` and its
    ``seed`` or ``base_seed``).
    """
    return submit_tasks(
        [
            Task(fn=fn, kwargs=dict(kwargs), context=_kwargs_context(index, kwargs))
            for index, (fn, kwargs) in enumerate(tasks)
        ]
    )


def _kwargs_context(index: int, kwargs: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Failure-attribution context scraped from a ``(fn, kwargs)`` task."""
    context: List[Tuple[str, Any]] = []
    for key in ("name", "seed", "base_seed"):
        if kwargs.get(key) is not None:
            context.append((key, kwargs[key]))
    if not context:
        context.append(("position", index))
    return tuple(context)
