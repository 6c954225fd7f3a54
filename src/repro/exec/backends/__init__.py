"""Pluggable execution backends: who runs a task list, behind one interface.

The dispatch sites of the execution layer (:mod:`repro.exec.pool`) build
:class:`~repro.exec.backends.base.Task` lists and hand them to whichever
:class:`~repro.exec.backends.base.ExecutionBackend` is active for the run:

* ``in-process`` — :class:`~repro.exec.backends.base.InProcessBackend`,
  the serial reference and the default;
* ``local`` — :class:`~repro.exec.backends.local.LocalPoolBackend`, one
  process pool created per run and reused across sweep-point families
  (option ``workers``: the pool size, ``0`` = one per CPU).

Both satisfy the same contract — seeds derived in the parent, results
assembled in task order — so they are interchangeable at the bit level;
``tests/unit/test_fault_none_regression.py`` pins the digests.

:func:`create_backend` is the one factory the API layer uses; it validates
backend names and options so a typo fails with the same message everywhere.
"""

from __future__ import annotations

import numbers
from typing import Any, Mapping, Optional

from ...errors import ExperimentError
from .base import (
    ExecutionBackend,
    InProcessBackend,
    Task,
    active_backend,
    run_task,
    task_failure_error,
    task_label,
    use_backend,
)
from .local import LocalPoolBackend, chunksize_for, default_jobs

__all__ = [
    "Task",
    "run_task",
    "task_label",
    "task_failure_error",
    "ExecutionBackend",
    "InProcessBackend",
    "LocalPoolBackend",
    "chunksize_for",
    "default_jobs",
    "active_backend",
    "use_backend",
    "backend_names",
    "validate_backend_spec",
    "create_backend",
]

#: Recognised option keys per backend name (the factory's validation table).
_BACKEND_OPTIONS = {
    "in-process": frozenset(),
    "local": frozenset({"workers"}),
}


def backend_names() -> str:
    """Comma-separated names of the registered backends (for help/error text)."""
    return ", ".join(sorted(_BACKEND_OPTIONS))


def validate_backend_spec(name: Any, options: Optional[Mapping[str, Any]] = None) -> None:
    """Reject unknown backend names, option keys or option values.

    Called by :meth:`repro.api.config.ExecutionConfig.resolve` so a bad
    backend request fails at plan-resolution time (a ``400`` from the
    service) with the same message the factory would raise.
    """
    recognised = _BACKEND_OPTIONS.get(name) if isinstance(name, str) else None
    if recognised is None:
        raise ExperimentError(
            f"unknown execution backend {name!r}; registered backends: {backend_names()}"
        )
    if options is not None and not isinstance(options, Mapping):
        raise ExperimentError(
            f"backend options must be a mapping, got {type(options).__name__}"
        )
    unknown = sorted(set(options or {}) - recognised)
    if unknown:
        raise ExperimentError(
            f"backend {name!r} has no option(s) {', '.join(unknown)}; "
            f"recognised options: {', '.join(sorted(recognised)) or '(none)'}"
        )
    workers = (options or {}).get("workers", 0)
    if not isinstance(workers, numbers.Integral) or isinstance(workers, bool) or workers < 0:
        raise ExperimentError(
            f"backend {name!r} workers must be a non-negative integer "
            f"(0 = one per CPU), got {workers!r}"
        )


def create_backend(name: str, options: Optional[Mapping[str, Any]] = None) -> ExecutionBackend:
    """Build a backend from its name and options (not yet started)."""
    validate_backend_spec(name, options)
    if name == "local":
        return LocalPoolBackend(workers=int((options or {}).get("workers", 0)))
    return InProcessBackend()
