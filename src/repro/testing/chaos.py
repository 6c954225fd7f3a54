"""A fault-point registry for chaos-testing the serving and store stack.

The simulation layer already has a first-class fault story
(:mod:`repro.substrate.faults`); this module gives the *systems* layers the
same discipline.  Production code marks the places where infrastructure can
fail with a named **fault point**::

    from ..testing import chaos
    chaos.fire("store.put", fingerprint=fingerprint)   # no-op unless armed

and tests arm those points with faults — an exception to raise, a delay to
insert, a worker to kill — either in-process::

    with chaos.inject("store.put", raises=OSError("disk full"), times=1):
        ...   # the next store put fails exactly once

or across a process boundary through the ``REPRO_CHAOS`` environment
variable (parsed by :func:`install_from_env`, which ``repro-flip serve``
calls on startup), so the CI chaos gate can make a *served subprocess*
misbehave deterministically::

    REPRO_CHAOS="queue.worker:sleep:5" repro-flip serve --store runs/store

Known fault points (:data:`KNOWN_POINTS` — :func:`install` rejects typos):

==================  ========================================================
point               instrumented site
==================  ========================================================
``store.put``       :meth:`repro.store.cache.RunStore.put`, before staging
                    the artifact (a raise becomes a
                    :class:`~repro.store.cache.StoreWriteError` — the
                    disk-full / read-only-filesystem stand-in)
``journal.append``  :meth:`repro.service.journal.JobJournal.record`, before
                    the locked append
``queue.worker``    :meth:`repro.service.jobs.JobQueue` worker loop, after a
                    job is marked running but before it executes (``die``
                    kills the worker thread leaving the job in-flight —
                    the crash the journal replay must recover; ``sleep``
                    widens the kill window for ``kill -9`` tests)
==================  ========================================================

Faults fire a bounded number of ``times`` (or without limit when ``None``)
and are process-global; :func:`reset` (used by test fixtures) clears
everything.  The un-armed fast path is one dictionary emptiness check, so
leaving the ``fire`` calls in production code costs nothing measurable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional

import contextlib

from ..errors import ExperimentError

__all__ = [
    "KNOWN_POINTS",
    "ChaosFault",
    "active_faults",
    "fire",
    "inject",
    "install",
    "install_from_env",
    "reset",
    "uninstall",
]

#: Every fault point production code guards with :func:`fire`; installs
#: against any other name are rejected so a typo cannot silently never fire.
KNOWN_POINTS = frozenset({"store.put", "journal.append", "queue.worker"})

#: Actions a fault may perform when its point fires.
_ACTIONS = ("raise", "sleep", "die")

#: Exception names accepted by the ``REPRO_CHAOS`` ``raise`` action.
_ENV_EXCEPTIONS = {"oserror": OSError, "experimenterror": ExperimentError}


@dataclass
class ChaosFault:
    """One armed fault: what a fault point does while this is installed.

    ``action`` is one of ``raise`` (raise ``exception``), ``sleep`` (delay
    ``seconds`` then continue), or the site-interpreted directive ``die``
    (returned to the instrumented call site, which knows what dying means
    locally).  ``times`` bounds how often
    the fault fires before disarming itself (``None`` = every time).
    """

    point: str
    action: str
    exception: Optional[BaseException] = None
    seconds: float = 0.0
    times: Optional[int] = None
    fired: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        """Validate the point name and the action/argument combination."""
        if self.point not in KNOWN_POINTS:
            raise ExperimentError(
                f"unknown chaos fault point {self.point!r}; known points: "
                f"{', '.join(sorted(KNOWN_POINTS))}"
            )
        if self.action not in _ACTIONS:
            raise ExperimentError(
                f"unknown chaos action {self.action!r}; known actions: {', '.join(_ACTIONS)}"
            )
        if self.action == "raise" and self.exception is None:
            raise ExperimentError("a 'raise' chaos fault needs an exception instance")
        if self.action == "sleep" and self.seconds <= 0:
            raise ExperimentError("a 'sleep' chaos fault needs seconds > 0")
        if self.times is not None and self.times < 1:
            raise ExperimentError(f"a chaos fault must fire at least once, got times={self.times}")


_LOCK = threading.Lock()
_FAULTS: Dict[str, ChaosFault] = {}


def install(fault: ChaosFault) -> ChaosFault:
    """Arm ``fault`` at its point (replacing any fault already armed there)."""
    with _LOCK:
        _FAULTS[fault.point] = fault
    return fault


def uninstall(point: str) -> None:
    """Disarm the fault at ``point`` (a no-op when nothing is armed)."""
    with _LOCK:
        _FAULTS.pop(point, None)


def reset() -> None:
    """Disarm every fault — test fixtures call this between tests."""
    with _LOCK:
        _FAULTS.clear()


def active_faults() -> List[ChaosFault]:
    """A snapshot of the currently armed faults (for assertions/logging)."""
    with _LOCK:
        return list(_FAULTS.values())


@contextlib.contextmanager
def inject(
    point: str,
    *,
    raises: Optional[BaseException] = None,
    sleep: float = 0.0,
    action: Optional[str] = None,
    times: Optional[int] = None,
) -> Iterator[ChaosFault]:
    """Arm a fault for the ``with`` body and disarm it on exit.

    Exactly one behaviour must be given: ``raises=SomeError(...)``,
    ``sleep=seconds``, or ``action="die"``.
    """
    if sum((raises is not None, sleep > 0, action is not None)) != 1:
        raise ExperimentError("chaos.inject needs exactly one of raises=, sleep=, action=")
    if raises is not None:
        fault = ChaosFault(point, "raise", exception=raises, times=times)
    elif sleep > 0:
        fault = ChaosFault(point, "sleep", seconds=sleep, times=times)
    else:
        fault = ChaosFault(point, str(action), times=times)
    install(fault)
    try:
        yield fault
    finally:
        uninstall(point)


def fire(point: str, **context: Any) -> Optional[str]:
    """Trigger ``point``: the guarded call site invokes this unconditionally.

    Returns ``None`` when no fault is armed (the overwhelmingly common
    case), raises the armed exception for ``raise`` faults, blocks for
    ``sleep`` faults, and returns the directive string for ``die`` faults —
    the call site interprets it.  ``context`` keyword arguments
    (job ids, fingerprints) exist for debuggability; they are
    attached to raised exceptions via ``exception.chaos_context``.
    """
    if not _FAULTS:  # fast path: nothing armed anywhere
        return None
    with _LOCK:
        fault = _FAULTS.get(point)
        if fault is None:
            return None
        fault.fired += 1
        if fault.times is not None and fault.fired >= fault.times:
            del _FAULTS[point]
    if fault.action == "raise":
        error = fault.exception
        error.chaos_context = dict(context)  # type: ignore[union-attr]
        raise error  # type: ignore[misc]
    if fault.action == "sleep":
        time.sleep(fault.seconds)
        return "sleep"
    return fault.action


def install_from_env(environ: Optional[Mapping[str, str]] = None) -> List[ChaosFault]:
    """Arm faults described by the ``REPRO_CHAOS`` environment variable.

    The format is a comma-separated list of ``point:action[:arg][:times]``
    clauses; ``arg`` is the exception name for ``raise`` (``oserror`` /
    ``experimenterror``) and the seconds for ``sleep``, and is absent for
    ``die`` (whose third field, when present, is ``times``)::

        REPRO_CHAOS="store.put:raise:oserror:1"     one OSError from put
        REPRO_CHAOS="queue.worker:sleep:5"          every job starts 5s late

    ``repro-flip serve`` calls this on startup so the chaos CI gate (and
    any operator rehearsing a failure) can arm faults inside the served
    process without patching code.  Malformed clauses raise a labelled
    :class:`~repro.errors.ExperimentError` — chaos must be deliberate.
    """
    import os

    source = environ if environ is not None else os.environ
    spec = (source.get("REPRO_CHAOS") or "").strip()
    if not spec:
        return []
    installed: List[ChaosFault] = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":")
        if len(parts) < 2:
            raise ExperimentError(
                f"malformed REPRO_CHAOS clause {clause!r} (expected point:action[:arg][:times])"
            )
        point, action, rest = parts[0], parts[1], parts[2:]
        try:
            if action == "raise":
                name = rest[0] if rest else "oserror"
                if name not in _ENV_EXCEPTIONS:
                    raise ExperimentError(
                        f"REPRO_CHAOS raise action knows {sorted(_ENV_EXCEPTIONS)}, got {name!r}"
                    )
                times = int(rest[1]) if len(rest) > 1 else None
                fault = ChaosFault(
                    point, "raise",
                    exception=_ENV_EXCEPTIONS[name](f"chaos fault armed at {point}"),
                    times=times,
                )
            elif action == "sleep":
                if not rest:
                    raise ExperimentError("REPRO_CHAOS sleep action needs seconds")
                fault = ChaosFault(
                    point, "sleep",
                    seconds=float(rest[0]),
                    times=int(rest[1]) if len(rest) > 1 else None,
                )
            else:
                fault = ChaosFault(point, action, times=int(rest[0]) if rest else None)
        except ValueError as error:
            raise ExperimentError(
                f"malformed REPRO_CHAOS clause {clause!r}: {error}"
            ) from error
        installed.append(install(fault))
    return installed
