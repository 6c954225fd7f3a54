"""In-memory spans around the public functions of each ``repro`` layer.

A :class:`Tracer` wraps the functions and methods listed in
:data:`FUNCTIONS` and :data:`METHODS` at run time, from outside the
package: every module-level reference to a wrapped function is swapped for
a wrapper that records one span ``(id, parent, name, start, end, attr)``
per call, and :meth:`Tracer.uninstall` puts the originals back.  Nothing
in ``src/`` is edited.  Span times come from :func:`time.perf_counter`,
which on Linux reads the system-wide monotonic clock, so spans recorded in
pool workers and in a traced service process share the benchmark's time
line.

:func:`decompose` turns the spans of a time window into per-layer self
times that add up exactly to the window: each instant is split evenly
among the spans active at that instant that have no active child, and an
instant no span covers is ``unattributed``.  On one thread this is the
usual "duration minus the time child spans cover"; with concurrent spans
(two pool workers, the service's handler and job threads) it keeps the sum
equal to the wall time instead of double counting.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded call: (span id, parent id or None, name, start, end, attr).
Span = Tuple[int, Optional[int], str, float, float, Any]


def _messages(report: Any) -> Tuple[int, int]:
    """(sent, delivered) of a serial or batched delivery report."""
    import numpy as np

    return int(np.sum(report.messages_sent)), int(np.sum(report.messages_delivered))


def _hit(artifact: Any) -> bool:
    return artifact is not None


#: Module-level functions: (module, attribute, span name).
FUNCTIONS: Sequence[Tuple[str, str, str]] = (
    ("repro.api.run", "run_experiment", "api.run_experiment"),
    ("repro.api.run", "resolve_run_inputs", "api.resolve_run_inputs"),
    ("repro.store.fingerprint", "run_fingerprint", "store.fingerprint"),
    ("repro.experiments.e1_rounds_vs_n", "run", "experiments.driver"),
    ("repro.experiments.e8_majority", "run", "experiments.driver"),
    ("repro.exec.batching", "run_broadcast_sweep_batched", "exec.batching"),
    ("repro.exec.batching", "run_sweep_batched", "exec.batching"),
    ("repro.exec.stage_batching", "run_stage1_batch", "exec.stage1_batch"),
    ("repro.exec.stage_batching", "run_stage2_batch", "exec.stage2_batch"),
    ("repro.core.stage1", "execute_stage_one", "core.stage1"),
    ("repro.core.stage2", "execute_stage_two", "core.stage2"),
)

#: Methods: (module, class, method, span name, attr of the return value).
METHODS: Sequence[Tuple[str, str, str, str, Optional[Callable[[Any], Any]]]] = (
    ("repro.substrate.network", "PushGossipNetwork", "deliver", "substrate.deliver", _messages),
    ("repro.substrate.network", "PushGossipNetwork", "deliver_batch", "substrate.deliver_batch", _messages),
    ("repro.store.cache", "RunStore", "get", "store.get", _hit),
    ("repro.store.cache", "RunStore", "put", "store.put", None),
    ("repro.exec.backends.local", "LocalPoolBackend", "start", "exec.backend.start", None),
    ("repro.exec.backends.local", "LocalPoolBackend", "close", "exec.backend.close", None),
    ("repro.service.app", "ExperimentService", "submit_run", "service.submit_run", None),
    ("repro.service.app", "ExperimentService", "job_status", "service.job_status", None),
    ("repro.service.app", "_RequestHandler", "_dispatch", "service.http", None),
    ("repro.service.jobs", "JobQueue", "submit", "service.queue.submit", None),
    ("repro.service.journal", "JobJournal", "record", "service.journal.record", None),
)

#: The tracer installed in this process; pool workers forked while it is
#: installed find it here (a task callable must be importable by name).
ACTIVE: Optional["Tracer"] = None


class Tracer:
    """Records spans for the wrapped ``repro`` functions while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn: Callable[..., Any], args: Sequence[Any], kwargs: Dict[str, Any],
             attr: Optional[Callable[[Any], Any]] = None, parent: Optional[int] = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        sid = (self._pid << 32) | next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, attr(result) if attr and result is not None else None))

    def _wrap(self, fn: Callable[..., Any], name: str, attr: Optional[Callable[[Any], Any]] = None) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, attr)

        return traced

    # ------------------------------------------------------------ patching

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        self._undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> "Tracer":
        """Wrap every target in the loaded ``repro`` modules."""
        global ACTIVE
        for module_name, _, _ in FUNCTIONS:
            importlib.import_module(module_name)
        for module_name, *_ in METHODS:
            importlib.import_module(module_name)
        self._pid = os.getpid()
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("repro") and m is not None]
        for module_name, attribute, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attribute)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for module_name, class_name, method, name, attr in METHODS:
            cls = getattr(sys.modules[module_name], class_name)
            self._set(cls, method, self._wrap(cls.__dict__[method], name, attr))
        noise = importlib.import_module("repro.substrate.noise")
        for value in vars(noise).values():
            if isinstance(value, type) and issubclass(value, noise.NoiseChannel):
                for method in ("transmit", "transmit_batch"):
                    if method in value.__dict__ and not getattr(value.__dict__[method], "__isabstractmethod__", False):
                        self._set(value, method, self._wrap(value.__dict__[method], "substrate.transmit"))
        local = importlib.import_module("repro.exec.backends.local")
        submit = local.LocalPoolBackend.__dict__["submit"]
        self._set(local.LocalPoolBackend, "submit", self._wrap(functools.partial(_submit_traced, self, submit),
                                                               "exec.backend.submit"))
        ACTIVE = self
        return self

    def uninstall(self) -> None:
        """Put every original function back."""
        global ACTIVE
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)
        ACTIVE = None

    def take(self) -> List[Span]:
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def _submit_traced(tracer: Tracer, submit: Callable[..., Any], backend: Any, tasks: Sequence[Any]) -> List[Any]:
    """``LocalPoolBackend.submit`` that traces inside the pool workers too.

    Each task is sent as :func:`worker_task`, which runs it in a span whose
    parent is this submit span and returns the worker's spans with the
    result; they join the parent's span list here.
    """
    from repro.exec.backends.base import Task

    parent = tracer.current()
    wrapped = [Task(fn=worker_task, args=(task, parent), context=task.context) for task in tasks]
    results = []
    for result, spans in submit(backend, wrapped):
        tracer.spans.extend(spans)
        results.append(result)
    return results


def worker_task(task: Any, parent: Optional[int]) -> Tuple[Any, List[Span]]:
    """Run one pool task under the tracer inherited from the parent."""
    from repro.exec.backends.base import run_task

    tracer = ACTIVE
    if tracer is None:
        raise RuntimeError("perfbench worker task ran without an installed tracer")
    tracer._pid = os.getpid()
    tracer._stack().clear()
    tracer.spans = []
    result = tracer.call("exec.backend.worker", run_task, (task,), {}, parent=parent)
    return result, tracer.take()


# ------------------------------------------------------------------ analysis


def link_by_containment(spans: List[Span], outer: Iterable[Span]) -> List[Span]:
    """Parent each top-level span to the ``outer`` span whose interval holds it.

    ``outer`` spans must not overlap one another (one client connection);
    the service's spans for a request then nest under the client request
    that caused them.
    """
    outer = sorted(outer, key=lambda s: s[3])
    starts = [s[3] for s in outer]
    linked = []
    for span in spans:
        if span[1] is None:
            index = bisect_right(starts, span[3]) - 1
            if index >= 0 and outer[index][4] >= span[4]:
                span = (span[0], outer[index][0]) + span[2:]
        linked.append(span)
    return linked


def decompose(spans: Sequence[Span], t0: float, t1: float) -> Tuple[Dict[str, float], float]:
    """Self time per span name over ``[t0, t1]``, plus the unattributed rest.

    The values sum exactly to ``t1 - t0``.
    """
    events = []
    for span in spans:
        start, end = max(span[3], t0), min(span[4], t1)
        if end > start:
            events.append((start, 1, span))
            events.append((end, 0, span))
    # At one instant, ends go first, and an outer span starts before the
    # spans it holds (clipping to ``t0`` gives many spans the same start).
    events.sort(key=lambda e: (e[0], e[1], e[2][3], -e[2][4]))
    names = {span[0]: span[2] for _, _, span in events}
    active_children: Dict[int, int] = defaultdict(int)
    active = set()
    leaves = set()
    attributed: Dict[str, float] = defaultdict(float)
    unattributed = 0.0
    previous = t0
    for moment, is_start, span in events:
        step = moment - previous
        if step > 0:
            if leaves:
                share = step / len(leaves)
                for leaf in leaves:
                    attributed[names[leaf]] += share
            else:
                unattributed += step
        previous = moment
        sid, parent = span[0], span[1]
        if is_start:
            active.add(sid)
            if not active_children[sid]:
                leaves.add(sid)
            if parent in active:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                active_children[parent] -= 1
                if not active_children[parent]:
                    leaves.add(parent)
    unattributed += max(0.0, t1 - previous)
    return dict(attributed), unattributed
