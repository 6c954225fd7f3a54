"""The service's async job queue: bounded workers over :func:`run_experiment`.

The queue's *results* are durable in the content-addressed
:class:`~repro.store.RunStore` (every completed run is persisted under its
fingerprint before the job reports ``done``) and its *in-flight state* is
durable in the :class:`~repro.service.journal.JobJournal`: every
transition appends one line to ``journal.jsonl`` beside the store, and
:meth:`JobQueue.recover` replays the journal on startup, re-enqueueing
whatever a crash interrupted under the original job ids.  A replayed job
that had in fact already persisted its artifact resolves as a store hit —
recovery never repeats a simulation.

Life cycle of a job::

    queued ──> running ──> done
       │           └─────> failed
       └─────> cancelled

* **Deterministic job ids.**  ``<submission-sequence>-<fingerprint[:12]>``
  — e.g. ``000003-9f2c41a0b7d1`` — so ids are stable across identical
  submission orders, sort chronologically, and carry the content address
  they will resolve to.  Recovery continues the sequence past everything
  ever journaled, so ids are never reused across a crash.
* **Duplicate coalescing.**  :meth:`JobQueue.submit` keys in-flight jobs
  by fingerprint: a second identical submission while the first is queued
  or running *joins* the existing job (same id, ``created=False``) instead
  of enqueueing a duplicate.  The race the in-memory map cannot see (a
  duplicate arriving just as the original leaves the map) is closed one
  layer down by :func:`repro.api.run_experiment`'s double-checked
  per-fingerprint compute lock — either way the simulation runs once.
* **Backpressure.**  ``max_queued`` bounds how many jobs may *wait*;
  :meth:`JobQueue.submit` raises :class:`QueueSaturated` beyond it, which
  the service maps to ``429`` + ``Retry-After`` — shedding load at the
  door instead of accepting unbounded work and degrading everyone.
* **Per-job manifests.**  :meth:`JobQueue.manifest` snapshots everything a
  poll needs: state, fingerprint, cache outcome (``hit``/``miss`` once
  finished), timestamps and the error text of a failed run.

Workers are daemon threads; :meth:`JobQueue.close` drains them cleanly
(one sentinel per worker) and is idempotent.  ``close(finish_queued=
False)`` is the SIGTERM drain: running jobs finish, still-queued jobs are
*left journaled* for the next process to recover instead of being started.
"""

from __future__ import annotations

import logging
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..api.config import ExecutionConfig
from ..api.run import resolve_run_inputs, run_experiment
from ..errors import ExperimentError
from ..store import RunArtifact, RunStore
from ..testing import chaos
from .journal import JobJournal, revive_literals

__all__ = ["JobState", "Job", "JobQueue", "QueueSaturated", "RecoveryReport"]

_LOG = logging.getLogger("repro.service.jobs")


class QueueSaturated(ExperimentError):
    """Submission refused: the queue already holds ``max_queued`` waiting jobs.

    The service maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` hint — the graceful-degradation contract is that an
    overloaded service *sheds* load visibly rather than accepting work it
    cannot start.
    """

    def __init__(self, depth: int, max_queued: int, retry_after: float):
        """Carry the saturation numbers the 429 body reports."""
        super().__init__(
            f"job queue is saturated ({depth} queued >= max_queued={max_queued}); "
            f"retry after {retry_after:g}s"
        )
        self.depth = depth
        self.max_queued = max_queued
        self.retry_after = retry_after


class JobState:
    """The job life-cycle states (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States in which a job still occupies its fingerprint (dedup key).
    ACTIVE = (QUEUED, RUNNING)
    #: States a job can never leave.
    TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass
class Job:
    """One submitted experiment run tracked by the :class:`JobQueue`.

    Mutable fields (``state``, timestamps, ``artifact``, ``error``,
    ``cache``) are only written under the owning queue's lock; read a
    consistent snapshot via :meth:`JobQueue.manifest` rather than the raw
    fields.
    """

    job_id: str
    spec_id: str
    fingerprint: str
    parameters: Dict[str, Any]
    batch: bool
    config: ExecutionConfig = field(repr=False, default=None)  # type: ignore[assignment]
    overrides: Dict[str, Any] = field(repr=False, default_factory=dict)
    raw_params: Dict[str, Any] = field(repr=False, default_factory=dict)
    raw_execution: Dict[str, Any] = field(repr=False, default_factory=dict)
    state: str = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cache: Optional[str] = None
    error: Optional[str] = None
    recovered: bool = False
    artifact: Optional[RunArtifact] = field(repr=False, default=None)

    def manifest(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the job (no artifact payload — poll bodies
        attach that separately so a large report is serialised only when
        the job is actually done)."""
        elapsed = (self.finished_at or time.time()) - self.submitted_at
        return {
            "job_id": self.job_id,
            "spec_id": self.spec_id,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "batch": self.batch,
            "parameters": dict(self.parameters),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "elapsed_seconds": round(elapsed, 6),
            "cache": self.cache,
            "error": self.error,
            "recovered": self.recovered,
        }


@dataclass
class RecoveryReport:
    """What :meth:`JobQueue.recover` did with the journal's pending jobs.

    ``replayed`` lists job ids re-enqueued for execution;
    ``already_stored`` the ids whose artifact the store already held (the
    crash hit between persist and the ``finish`` journal line — registered
    done without recompute); ``failed`` the ids whose journaled payload no
    longer resolves.  All three carry *original* job ids.
    """

    replayed: List[str] = field(default_factory=list)
    already_stored: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        """How many pending journal records recovery handled."""
        return len(self.replayed) + len(self.already_stored) + len(self.failed)

    def summary(self) -> Dict[str, Any]:
        """JSON-safe counts for ``/healthz`` and startup logging."""
        return {
            "replayed": len(self.replayed),
            "already_stored": len(self.already_stored),
            "failed": len(self.failed),
        }


class JobQueue:
    """Bounded worker-thread pool executing submitted experiment runs.

    Parameters
    ----------
    store_root:
        The service's run-store root; every job's
        :class:`~repro.api.config.ExecutionConfig` points here, so results
        persist (and duplicate computes dedup) through the normal
        :func:`~repro.api.run_experiment` store path.
    workers:
        Worker-thread count (clamped to at least 1).  This bounds how many
        simulations execute concurrently; submissions beyond it queue.
    run:
        The execution callable, ``run(spec_id, config=..., **overrides) ->
        RunArtifact``.  Defaults to :func:`repro.api.run_experiment`; tests
        inject stubs to script slow/failing runs.
    on_finish:
        Optional callback invoked (outside the queue lock) with each job
        that reaches a terminal state — the service wires its metrics here.
    journal:
        Optional :class:`~repro.service.journal.JobJournal`; when given,
        every transition is journaled and :meth:`recover` can replay a
        crashed predecessor's in-flight work.
    max_queued:
        Optional bound on *waiting* jobs; a submission beyond it raises
        :class:`QueueSaturated` (running jobs and dedup joins don't count).
    retry_after:
        The ``Retry-After`` hint (seconds) carried by
        :class:`QueueSaturated` when the bound trips.
    """

    def __init__(
        self,
        store_root: Union[str, Path],
        *,
        workers: int = 2,
        run: Optional[Callable[..., RunArtifact]] = None,
        on_finish: Optional[Callable[[Job], None]] = None,
        journal: Optional[JobJournal] = None,
        max_queued: Optional[int] = None,
        retry_after: float = 1.0,
    ):
        """Start ``workers`` daemon worker threads over an empty queue."""
        if max_queued is not None and max_queued < 1:
            raise ExperimentError(f"max_queued must be at least 1, got {max_queued}")
        self.store_root = Path(store_root)
        self._run = run if run is not None else run_experiment
        self._on_finish = on_finish
        self.journal = journal
        self.max_queued = max_queued
        self.retry_after = float(retry_after)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._in_flight: Dict[str, str] = {}  # fingerprint -> active job id
        self._tasks: "queue_module.Queue[Optional[str]]" = queue_module.Queue()
        self._sequence = 0
        self._closed = False
        self._skip_queued = False  # SIGTERM drain: leave queued jobs journaled
        self.workers = max(1, int(workers))
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-service-worker-{index}", daemon=True
            )
            for index in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------ API

    def submit(
        self,
        spec_id: str,
        fingerprint: str,
        parameters: Dict[str, Any],
        *,
        config: ExecutionConfig,
        overrides: Optional[Dict[str, Any]] = None,
        raw_params: Optional[Dict[str, Any]] = None,
        raw_execution: Optional[Dict[str, Any]] = None,
    ) -> Tuple[Job, bool]:
        """Enqueue a run (or join the in-flight job for its fingerprint).

        Returns ``(job, created)``: ``created=False`` means an identical
        submission was already queued or running and the caller was handed
        that job — the service reports such submissions as deduplicated.
        The caller passes inputs already resolved by
        :func:`repro.api.resolve_run_inputs`, so nothing here can fail
        validation inside a worker.  ``raw_params``/``raw_execution`` are
        the request's plain-JSON payloads, journaled with the submission so
        a crashed job can be resubmitted through the same validation path.

        A new job beyond ``max_queued`` waiting jobs raises
        :class:`QueueSaturated`; joining an in-flight duplicate is always
        allowed (it adds no work).
        """
        with self._lock:
            if self._closed:
                raise ExperimentError("the job queue is shut down; no further submissions")
            active_id = self._in_flight.get(fingerprint)
            if active_id is not None:
                return self._jobs[active_id], False
            depth = self._depth_locked()
            if self.max_queued is not None and depth >= self.max_queued:
                raise QueueSaturated(depth, self.max_queued, self.retry_after)
            self._sequence += 1
            job_id = f"{self._sequence:06d}-{fingerprint[:12]}"
            job = Job(
                job_id=job_id,
                spec_id=spec_id,
                fingerprint=fingerprint,
                parameters=dict(parameters),
                batch=bool(config.batch),
                config=config,
                overrides=dict(overrides or {}),
                raw_params=dict(raw_params or {}),
                raw_execution=dict(raw_execution or {}),
            )
            self._enqueue_locked(job)
            return job, True

    def _depth_locked(self) -> int:
        """Waiting-job count; the caller holds the queue lock."""
        return sum(1 for job in self._jobs.values() if job.state == JobState.QUEUED)

    def _enqueue_locked(self, job: Job) -> None:
        """Register and enqueue ``job`` (lock held): journal-first, then task.

        The journal line lands *before* the task becomes visible to a
        worker, so any job a worker can possibly start is already durable —
        the invariant replay relies on.
        """
        self._journal(
            "submit",
            job.job_id,
            spec_id=job.spec_id,
            fingerprint=job.fingerprint,
            params=job.raw_params,
            execution=job.raw_execution,
            recovered=job.recovered,
        )
        self._jobs[job.job_id] = job
        self._order.append(job.job_id)
        self._in_flight[job.fingerprint] = job.job_id
        self._tasks.put(job.job_id)

    def get(self, job_id: str) -> Optional[Job]:
        """The job for ``job_id``, or ``None`` if the id is unknown."""
        with self._lock:
            return self._jobs.get(job_id)

    def manifest(self, job_id: str) -> Optional[Dict[str, Any]]:
        """A consistent manifest snapshot of one job (``None`` if unknown)."""
        with self._lock:
            job = self._jobs.get(job_id)
            return job.manifest() if job is not None else None

    def cancel(self, job_id: str) -> bool:
        """Cancel a *queued* job; returns whether the cancellation took.

        Only ``queued`` jobs are cancellable — a ``running`` simulation is
        not interrupted (it will complete and persist normally), and
        terminal jobs are past cancelling; both return ``False`` so the
        service can answer ``409``.  An unknown id raises.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ExperimentError(f"unknown job id {job_id!r}")
            if job.state != JobState.QUEUED:
                return False
            job.state = JobState.CANCELLED
            job.finished_at = time.time()
            self._release_fingerprint(job)
            finished = job
        self._journal("cancel", job_id)
        self._notify(finished)
        return True

    def depth(self) -> int:
        """How many jobs are currently waiting for a worker."""
        with self._lock:
            return sum(1 for job in self._jobs.values() if job.state == JobState.QUEUED)

    def running(self) -> int:
        """How many jobs are currently executing on a worker."""
        with self._lock:
            return sum(1 for job in self._jobs.values() if job.state == JobState.RUNNING)

    def jobs(self) -> List[Dict[str, Any]]:
        """Manifests of every tracked job, in submission order."""
        with self._lock:
            return [self._jobs[job_id].manifest() for job_id in self._order]

    def close(self, timeout: float = 10.0, *, finish_queued: bool = True) -> None:
        """Stop accepting submissions and drain the workers (idempotent).

        With ``finish_queued=True`` (the default) workers run every job
        already queued before exiting; a running job always finishes its
        simulation first (bounded by ``timeout`` per worker join — workers
        are daemons, so a stuck simulation never blocks interpreter exit).

        ``finish_queued=False`` is the **graceful-drain** contract behind
        SIGTERM: running jobs complete and persist, but jobs still waiting
        are *not started* — they stay ``queued`` in memory and journaled as
        submitted, so the next process against the same store recovers and
        runs them.  Draining a long backlog on a shutdown deadline would
        mean losing whichever jobs the deadline cut off; skipping hands
        them to the successor instead.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._skip_queued = not finish_queued
        for _ in self._threads:
            self._tasks.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)

    def recover(self, store: Optional[RunStore] = None) -> "RecoveryReport":
        """Replay the journal and re-enqueue whatever a crash interrupted.

        For each journaled job whose last event was ``submit`` or ``start``:

        * if ``store`` already holds the job's artifact (the crash landed
          after the persist but before the ``finish`` line), the job is
          registered **already done** under its original id — a client
          polling across the restart gets the result, and no simulation or
          queue slot is spent;
        * otherwise the raw journaled payload is re-resolved through
          :func:`repro.api.resolve_run_inputs` (the same validation a fresh
          request gets) and the job re-enqueued under its original id;
        * a payload that no longer resolves (spec retired, parameter
          renamed between versions) is registered as ``failed`` with the
          resolution error — recovery surfaces problems, it never crashes
          startup.

        The job-id sequence continues past everything journaled, so ids
        are never reused.  Returns a :class:`RecoveryReport`; no-op (all
        zeros) without a journal.
        """
        report = RecoveryReport()
        if self.journal is None:
            return report
        replay = self.journal.replay()
        with self._lock:
            self._sequence = max(self._sequence, replay.max_sequence)
        for record in replay.pending:
            try:
                execution = revive_literals(record.execution)
                overrides = {
                    key: revive_literals(value) for key, value in record.params.items()
                }
                config = ExecutionConfig.for_service(self.store_root, execution)
                resolved = resolve_run_inputs(record.spec_id, config=config, **overrides)
            except ExperimentError as error:
                self._restore_terminal(record, JobState.FAILED, error=str(error))
                report.failed.append(record.job_id)
                continue
            job = Job(
                job_id=record.job_id,
                spec_id=record.spec_id,
                fingerprint=resolved.fingerprint,
                parameters=resolved.parameters,
                batch=bool(config.batch),
                config=config,
                overrides=overrides,
                raw_params=dict(record.params),
                raw_execution=dict(record.execution),
                recovered=True,
            )
            if store is not None and store.contains(resolved.fingerprint):
                try:
                    artifact = store.get(resolved.fingerprint)
                except ExperimentError:
                    artifact = None  # corrupt: fall through to recompute
                if artifact is not None:
                    artifact.execution["cache"] = "hit"
                    job.state = JobState.DONE
                    job.cache = "hit"
                    job.artifact = artifact
                    job.finished_at = time.time()
                    with self._lock:
                        self._jobs[job.job_id] = job
                        self._order.append(job.job_id)
                    self._journal("finish", job.job_id, cache="hit", recovered=True)
                    self._notify(job)
                    report.already_stored.append(job.job_id)
                    continue
            with self._lock:
                self._enqueue_locked(job)
            report.replayed.append(job.job_id)
        return report

    # ------------------------------------------------------------ internals

    def _restore_terminal(self, record: Any, state: str, *, error: Optional[str]) -> None:
        """Register a journaled job in a terminal state (recovery bookkeeping)."""
        job = Job(
            job_id=record.job_id,
            spec_id=record.spec_id,
            fingerprint=record.fingerprint,
            parameters={},
            batch=False,
            recovered=True,
        )
        job.state = state
        job.error = error
        job.finished_at = time.time()
        with self._lock:
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
        self._journal("fail", job.job_id, error=error)
        self._notify(job)

    def _journal(self, event: str, job_id: str, **fields: Any) -> None:
        """Append one transition to the journal when one is attached."""
        if self.journal is not None:
            self.journal.record(event, job_id, **fields)

    def _release_fingerprint(self, job: Job) -> None:
        """Drop the in-flight dedup entry held by ``job`` (lock held)."""
        if self._in_flight.get(job.fingerprint) == job.job_id:
            del self._in_flight[job.fingerprint]

    def _notify(self, job: Job) -> None:
        """Invoke the finish callback outside the lock (errors logged, not
        raised — a metrics bug must not take a worker thread down)."""
        if self._on_finish is None:
            return
        try:
            self._on_finish(job)
        except Exception:
            _LOG.exception("finish callback failed for job %s", job.job_id)

    def _worker_loop(self) -> None:
        """One worker: pull job ids, execute, record outcome, repeat.

        Every transition is journaled *outside* the queue lock (the journal
        takes its own file lock; holding both invites ordering bugs).  The
        armed ``queue.worker`` chaos point fires between ``running`` and
        execution — a ``die`` action returns from the loop, simulating a
        worker thread lost mid-job exactly where the journal shows
        ``start`` with no terminal line.
        """
        while True:
            job_id = self._tasks.get()
            if job_id is None:
                return
            if self._skip_queued:
                # SIGTERM drain: leave the job queued in memory and
                # journaled as submitted for the successor process.
                continue
            with self._lock:
                job = self._jobs[job_id]
                if job.state != JobState.QUEUED:
                    continue  # cancelled while waiting
                job.state = JobState.RUNNING
                job.started_at = time.time()
            self._journal("start", job.job_id)
            if chaos.fire("queue.worker", job_id=job.job_id) == "die":
                return  # chaos: worker thread dies, job stuck "running"
            try:
                artifact = self._run(job.spec_id, config=job.config, **job.overrides)
            except Exception as error:  # driver/validation/backend failures
                with self._lock:
                    job.state = JobState.FAILED
                    job.error = f"{type(error).__name__}: {error}"
                    job.finished_at = time.time()
                    self._release_fingerprint(job)
                self._journal("fail", job.job_id, error=job.error)
            else:
                with self._lock:
                    job.state = JobState.DONE
                    job.artifact = artifact
                    job.cache = artifact.execution.get("cache")
                    job.finished_at = time.time()
                    self._release_fingerprint(job)
                self._journal("finish", job.job_id, cache=job.cache)
            self._notify(job)
