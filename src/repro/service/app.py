"""The experiment service: REST resources over the job queue and run store.

A stdlib-only HTTP layer (``http.server.ThreadingHTTPServer`` — one thread
per connection, no third-party web framework) exposing the reproduction as
a traffic-facing system.  The serving motif is the POD reduced-order-model
pattern: repeated parameter points are answered from the content-addressed
:class:`~repro.store.RunStore` at disk-read speed while the full simulator
fills cache misses through the :class:`~repro.service.jobs.JobQueue`.

Resources (all JSON; non-finite floats travel as ``encode_nonfinite``
tags, which :class:`~repro.service.client.ServiceClient` decodes back):

========  ==========================  =========================================
method    path                        behaviour
========  ==========================  =========================================
POST      ``/v1/runs``                submit ``{"experiment", "params",
                                      "execution"}``; ``200`` immediately with
                                      the artifact when the store already holds
                                      the fingerprint, else ``202`` with a job
                                      id (duplicate in-flight submissions join
                                      the existing job)
GET       ``/v1/runs``                list job manifests
GET       ``/v1/runs/<job-id>``       poll one job; the artifact payload is
                                      attached once the state is ``done``
DELETE    ``/v1/runs/<job-id>``       cancel a *queued* job (``409`` otherwise)
GET       ``/v1/experiments``         the experiment registry, parameters
                                      included
GET       ``/v1/store/<fp-prefix>``   fetch a stored artifact by fingerprint
                                      prefix (``409`` lists the matches when
                                      ambiguous)
GET       ``/healthz``                liveness + queue depth + degraded /
                                      recovery status
GET       ``/metrics``                request counts, queue depth, cache hit
                                      rate, per-spec latency histograms
========  ==========================  =========================================

Error mapping is uniform: unknown experiment/job/fingerprint → ``404``,
invalid body/parameters/execution options → ``400``, ambiguous prefix or
un-cancellable job → ``409``, a saturated queue → ``429`` with a
``Retry-After`` header, all with ``{"error": <message>}`` bodies carrying
the underlying :class:`~repro.errors.ExperimentError` text.

**Crash safety and graceful degradation.**  The service journals every
job transition through the :class:`~repro.service.journal.JobJournal` and
replays it at startup (:meth:`~repro.service.jobs.JobQueue.recover`), so
jobs in flight when a previous process died are re-enqueued — or, when
their artifact already made it into the store, served as cache hits —
under their original ids.  A store or journal write failure flips the
service to **degraded compute-only** mode: runs still execute and return
results, persistence is skipped, and ``/healthz`` answers ``"degraded"``
with the reason (HTTP 200 — the process is alive and serving; degraded is
a state to alert on, not an outage).  SIGTERM triggers a graceful drain:
running jobs finish and persist, still-queued jobs stay journaled for the
next process.

:class:`ExperimentService` holds all behaviour; the request handler only
parses paths and moves JSON, so the service logic is unit-testable without
sockets.  :func:`create_server` binds a server (``port=0`` = ephemeral,
used by tests and benchmarks); :func:`serve` is the blocking entry point
behind ``repro-flip serve``.
"""

from __future__ import annotations

import json
import math
import re
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import urlparse

from ..api.config import ExecutionConfig
from ..api.run import resolve_run_inputs
from ..api.spec import experiment_ids, iter_specs
from ..errors import ExperimentError
from ..store import RunArtifact, RunStore, encode_nonfinite
from ..testing import chaos
from .jobs import JobQueue, JobState, QueueSaturated
from .journal import JobJournal, revive_literals

__all__ = ["ServiceMetrics", "ExperimentService", "create_server", "serve"]

#: Upper edges of the latency histogram buckets (seconds); the last bucket
#: is unbounded.  Spans sub-millisecond cache hits to multi-minute sweeps.
LATENCY_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0)

#: Cap on distinct per-spec latency histograms; overflow aggregates under
#: ``"_other"`` so ``/metrics`` memory stays bounded no matter how many
#: spec ids flow past (the registry holds ~a dozen, but the cap makes the
#: bound structural rather than incidental).
MAX_LATENCY_SPECS = 32


class ServiceMetrics:
    """Thread-safe service counters surfaced by ``GET /metrics``.

    Tracks request counts per route and status class, cache outcomes
    (immediate store hits, deduplicated joins, job-level hits/misses) and
    per-spec latency histograms over :data:`LATENCY_BUCKETS`.  Everything
    is monotonic since service start; :meth:`snapshot` renders the JSON
    body.
    """

    def __init__(self) -> None:
        """Start all counters at zero."""
        self._lock = threading.Lock()
        self._requests: Dict[str, int] = {}
        self._responses: Dict[str, int] = {}
        self._cache: Dict[str, int] = {
            "hit": 0, "miss": 0, "deduplicated": 0, "failed": 0, "shed": 0,
        }
        self._latency: Dict[str, Dict[str, Any]] = {}

    def observe_request(self, route: str, status: int) -> None:
        """Count one handled request against its route and status code."""
        with self._lock:
            self._requests[route] = self._requests.get(route, 0) + 1
            key = str(status)
            self._responses[key] = self._responses.get(key, 0) + 1

    def observe_cache(self, outcome: str) -> None:
        """Count one submission outcome (``hit``/``miss``/``deduplicated``/``failed``)."""
        with self._lock:
            self._cache[outcome] = self._cache.get(outcome, 0) + 1

    def observe_latency(self, spec_id: str, seconds: float) -> None:
        """Add one completed request's latency to its spec's histogram.

        At most :data:`MAX_LATENCY_SPECS` distinct spec histograms are
        kept; later spec ids fold into an ``"_other"`` aggregate so the
        metrics footprint is fixed-size regardless of traffic shape.
        """
        with self._lock:
            if spec_id not in self._latency and len(self._latency) >= MAX_LATENCY_SPECS:
                spec_id = "_other"
            histogram = self._latency.setdefault(
                spec_id,
                {"buckets": list(LATENCY_BUCKETS), "counts": [0] * (len(LATENCY_BUCKETS) + 1),
                 "sum_seconds": 0.0, "count": 0},
            )
            slot = len(LATENCY_BUCKETS)
            for index, edge in enumerate(LATENCY_BUCKETS):
                if seconds <= edge:
                    slot = index
                    break
            histogram["counts"][slot] += 1
            histogram["sum_seconds"] += seconds
            histogram["count"] += 1

    def snapshot(self, queue_depth: int, running: int) -> Dict[str, Any]:
        """The ``GET /metrics`` body: counters plus live queue gauges.

        ``cache.hit_rate`` counts deduplicated joins as hits — neither cost
        a simulation — over all resolved submissions.
        """
        with self._lock:
            served = self._cache["hit"] + self._cache["deduplicated"]
            resolved = served + self._cache["miss"]
            return {
                "requests": dict(sorted(self._requests.items())),
                "responses": dict(sorted(self._responses.items())),
                "queue": {"depth": queue_depth, "running": running},
                "cache": {
                    **self._cache,
                    "hit_rate": round(served / resolved, 6) if resolved else None,
                },
                "latency_seconds": {
                    spec: dict(histogram) for spec, histogram in sorted(self._latency.items())
                },
            }


def artifact_payload(artifact: RunArtifact) -> Dict[str, Any]:
    """The JSON body serving one run artifact (report dict + rendered text).

    ``rendered`` is the exact ``report.render()`` text — byte-identical
    between a computed run and a later cache hit, which is what the CI
    service gate asserts.
    """
    return {
        "spec_id": artifact.spec_id,
        "fingerprint": artifact.fingerprint,
        "version": artifact.version,
        "wall_time_seconds": artifact.wall_time_seconds,
        "parameters": artifact.parameters,
        "execution": artifact.execution,
        "report": artifact.report.to_dict(),
        "rendered": artifact.report.render(),
    }


class ExperimentService:
    """All service behaviour behind the HTTP layer (socket-free, testable).

    Owns the :class:`~repro.store.RunStore`, the
    :class:`~repro.service.jobs.JobQueue` and the
    :class:`ServiceMetrics`; every handler method returns ``(status_code,
    body_dict)`` and never raises for client errors — those are mapped to
    4xx bodies here, in one place.
    """

    def __init__(
        self,
        store_root: Union[str, Path],
        *,
        workers: int = 2,
        run: Optional[Callable[..., RunArtifact]] = None,
        max_queued: Optional[int] = None,
        journal: bool = True,
    ):
        """Wire store, journal, queue and metrics together, then recover.

        With ``journal=True`` (the default) a
        :class:`~repro.service.journal.JobJournal` is attached at the store
        root and its pending entries are replayed **before** the service
        accepts traffic — jobs a crashed predecessor left queued or
        running re-enter the queue (or resolve as store hits) under their
        original ids.  ``max_queued`` bounds the waiting queue; beyond it
        submissions are shed with ``429``.
        """
        self.store = RunStore(store_root)
        self.metrics = ServiceMetrics()
        self._degraded_lock = threading.Lock()
        self.degraded_reason: Optional[str] = None
        self.journal = JobJournal(self.store.root, on_error=self._degrade) if journal else None
        self.queue = JobQueue(
            store_root,
            workers=workers,
            run=run,
            on_finish=self._record_finished_job,
            journal=self.journal,
            max_queued=max_queued,
        )
        self.recovery = self.queue.recover(self.store)
        if self.journal is not None and self.recovery.total:
            # Compact the replayed history; a terminal line lost to the
            # (benign) rewrite race merely replays as a store hit next time.
            self.journal.checkpoint()
        self.started_at = time.time()

    def close(self, *, drain: bool = False) -> None:
        """Shut the job queue down (blocks until workers drain).

        ``drain=True`` is the SIGTERM contract: running jobs finish and
        persist, still-queued jobs are left journaled for the successor
        process instead of being started against a shutdown deadline.  The
        journal is checkpointed either way so the next startup replays a
        compact file.
        """
        self.queue.close(finish_queued=not drain)
        if self.journal is not None:
            self.journal.checkpoint()

    # ----------------------------------------------------------- resources

    def submit_run(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/runs``: immediate hit (200), new job or join (202).

        The request body must be ``{"experiment": <id>, "params": {...},
        "execution": {...}}`` (both mappings optional).  Everything is
        validated *here*, at submission time — unknown experiment (404),
        unknown parameter or execution option (400) — so a job can only
        fail inside a worker for genuine execution reasons.
        """
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}
        spec_id = payload.get("experiment")
        if not isinstance(spec_id, str) or not spec_id:
            return 400, {"error": "request body needs an 'experiment' id (e.g. \"E1\")"}
        if spec_id not in experiment_ids():
            return 404, {
                "error": f"unknown experiment {spec_id!r}",
                "experiments": list(experiment_ids()),
            }
        params = payload.get("params") or {}
        execution = payload.get("execution") or {}
        if not isinstance(params, dict):
            return 400, {"error": "'params' must be a JSON object of parameter overrides"}
        if not isinstance(execution, dict):
            return 400, {"error": "'execution' must be a JSON object of execution options"}
        overrides = {key: revive_literals(value) for key, value in params.items()}
        try:
            config = ExecutionConfig.for_service(self.store.root, execution)
            resolved = resolve_run_inputs(spec_id, config=config, **overrides)
        except ExperimentError as error:
            return 400, {"error": str(error)}

        if self.store.contains(resolved.fingerprint):
            try:
                artifact = self.store.get(resolved.fingerprint)
            except ExperimentError as error:  # corrupt artifact: surface, don't mask
                return 500, {"error": str(error)}
            artifact.execution["cache"] = "hit"
            self.metrics.observe_cache("hit")
            self.metrics.observe_latency(spec_id, 0.0)
            return 200, {
                "status": JobState.DONE,
                "cache": "hit",
                "fingerprint": resolved.fingerprint,
                "job_id": None,
                "result": artifact_payload(artifact),
            }

        try:
            job, created = self.queue.submit(
                spec_id,
                resolved.fingerprint,
                resolved.parameters,
                config=config,
                overrides=overrides,
                raw_params=params,
                raw_execution=execution,
            )
        except QueueSaturated as error:
            self.metrics.observe_cache("shed")
            return 429, {
                "error": str(error),
                "retry_after": error.retry_after,
                "queue_depth": error.depth,
                "max_queued": error.max_queued,
            }
        if not created:
            self.metrics.observe_cache("deduplicated")
        body = job.manifest()
        body["status"] = body.pop("state")
        body["deduplicated"] = not created
        return 202, body

    def job_status(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/runs/<id>``: the job manifest (+ result when done)."""
        job = self.queue.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job id {job_id!r}"}
        body = self.queue.manifest(job_id)
        body["status"] = body.pop("state")
        if job.state == JobState.DONE and job.artifact is not None:
            body["result"] = artifact_payload(job.artifact)
        return 200, body

    def cancel_job(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        """``DELETE /v1/runs/<id>``: cancel a queued job (409 otherwise)."""
        try:
            cancelled = self.queue.cancel(job_id)
        except ExperimentError as error:
            return 404, {"error": str(error)}
        if not cancelled:
            state = self.queue.get(job_id).state
            return 409, {
                "error": f"job {job_id} is {state}; only queued jobs can be cancelled",
                "status": state,
            }
        return 200, {"job_id": job_id, "status": JobState.CANCELLED}

    def list_jobs(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/runs``: every tracked job's manifest, oldest first."""
        return 200, {"jobs": self.queue.jobs()}

    def list_experiments(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/experiments``: the registry with its parameters."""
        experiments: List[Dict[str, Any]] = []
        for spec in iter_specs():
            experiments.append(
                {
                    "id": spec.experiment_id,
                    "title": spec.title,
                    "claim": spec.claim,
                    "parameters": [
                        {
                            "name": parameter.name,
                            "default": parameter.default,
                            "description": parameter.description,
                        }
                        for parameter in spec.parameters
                    ],
                }
            )
        return 200, {"experiments": experiments}

    def store_lookup(self, prefix: str) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/store/<prefix>``: artifact by fingerprint prefix.

        404 when nothing matches; 409 when the prefix is ambiguous, with
        the store's match-listing error text so the caller can extend the
        prefix without guessing.
        """
        try:
            fingerprint = self.store.resolve_prefix(prefix)
        except ExperimentError as error:
            status = 409 if "ambiguous" in str(error) else 404
            return status, {"error": str(error)}
        try:
            artifact = self.store.get(fingerprint)
        except ExperimentError as error:
            return 500, {"error": str(error)}
        return 200, {"fingerprint": fingerprint, "result": artifact_payload(artifact)}

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /healthz``: liveness, queue gauges, degraded + recovery state.

        Degraded mode answers ``200`` with ``"status": "degraded"`` and the
        reason — the process is alive and computing; only durability is
        impaired.  A 5xx here would make monitors restart a service that is
        still doing useful work.
        """
        degraded = self.degraded_reason
        body = {
            "status": "ok" if degraded is None else "degraded",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "queue_depth": self.queue.depth(),
            "running": self.queue.running(),
            "workers": self.queue.workers,
            "store": str(self.store.root),
            "journal": self.journal is not None and self.journal.disabled_reason is None,
            "recovery": self.recovery.summary(),
        }
        if degraded is not None:
            body["degraded_reason"] = degraded
        return 200, body

    def metrics_payload(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /metrics``: the counters snapshot plus service status."""
        body = self.metrics.snapshot(self.queue.depth(), self.queue.running())
        degraded = self.degraded_reason
        body["service"] = {
            "status": "ok" if degraded is None else "degraded",
            "degraded_reason": degraded,
            "recovery": self.recovery.summary(),
        }
        return 200, body

    # ------------------------------------------------------------ internals

    def _degrade(self, reason: str) -> None:
        """Flip to degraded compute-only mode (first reason wins, sticky)."""
        with self._degraded_lock:
            if self.degraded_reason is None:
                self.degraded_reason = reason

    def _record_finished_job(self, job: Any) -> None:
        """Queue finish callback: fold job outcomes into the metrics.

        Also where store-write failures surface: a job that computed but
        could not persist carries ``execution["store_error"]`` (see
        :func:`repro.api.run._put_or_degrade`), which flips the service
        degraded.
        """
        if job.state == JobState.DONE:
            self.metrics.observe_cache(job.cache if job.cache in ("hit", "miss") else "miss")
            if job.finished_at is not None:
                self.metrics.observe_latency(job.spec_id, job.finished_at - job.submitted_at)
            if job.artifact is not None:
                store_error = job.artifact.execution.get("store_error")
                if store_error:
                    self._degrade(str(store_error))
        elif job.state == JobState.FAILED:
            self.metrics.observe_cache("failed")


#: Routes: (method, compiled path pattern) -> service method name + groups.
_ROUTES: Tuple[Tuple[str, "re.Pattern[str]", str], ...] = (
    ("POST", re.compile(r"^/v1/runs/?$"), "submit_run"),
    ("GET", re.compile(r"^/v1/runs/?$"), "list_jobs"),
    ("GET", re.compile(r"^/v1/runs/(?P<job_id>[A-Za-z0-9._-]+)$"), "job_status"),
    ("DELETE", re.compile(r"^/v1/runs/(?P<job_id>[A-Za-z0-9._-]+)$"), "cancel_job"),
    ("GET", re.compile(r"^/v1/experiments/?$"), "list_experiments"),
    ("GET", re.compile(r"^/v1/store/(?P<prefix>[0-9a-f]+)$"), "store_lookup"),
    ("GET", re.compile(r"^/healthz$"), "health"),
    ("GET", re.compile(r"^/metrics$"), "metrics_payload"),
)


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP adapter: route, parse JSON, delegate to the service."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server naming convention
        """Dispatch GET requests through the route table."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        """Dispatch POST requests through the route table."""
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        """Dispatch DELETE requests through the route table."""
        self._dispatch("DELETE")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Access logging, only when the server was created verbose."""
        if getattr(self.server, "verbose", False):  # pragma: no cover - log formatting
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _dispatch(self, method: str) -> None:
        """Match the route table, call the service, write the JSON reply."""
        service: ExperimentService = self.server.service  # type: ignore[attr-defined]
        path = urlparse(self.path).path
        route_label = path
        try:
            for route_method, pattern, handler_name in _ROUTES:
                if route_method != method:
                    continue
                match = pattern.match(path)
                if match is None:
                    continue
                route_label = f"{method} {pattern.pattern}"
                handler = getattr(service, handler_name)
                if handler_name == "submit_run":
                    body, parse_error = self._read_json_body()
                    if parse_error is not None:
                        status, reply = 400, {"error": parse_error}
                    else:
                        status, reply = handler(body)
                else:
                    status, reply = handler(**match.groupdict())
                break
            else:
                status, reply = 404, {"error": f"no such resource: {method} {path}"}
        except Exception as error:  # pragma: no cover - last-resort 500
            status, reply = 500, {"error": f"{type(error).__name__}: {error}"}
        service.metrics.observe_request(route_label, status)
        self._write_json(status, reply)

    def _read_json_body(self) -> Tuple[Any, Optional[str]]:
        """Read and parse the request body; ``(None, message)`` on bad JSON."""
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            return None, "invalid Content-Length header"
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None, "request body must be a JSON object"
        try:
            return json.loads(raw.decode("utf-8")), None
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return None, f"request body is not valid JSON: {error}"

    def _write_json(self, status: int, body: Dict[str, Any]) -> None:
        """Serialise ``body`` (non-finite floats tagged) and send it.

        A shed (``429``) or unavailable (``503``) reply whose body carries
        ``retry_after`` also gets the standard ``Retry-After`` header
        (integer seconds, rounded up), so generic HTTP clients back off
        without parsing the JSON.
        """
        encoded = json.dumps(encode_nonfinite(body), allow_nan=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        if status in (429, 503) and isinstance(body, dict):
            retry_after = body.get("retry_after")
            if isinstance(retry_after, (int, float)) and retry_after > 0:
                self.send_header("Retry-After", str(int(math.ceil(retry_after))))
        self.end_headers()
        self.wfile.write(encoded)


def create_server(
    store_root: Union[str, Path],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    run: Optional[Callable[..., RunArtifact]] = None,
    verbose: bool = False,
    max_queued: Optional[int] = None,
    journal: bool = True,
) -> ThreadingHTTPServer:
    """Bind an experiment-service HTTP server (not yet serving).

    ``port=0`` binds an OS-assigned ephemeral port — read the actual one
    from ``server.server_address[1]``.  The returned server carries the
    :class:`ExperimentService` as ``server.service``; call
    ``serve_forever()`` to serve (typically from a thread in tests) and
    ``server.service.close()`` after ``shutdown()`` to drain the workers.
    Journal recovery runs inside the :class:`ExperimentService`
    constructor, i.e. before the first request can land.
    """
    server = ThreadingHTTPServer((host, port), _RequestHandler)
    server.daemon_threads = True
    server.service = ExperimentService(  # type: ignore[attr-defined]
        store_root, workers=workers, run=run, max_queued=max_queued, journal=journal
    )
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def serve(
    store_root: Union[str, Path],
    *,
    host: str = "127.0.0.1",
    port: int = 8000,
    workers: int = 2,
    verbose: bool = True,
    max_queued: Optional[int] = None,
    journal: bool = True,
) -> int:
    """Blocking entry point behind ``repro-flip serve``.

    Prints the bound endpoint (flushed, so a supervising process — e.g.
    the CI smoke gate — can scrape the ephemeral port), serves until
    interrupted, then drains the job queue.  SIGTERM (when installable,
    i.e. serving from the main thread) triggers the graceful drain:
    accepting stops, running jobs finish and persist, queued jobs stay
    journaled for the next process.  ``REPRO_CHAOS`` fault points are
    armed here so the chaos harness can torment a real subprocess.
    """
    chaos.install_from_env()
    server = create_server(
        store_root, host=host, port=port, workers=workers, verbose=verbose,
        max_queued=max_queued, journal=journal,
    )
    service: ExperimentService = server.service  # type: ignore[attr-defined]
    bound_host, bound_port = server.server_address[:2]
    recovered = service.recovery.summary()
    suffix = f", recovered: {recovered}" if service.recovery.total else ""
    print(f"repro experiment service listening on http://{bound_host}:{bound_port} "
          f"(store: {Path(store_root)}, workers: {max(1, int(workers))}{suffix})", flush=True)

    draining = threading.Event()

    def _drain(signum: int, frame: Any) -> None:  # pragma: no cover - signal path
        draining.set()
        # shutdown() blocks until serve_forever()'s loop exits, which
        # cannot happen while this handler occupies the main thread — so
        # trigger it from a helper thread and return immediately.
        threading.Thread(target=server.shutdown, name="repro-service-drain", daemon=True).start()

    try:
        previous = signal.signal(signal.SIGTERM, _drain)
    except ValueError:  # pragma: no cover - not on the main thread
        previous = None
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close(drain=draining.is_set())
        if previous is not None:  # pragma: no branch - restore for embedders
            signal.signal(signal.SIGTERM, previous)
    if draining.is_set():  # pragma: no cover - signal path
        print("repro experiment service drained: running jobs persisted, "
              "queued jobs left journaled for recovery", flush=True)
    return 0
