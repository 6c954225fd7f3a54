"""The cache-before-compute policy: :class:`RunStore` memoizes experiment runs.

A :class:`RunStore` wraps a content-addressed store root (see
:mod:`repro.store.layout`) with the serving-path policy ROADMAP item 1
needs: identical requests must become cache hits, not recomputes.  The
lookup key is the run fingerprint (:mod:`repro.store.fingerprint`), which
covers exactly the semantic inputs — spec id, code version, resolved
parameters, the ``batch`` flag — and deliberately excludes the execution
``backend``: the determinism contract proves results bit-identical across
backends, so a run computed in-process is a valid hit for a pooled request
and vice versa.

The policy, as implemented by :meth:`RunStore.get_or_run` (a thin wrapper
arranging for :func:`repro.api.run_experiment` to consult this store):

* **hit** — the fingerprint's artifact directory exists: load it, verify
  the recorded fingerprint (corrupt artifacts raise, they are never served),
  mark ``execution["cache"] = "hit"`` on the returned artifact;
* **miss** — compute through the normal driver path, persist the artifact
  under its fingerprint (atomically), record ``"miss"`` in its manifest;
* **bypass** — caching disabled (``cache=False`` / ``--no-cache``): skip
  the lookup but still persist, refreshing whatever was stored.

Maintenance operations back the ``repro-flip store`` CLI subcommand:
:meth:`entries` (``ls``), :meth:`verify` and :meth:`gc` (sweep stale
staging directories and corrupt artifacts, then rebuild the index).
"""

from __future__ import annotations

import shutil
import threading
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ExperimentError
from ..testing import chaos
from .artifact import RunArtifact, load_run, save_run
from .index import append_entry, read_entries, rebuild
from .layout import (
    STALE_GRACE_SECONDS,
    artifact_dir,
    iter_artifact_dirs,
    iter_stale_dirs,
    relative_artifact_path,
    validate_fingerprint,
)

__all__ = ["StoreWriteError", "RunStore"]


class StoreWriteError(ExperimentError):
    """Persisting an artifact failed for *environmental* reasons.

    The store's failure taxonomy distinguishes two kinds of trouble: a
    **corrupt artifact** (fingerprint mismatch, unreadable payload — a data
    problem, raised as a plain :class:`~repro.errors.ExperimentError` by
    :meth:`RunStore.get`/:meth:`RunStore.verify`) and a **failed write**
    (disk full, read-only filesystem, permissions — an environment problem,
    raised as this subclass by :meth:`RunStore.put`).  The distinction is
    what lets :func:`repro.api.run_experiment` degrade gracefully: a
    computed result is still perfectly good when only its persistence
    failed, so write failures are recorded on the artifact instead of
    destroying the run, and the experiment service flips into a degraded
    compute-only mode rather than answering 500.
    """

    def __init__(self, root: Path, cause: BaseException):
        """Label the failed store and keep the driving ``cause``."""
        super().__init__(
            f"failed to persist run artifact into store {root}: "
            f"{type(cause).__name__}: {cause}"
        )
        self.root = root
        self.cause = cause

#: Process-wide per-``(store root, fingerprint)`` compute locks.  Keyed by
#: the *resolved* root so two ``RunStore`` objects wrapping the same
#: directory share locks; guarded by one registry mutex.  Entries are tiny
#: ``threading.Lock`` objects and are kept for the process lifetime — the
#: population is bounded by the number of distinct fingerprints computed.
_COMPUTE_LOCKS: Dict[Tuple[str, str], threading.Lock] = {}
_COMPUTE_LOCKS_GUARD = threading.Lock()


class RunStore:
    """A content-addressed store of run artifacts with get-or-run semantics.

    ``RunStore(root)`` neither creates nor touches ``root`` until something
    is stored; all methods take and return full fingerprints (the CLI layer
    resolves prefixes via :meth:`resolve_prefix`).
    """

    def __init__(self, root: Union[str, Path]):
        """Wrap ``root`` (created lazily on first :meth:`put`)."""
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ExperimentError(f"store path {self.root} exists but is not a directory")

    def artifact_dir(self, fingerprint: str) -> Path:
        """The (possibly not yet existing) directory for ``fingerprint``."""
        return artifact_dir(self.root, fingerprint)

    def contains(self, fingerprint: str) -> bool:
        """Whether a complete artifact is stored under ``fingerprint``."""
        return (self.artifact_dir(fingerprint) / "manifest.json").exists()

    def get(self, fingerprint: str) -> Optional[RunArtifact]:
        """Load the artifact stored under ``fingerprint``, or ``None`` on a miss.

        A *corrupt* stored artifact (unreadable payloads, fingerprint
        mismatch, artifact filed under the wrong address) raises a labelled
        :class:`~repro.errors.ExperimentError` rather than masquerading as
        a miss — serving silently-recomputed results for a corrupted store
        would hide the corruption.  ``repro-flip store gc`` sweeps it.
        """
        validate_fingerprint(fingerprint)
        if not self.contains(fingerprint):
            return None
        try:
            artifact = load_run(self.artifact_dir(fingerprint))
        except ExperimentError as error:
            raise ExperimentError(
                f"stored run {fingerprint} failed verification: {error} "
                f"(sweep it with: repro-flip store gc --store {self.root})"
            ) from error
        if artifact.fingerprint is not None and artifact.fingerprint != fingerprint:
            raise ExperimentError(
                f"store layout corruption: the artifact under {fingerprint} carries "
                f"fingerprint {artifact.fingerprint} "
                f"(sweep it with: repro-flip store gc --store {self.root})"
            )
        return artifact

    def put(self, artifact: RunArtifact) -> Path:
        """Persist ``artifact`` under its fingerprint and index it.

        Computes the fingerprint if the artifact does not carry one yet.
        The write is atomic (see :func:`repro.store.artifact.save_run`), and
        re-putting the same fingerprint simply replaces the stored version.

        Environmental write failures — disk full, read-only filesystem,
        permissions — are raised as :class:`StoreWriteError` so callers can
        tell "the disk is unhappy" (degrade, retry later) from "the data is
        bad" (a plain :class:`~repro.errors.ExperimentError`).  The
        ``store.put`` chaos point (:mod:`repro.testing.chaos`) fires first,
        so recovery tests can stage exactly these failures.
        """
        if artifact.fingerprint is None:
            artifact.fingerprint = artifact.compute_fingerprint()
        try:
            chaos.fire("store.put", fingerprint=artifact.fingerprint, store=str(self.root))
            destination = save_run(artifact, self.artifact_dir(artifact.fingerprint))
            append_entry(
                self.root,
                {
                    "fingerprint": artifact.fingerprint,
                    "spec_id": artifact.spec_id,
                    "version": artifact.version,
                    "path": relative_artifact_path(artifact.fingerprint),
                    "wall_time_seconds": artifact.wall_time_seconds,
                },
            )
        except OSError as error:
            raise StoreWriteError(self.root, error) from error
        return destination

    def compute_lock(self, fingerprint: str) -> threading.Lock:
        """The process-wide compute lock for one fingerprint of this store.

        :func:`repro.api.run_experiment` wraps its miss path in this lock
        and re-checks the store after acquiring it (the classic
        double-checked pattern), so two simultaneous identical submissions
        — e.g. the same request arriving twice at the experiment service —
        run the simulation exactly once: the second submitter blocks on the
        first's lock, then finds the freshly persisted artifact and serves
        it as a hit.  Distinct fingerprints never contend.
        """
        key = (str(self.root.resolve()), validate_fingerprint(fingerprint))
        with _COMPUTE_LOCKS_GUARD:
            lock = _COMPUTE_LOCKS.get(key)
            if lock is None:
                lock = _COMPUTE_LOCKS[key] = threading.Lock()
        return lock

    def get_or_run(self, spec_or_id: Any, *, config: Any = None, **overrides: Any) -> RunArtifact:
        """Run an experiment through this store: cache hit, or compute + persist.

        A thin wrapper over :func:`repro.api.run_experiment` that installs
        this store on the :class:`~repro.api.config.ExecutionConfig` — the
        lookup itself happens inside ``run_experiment`` (before any
        execution backend is created), so the CLI's ``--store`` flag and
        this method share one code path and one policy.
        """
        # Imported lazily: repro.api sits above this store layer.
        from ..api.config import ExecutionConfig
        from ..api.run import run_experiment

        if config is None:
            config = ExecutionConfig()
        if not isinstance(config, ExecutionConfig):
            raise ExperimentError(
                "RunStore.get_or_run needs an ExecutionConfig (an already-resolved "
                f"ExecutionPlan carries its own store), got {type(config).__name__}"
            )
        if config.store_path is not None and Path(config.store_path) != self.root:
            raise ExperimentError(
                f"the ExecutionConfig names store {config.store_path} but get_or_run "
                f"was called on the store at {self.root}; pass one store"
            )
        return run_experiment(spec_or_id, config=replace(config, store_path=self.root), **overrides)

    def entries(self) -> List[Dict[str, Any]]:
        """One listing entry per stored artifact, index metadata attached.

        The layout scan is the source of truth (an artifact is listed iff
        its directory exists); the append-safe index contributes the cheap
        metadata (spec id, version, wall time).  Artifacts the index has no
        line for — e.g. after a torn index tail was skipped — are flagged
        ``"indexed": False`` so ``gc`` (which rebuilds the index) can be
        suggested.
        """
        indexed = read_entries(self.root)
        listing: List[Dict[str, Any]] = []
        for fingerprint, _ in iter_artifact_dirs(self.root):
            entry = dict(indexed.get(fingerprint, {}))
            entry["fingerprint"] = fingerprint
            entry["path"] = relative_artifact_path(fingerprint)
            entry["indexed"] = fingerprint in indexed
            listing.append(entry)
        return listing

    def resolve_prefix(self, prefix: str) -> str:
        """Resolve a unique fingerprint prefix against the stored artifacts.

        An ambiguous prefix raises an :class:`~repro.errors.ExperimentError`
        that *lists* the matching fingerprints (truncated, at most eight) —
        the service surfaces this message in its ``409`` responses, so a
        caller can immediately re-request with a longer prefix instead of
        guessing.
        """
        if not prefix:
            raise ExperimentError("empty fingerprint prefix")
        matches = [
            fingerprint
            for fingerprint, _ in iter_artifact_dirs(self.root)
            if fingerprint.startswith(prefix)
        ]
        if not matches:
            raise ExperimentError(f"no stored run matches fingerprint prefix {prefix!r}")
        if len(matches) > 1:
            shown = [candidate[: max(len(prefix) + 6, 12)] for candidate in sorted(matches)[:8]]
            if len(matches) > len(shown):
                shown.append("...")
            raise ExperimentError(
                f"fingerprint prefix {prefix!r} is ambiguous ({len(matches)} matches: "
                f"{', '.join(shown)}); extend the prefix to pick one"
            )
        return matches[0]

    def verify(self, fingerprint: Optional[str] = None) -> List[Dict[str, Any]]:
        """Verify one stored artifact (or all): load + fingerprint recompute.

        Returns one ``{"fingerprint", "ok", "error"}`` record per artifact
        checked; never raises for a corrupt artifact (the point is the
        report).  *Any* failure loading an artifact quarantines it as
        ``ok=False`` — not only the labelled
        :class:`~repro.errors.ExperimentError` cases but also arbitrary
        decode crashes from hand-mangled payloads (a report body of the
        wrong shape raises ``KeyError``/``TypeError`` deep in the
        deserialisers); a corrupt artifact must never be able to crash the
        sweep that exists to find it.
        """
        if fingerprint is not None:
            targets = [(validate_fingerprint(fingerprint), self.artifact_dir(fingerprint))]
        else:
            targets = list(iter_artifact_dirs(self.root))
        report: List[Dict[str, Any]] = []
        for candidate, directory in targets:
            try:
                artifact = load_run(directory)
                if artifact.fingerprint != candidate:
                    raise ExperimentError(
                        f"artifact carries fingerprint {artifact.fingerprint}, "
                        f"filed under {candidate}"
                    )
                report.append({"fingerprint": candidate, "ok": True, "error": None})
            except Exception as error:  # quarantine, never crash the sweep
                report.append(
                    {
                        "fingerprint": candidate,
                        "ok": False,
                        "error": f"{type(error).__name__}: {error}",
                    }
                )
        return report

    def gc(self, *, stale_grace_seconds: float = STALE_GRACE_SECONDS) -> Dict[str, Any]:
        """Sweep the store: stale staging dirs, corrupt artifacts, the index.

        Removes leftover ``.``-prefixed staging/graveyard directories from
        interrupted saves, removes artifacts that fail :meth:`verify`, then
        rebuilds ``index.jsonl`` from the surviving artifacts.  Returns a
        summary of what was removed and kept.

        ``stale_grace_seconds`` protects saves racing the sweep: a staging
        directory younger than the grace (default one hour) is an in-flight
        :func:`~repro.store.artifact.save_run`, and sweeping it would make
        that writer's atomic promotion fail — pass ``0`` only when no
        writer can be live.
        """
        removed_stale = []
        for stale in iter_stale_dirs(self.root, grace_seconds=stale_grace_seconds):
            shutil.rmtree(stale, ignore_errors=True)
            removed_stale.append(str(stale.relative_to(self.root)))

        removed_corrupt = []
        kept_entries: List[Dict[str, Any]] = []
        indexed = read_entries(self.root)
        for fingerprint, directory in list(iter_artifact_dirs(self.root)):
            outcome = self.verify(fingerprint)[0]
            if outcome["ok"]:
                entry = dict(indexed.get(fingerprint, {}))
                entry.setdefault("fingerprint", fingerprint)
                entry["path"] = relative_artifact_path(fingerprint)
                if not entry.get("spec_id"):
                    # Backfill metadata for artifacts the index never saw.
                    artifact = load_run(directory)
                    entry["spec_id"] = artifact.spec_id
                    entry["version"] = artifact.version
                    entry["wall_time_seconds"] = artifact.wall_time_seconds
                kept_entries.append(entry)
            else:
                shutil.rmtree(directory, ignore_errors=True)
                removed_corrupt.append(fingerprint)
        if self.root.is_dir():
            rebuild(self.root, kept_entries)
        return {
            "removed_stale": removed_stale,
            "removed_corrupt": removed_corrupt,
            "kept": len(kept_entries),
        }
