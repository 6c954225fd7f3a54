"""Run artifacts: one directory per experiment run, written atomically.

A :class:`RunArtifact` is what :func:`repro.api.run_experiment` returns —
the rendered report plus the fully resolved inputs and provenance.
:func:`save_run` persists it as a directory (``manifest.json``,
``report.json``, optional raw ``sweeps/``/``results/`` payloads) and
:func:`load_run` round-trips it, non-finite report cells included.

Two guarantees distinguish this layer from a plain directory dump:

* **Atomicity.**  ``save_run`` writes every payload into a hidden staging
  directory next to the destination and promotes it with ``os.replace`` —
  the manifest is written last, the promotion is a single rename, and an
  existing destination is swapped out whole.  A crashed or concurrent
  writer can therefore never leave a torn artifact for ``load_run`` or the
  cache layer to trip over: readers observe the old artifact, the new one,
  or (transiently, during a swap) none — never a mixture.
* **Self-verification.**  Every manifest records the run's content
  fingerprint (:func:`repro.store.fingerprint.run_fingerprint` over spec
  id, code version, resolved parameters and the semantic ``batch``
  flag).  ``load_run`` recomputes the fingerprint from the loaded contents
  and refuses — with a labelled :class:`~repro.errors.ExperimentError` — to
  return an artifact whose recorded and recomputed fingerprints disagree,
  so corrupted or hand-edited artifacts no longer load silently.

Attached sweeps additionally record their canonical per-point names
(:meth:`repro.analysis.sweeps.SweepResult.point_names`) in the manifest, so
duplicate grid points stay distinguishable without re-deriving labels.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from ..errors import ExperimentError
from .fingerprint import run_fingerprint
from .serialization import (
    decode_nonfinite,
    encode_nonfinite,
    load_result,
    load_sweep,
    read_json,
    save_result,
    save_sweep,
    write_json,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only upward references
    from ..analysis.experiments import ExperimentResult
    from ..analysis.sweeps import SweepResult
    from ..experiments.report import ExperimentReport

__all__ = ["RunArtifact", "save_run", "load_run"]

#: Current on-disk layout version of a run-artifact directory.  Version 2
#: added the mandatory ``fingerprint`` manifest field; version-1 artifacts
#: (which predate fingerprinting) still load, without verification.
_ARTIFACT_FORMAT = 2

#: The formats :func:`load_run` understands.
_SUPPORTED_FORMATS = (1, 2)

#: Attached sweep/result payload keys must be safe as file names.
_PAYLOAD_KEY = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass
class RunArtifact:
    """One experiment run: resolved inputs, rendered output, provenance.

    Produced by :func:`repro.api.run_experiment` and persisted/reloaded by
    :func:`save_run` / :func:`load_run`.

    Attributes
    ----------
    spec_id:
        The experiment id from the registry (e.g. ``"E7"``).
    parameters:
        The fully resolved parameter values of the run (spec defaults with
        every override applied).
    execution:
        The resolved execution plan summary
        (:meth:`repro.api.config.ExecutionPlan.describe`), plus — for runs
        that went through a :class:`~repro.store.cache.RunStore` — a
        ``"cache"`` key recording ``"hit"``, ``"miss"`` or ``"bypass"``.
    report:
        The driver's :class:`~repro.experiments.report.ExperimentReport`.
    version:
        The code version that produced the run
        (:func:`repro.store.fingerprint.code_version`).
    wall_time_seconds:
        Wall-clock duration of the driver call.
    sweeps / results:
        Optional attached raw payloads, keyed by a file-name-safe label;
        written via the sweep/result writers.
    fingerprint:
        The canonical content fingerprint of the run's semantic inputs
        (computed on demand by :meth:`compute_fingerprint` when unset).
    path:
        The directory the artifact was saved to / loaded from (``None``
        while in memory only).
    """

    spec_id: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    execution: Dict[str, Any] = field(default_factory=dict)
    report: Optional["ExperimentReport"] = None
    version: str = ""
    wall_time_seconds: float = 0.0
    sweeps: Dict[str, "SweepResult"] = field(default_factory=dict)
    results: Dict[str, "ExperimentResult"] = field(default_factory=dict)
    fingerprint: Optional[str] = None
    path: Optional[Path] = None

    def attach_sweep(self, key: str, sweep: "SweepResult") -> None:
        """Attach a raw sweep payload under a file-name-safe key."""
        _validate_payload_key(key)
        self.sweeps[key] = sweep

    def compute_fingerprint(self) -> str:
        """Recompute the content fingerprint from this artifact's fields.

        Hashes exactly the semantic inputs the fingerprint contract names:
        spec id, code version, resolved parameters and the execution
        summary's ``batch`` flag — never the backend or cache state.
        ``save_run`` records this in the manifest and ``load_run`` verifies
        it, so the two must (and do) derive from the same fields.
        """
        return run_fingerprint(
            self.spec_id,
            self.version,
            self.parameters,
            batch=bool(self.execution.get("batch", False)),
        )


def _validate_payload_key(key: str) -> None:
    """Payload keys double as file stems; reject anything path-unsafe."""
    if not _PAYLOAD_KEY.match(key):
        raise ExperimentError(
            f"artifact payload key {key!r} is not a safe file stem "
            "(letters, digits, '.', '_', '-' only)"
        )


def _payload_path(source: Path, section: str, key: str, entry: Dict[str, Any]) -> Path:
    """Resolve one manifest payload entry to a path *inside* the artifact.

    Paths are re-derived from the validated key rather than trusted from the
    manifest, so a hand-edited ``file`` field (absolute, or ``..``-relative)
    cannot make the loader read outside the artifact directory.
    """
    _validate_payload_key(key)
    expected = f"{section}/{key}.json"
    recorded = entry.get("file", expected)
    if recorded != expected:
        raise ExperimentError(
            f"run artifact manifest entry {key!r} records file {recorded!r}, "
            f"outside the artifact layout (expected {expected!r})"
        )
    return source / section / f"{key}.json"


def _write_payloads(artifact: RunArtifact, destination: Path) -> None:
    """Write every artifact payload into ``destination`` (manifest last).

    The manifest is the file ``load_run`` keys off, so writing it only after
    every payload it lists exists means a directory with a manifest is
    always complete — the property the staging/promotion dance in
    :func:`save_run` and the ``gc`` sweep both rely on.
    """
    # Row/column order is part of a rendered table; keep insertion order.
    write_json(
        encode_nonfinite(artifact.report.to_dict()), destination / "report.json", sort_keys=False
    )

    sweep_entries: Dict[str, Any] = {}
    for key, sweep in sorted(artifact.sweeps.items()):
        _validate_payload_key(key)
        save_sweep(sweep, destination / "sweeps" / f"{key}.json")
        sweep_entries[key] = {
            "file": f"sweeps/{key}.json",
            "name": sweep.name,
            "point_names": sweep.point_names(),
        }
    result_entries: Dict[str, Any] = {}
    for key, result in sorted(artifact.results.items()):
        _validate_payload_key(key)
        save_result(result, destination / "results" / f"{key}.json")
        result_entries[key] = {"file": f"results/{key}.json", "name": result.name}

    manifest = {
        "format": _ARTIFACT_FORMAT,
        "spec_id": artifact.spec_id,
        "fingerprint": artifact.fingerprint,
        "parameters": artifact.parameters,
        "execution": artifact.execution,
        "version": artifact.version,
        "wall_time_seconds": artifact.wall_time_seconds,
        "files": {"report": "report.json", "sweeps": sweep_entries, "results": result_entries},
    }
    write_json(encode_nonfinite(manifest), destination / "manifest.json")


def _promote(staging: Path, destination: Path) -> None:
    """Atomically move a fully-written staging directory into place.

    A fresh destination is one ``os.replace``.  An existing destination is
    swapped out whole first (renamed aside, then the staging directory
    renamed in, then the old version deleted) — each step is a single
    rename, so readers only ever see a complete artifact.
    """
    try:
        os.replace(staging, destination)
        return
    except OSError:
        # Destination already exists (non-empty): swap it out whole.
        pass
    graveyard = destination.parent / f"{staging.name}.old"
    os.replace(destination, graveyard)
    try:
        os.replace(staging, destination)
    except BaseException:
        os.replace(graveyard, destination)  # restore the previous artifact
        raise
    shutil.rmtree(graveyard, ignore_errors=True)


def save_run(artifact: RunArtifact, directory: Union[str, Path]) -> Path:
    """Write a :class:`RunArtifact` to ``directory`` and return the directory.

    Layout: ``manifest.json`` (provenance + fingerprint + file listing),
    ``report.json`` (the rendered-table payload, non-finite floats preserved
    via :func:`~repro.store.serialization.encode_nonfinite`),
    ``sweeps/<key>.json`` and ``results/<key>.json`` for the attached raw
    payloads.  The write is atomic: payloads land in a hidden staging
    directory sibling to ``directory`` and are promoted with ``os.replace``,
    so an interrupted save leaves the destination untouched (at most a
    ``.``-prefixed staging directory remains, which ``RunStore.gc`` sweeps).

    Fills in :attr:`RunArtifact.fingerprint` (via
    :meth:`RunArtifact.compute_fingerprint`) when the caller has not.
    """
    if artifact.report is None:
        raise ExperimentError("cannot save a run artifact without a report")
    if artifact.fingerprint is None:
        artifact.fingerprint = artifact.compute_fingerprint()
    destination = Path(directory)
    destination.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(
        tempfile.mkdtemp(prefix=f".{destination.name}.", suffix=".tmp", dir=str(destination.parent))
    )
    try:
        _write_payloads(artifact, staging)
        _promote(staging, destination)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    artifact.path = destination
    return destination


def load_run(directory: Union[str, Path]) -> RunArtifact:
    """Read a :class:`RunArtifact` previously written by :func:`save_run`.

    Round-trips everything the writer recorded — including non-finite report
    cells — re-derives each attached sweep's canonical point names, and
    recomputes the content fingerprint from the loaded manifest, raising a
    labelled :class:`~repro.errors.ExperimentError` when either disagrees
    with what the manifest records (a corrupted or hand-edited artifact).
    """
    # Imported late: the report type lives in repro.experiments, which
    # imports the api/analysis layers that re-export this store.
    from ..experiments.report import ExperimentReport

    source = Path(directory)
    manifest = decode_nonfinite(read_json(source / "manifest.json", "run manifest"))
    manifest_format = manifest.get("format")
    if manifest_format not in _SUPPORTED_FORMATS:
        raise ExperimentError(
            f"unsupported run-artifact format {manifest_format!r} at {source} "
            f"(supported: {', '.join(str(f) for f in _SUPPORTED_FORMATS)})"
        )
    recorded_fingerprint = manifest.get("fingerprint")
    if manifest_format >= 2 and not recorded_fingerprint:
        raise ExperimentError(
            f"run-artifact manifest at {source} records no fingerprint "
            "(required from format 2 on; a corrupted or hand-edited artifact)"
        )
    files = manifest.get("files", {})

    report_payload = decode_nonfinite(
        read_json(source / files.get("report", "report.json"), "run report")
    )
    report = ExperimentReport.from_dict(report_payload)

    sweeps: Dict[str, "SweepResult"] = {}
    for key, entry in files.get("sweeps", {}).items():
        sweep = load_sweep(_payload_path(source, "sweeps", key, entry))
        if entry.get("point_names") is not None and sweep.point_names() != list(
            entry["point_names"]
        ):
            raise ExperimentError(
                f"run artifact at {source} records point names {entry['point_names']!r} "
                f"for sweep {key!r} but the payload derives {sweep.point_names()!r}"
            )
        sweeps[key] = sweep
    results = {
        key: load_result(_payload_path(source, "results", key, entry))
        for key, entry in files.get("results", {}).items()
    }

    artifact = RunArtifact(
        spec_id=str(manifest["spec_id"]),
        parameters=dict(manifest.get("parameters", {})),
        execution=dict(manifest.get("execution", {})),
        report=report,
        version=str(manifest.get("version", "")),
        wall_time_seconds=float(manifest.get("wall_time_seconds", 0.0)),
        sweeps=sweeps,
        results=results,
        fingerprint=recorded_fingerprint,
        path=source,
    )
    if recorded_fingerprint is not None:
        derived = artifact.compute_fingerprint()
        if derived != recorded_fingerprint:
            raise ExperimentError(
                f"run-artifact fingerprint mismatch at {source}: the manifest records "
                f"{recorded_fingerprint} but its contents hash to {derived} "
                "(a corrupted or hand-edited artifact)"
            )
    return artifact
