"""repro.store — persistence and the content-addressed run store.

This package is the persistence layer of the reproduction: strict-JSON
result files extended into a content-addressed, cache-before-compute run
store:

* :mod:`repro.store.serialization` — the strict-JSON codecs
  (:func:`to_jsonable`, :func:`encode_nonfinite` / :func:`decode_nonfinite`)
  and the atomic result/sweep writers
  (:func:`save_result`/:func:`load_result`,
  :func:`save_sweep`/:func:`load_sweep`);
* :mod:`repro.store.fingerprint` — :func:`run_fingerprint`, the canonical
  sha256 over a run's *semantic* inputs (spec id, code version, resolved
  parameters, the ``batch`` flag — explicitly not the execution backend,
  which the determinism contract proves result-irrelevant);
* :mod:`repro.store.artifact` — :class:`RunArtifact` plus the atomic
  :func:`save_run` / fingerprint-verifying :func:`load_run` pair;
* :mod:`repro.store.layout` / :mod:`repro.store.index` — the
  ``store_root/<fp[:2]>/<fp>/`` directory layout and the append-safe
  ``index.jsonl``;
* :mod:`repro.store.cache` — :class:`RunStore`, the get-or-run policy
  :func:`repro.api.run_experiment` consults (hit → load + verify, miss →
  compute + persist).

Typical use::

    from repro.store import RunStore

    store = RunStore("runs/store")
    artifact = store.get_or_run("E8", set_sizes=(50, 200))   # computes
    again = store.get_or_run("E8", set_sizes=(50, 200))      # cache hit
    assert again.execution["cache"] == "hit"
"""

from __future__ import annotations

from .artifact import RunArtifact, load_run, save_run
from .cache import RunStore, StoreWriteError
from .fingerprint import (
    EXCLUDED_PLAN_FIELDS,
    FINGERPRINT_FIELDS,
    canonical_json,
    fingerprint_payload,
    run_fingerprint,
)
from .index import append_entry, index_lock, read_entries
from .layout import artifact_dir, iter_artifact_dirs, validate_fingerprint
from .serialization import (
    decode_nonfinite,
    encode_nonfinite,
    load_result,
    load_sweep,
    save_result,
    save_sweep,
    to_jsonable,
)

__all__ = [
    "to_jsonable",
    "encode_nonfinite",
    "decode_nonfinite",
    "save_result",
    "load_result",
    "save_sweep",
    "load_sweep",
    "RunArtifact",
    "save_run",
    "load_run",
    "run_fingerprint",
    "fingerprint_payload",
    "canonical_json",
    "FINGERPRINT_FIELDS",
    "EXCLUDED_PLAN_FIELDS",
    "RunStore",
    "StoreWriteError",
    "artifact_dir",
    "iter_artifact_dirs",
    "validate_fingerprint",
    "append_entry",
    "index_lock",
    "read_entries",
]
