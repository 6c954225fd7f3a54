"""Canonical content fingerprints: one sha256 per semantically distinct run.

The cache-before-compute policy of :class:`repro.store.cache.RunStore` is
only sound because of the determinism contract (``docs/ARCHITECTURE.md``):
two runs with the same *semantic* inputs produce bit-identical reports, so
replaying a stored artifact is indistinguishable from recomputing it.  This
module defines exactly what "same semantic inputs" means:

* the experiment id (``"E1"``..``"E12"``),
* the code identity that would produce the run (:func:`code_version`: the
  ``repro`` package version, :data:`KERNEL_EPOCH` and numpy's
  major.minor, e.g. ``1.0.0+k2.np2.4``),
* the fully **resolved** parameters (spec defaults with every override
  applied — so a default left implicit and the same value passed explicitly
  hash identically),
* and, of the execution plan, only the ``batch`` flag.  The batch path draws
  its randomness from a batch-level stream instead of per-trial streams, so
  ``batch`` genuinely changes the numbers; ``trials`` and ``base_seed``
  overrides are folded into the resolved parameters by
  :func:`repro.api.run_experiment` before fingerprinting, so they are
  covered through the parameter payload.

Everything else on the plan — the ``backend`` and its options — is
**excluded by design**: the determinism contract proves results are
bit-identical across in-process and pooled execution, so a run computed on
one backend must be a cache hit for every other.  The worker-count and
runner keys older manifests carry in their execution summary were never
hashed either, so those artifacts still hit.

Canonicalisation removes spelling differences before hashing: dict keys are
sorted (insertion order never matters), tuples and numpy arrays become
lists, numpy scalars become their Python equivalents, and non-finite floats
are tagged with the same strict-JSON markers the artifact manifests use
(:func:`repro.store.serialization.encode_nonfinite`), so a ``NaN`` parameter
read back from a manifest re-hashes to the fingerprint it was stored under.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Optional

import numpy as np

from .serialization import encode_nonfinite

__all__ = [
    "KERNEL_EPOCH",
    "code_version",
    "canonical_json",
    "fingerprint_payload",
    "run_fingerprint",
    "FINGERPRINT_FIELDS",
    "EXCLUDED_PLAN_FIELDS",
]

#: Bumped whenever a change to the simulation code moves what a run with
#: the same inputs reports (a changed draw order, a different rule).  It is
#: part of :func:`code_version`, so every fingerprint moves with it and a
#: store never serves a report the current code would not reproduce.  The
#: digest-pin test files record the epoch their pins were taken at.
KERNEL_EPOCH = 3

#: The semantic inputs a run fingerprint covers, in payload order.
FINGERPRINT_FIELDS = ("spec_id", "version", "parameters", "execution.batch")

#: Plan fields deliberately excluded: the determinism contract proves them
#: result-irrelevant, so changing them must *not* change the fingerprint.
EXCLUDED_PLAN_FIELDS = ("backend", "store", "cache")


def code_version() -> str:
    """The code identity a run records and is fingerprinted under.

    ``<repro version>+k<KERNEL_EPOCH>.np<numpy major.minor>``: numpy's
    generators and reductions may change results between minor releases,
    and the kernel epoch moves whenever this package's own draws do.
    """
    from .. import __version__

    numpy_major_minor = ".".join(np.__version__.split(".")[:2])
    return f"{__version__}+k{KERNEL_EPOCH}.np{numpy_major_minor}"


def canonical_json(value: Any) -> str:
    """Serialise ``value`` to its one canonical strict-JSON spelling.

    Dict keys are stringified and sorted, tuples/numpy sequences become
    lists, numpy scalars become Python scalars, and non-finite floats are
    tagged via :func:`~repro.store.serialization.encode_nonfinite` — so any
    two spellings of the same semantic value serialise byte-identically.
    """
    return json.dumps(
        encode_nonfinite(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def fingerprint_payload(payload: Any) -> str:
    """The sha256 hex digest of ``payload``'s canonical JSON spelling."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def run_fingerprint(
    spec_id: str,
    version: str,
    parameters: Optional[Mapping[str, Any]] = None,
    *,
    batch: bool = False,
) -> str:
    """Fingerprint one run from its semantic inputs (see module docstring).

    ``parameters`` must be the *fully resolved* parameter mapping (defaults
    with overrides applied, ``trials``/``base_seed`` plan overrides already
    folded in), exactly as :func:`repro.api.run_experiment` records it in
    the artifact manifest — which is what lets
    :func:`repro.store.artifact.load_run` recompute and verify the
    fingerprint from the manifest alone.
    """
    payload: Dict[str, Any] = {
        "spec_id": str(spec_id),
        "version": str(version),
        "parameters": dict(parameters or {}),
        "execution": {"batch": bool(batch)},
    }
    return fingerprint_payload(payload)
