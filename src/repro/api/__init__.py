"""repro.api — the unified experiment front door.

This package is the declarative entry point to the reproduction's
experiments (the E1–E11 table in ``README.md``):

* :mod:`repro.api.spec` — the :class:`ExperimentSpec` registry: id, title,
  paper claim and declared parameters with defaults, replacing signature
  introspection everywhere;
* :mod:`repro.api.config` — the frozen :class:`ExecutionConfig` (batch,
  backend, seed/trial overrides, store) that resolves itself into an
  :class:`ExecutionPlan` exactly once, validated against the spec;
* :mod:`repro.api.run` — :func:`run_experiment`, the single programmatic
  entry point, returning a :class:`~repro.store.RunArtifact`
  that :func:`~repro.store.save_run` /
  :func:`~repro.store.load_run` persist as a per-run directory
  (manifest + report + raw payloads).  With a store on the config
  (``store_path=`` / ``REPRO_STORE`` / the CLI's ``--store``), runs are
  memoized through the content-addressed :class:`~repro.store.RunStore`
  keyed by :func:`~repro.store.run_fingerprint`.

Typical use::

    from repro.api import ExecutionConfig, run_experiment, save_run

    artifact = run_experiment("E8", config=ExecutionConfig(batch=True, backend="local"))
    print(artifact.report.render())
    save_run(artifact, "runs/e8-batched")

    # Or memoized: the second call is a cache hit served from the store.
    artifact = run_experiment("E8", config=ExecutionConfig(store_path="runs/store"))

The canonical sweep point-naming helper
(:func:`~repro.analysis.sweeps.sweep_point_names`) is re-exported here: it
is the one rule that disambiguates duplicate grid points, shared by every
sweep execution path and by the artifact manifests.
"""

from __future__ import annotations

from ..analysis.sweeps import sweep_point_names
from ..store import RunArtifact, RunStore, load_run, run_fingerprint, save_run
from .config import (
    SERVICE_EXECUTION_KEYS,
    ExecutionConfig,
    ExecutionPlan,
    backend_for_jobs,
    resolve_run_options,
)
from .run import ResolvedRun, resolve_run_inputs, run_experiment
from .spec import (
    REGISTRY,
    ExperimentSpec,
    ParameterSpec,
    experiment_ids,
    get_spec,
    iter_specs,
)

__all__ = [
    "ExperimentSpec",
    "ParameterSpec",
    "REGISTRY",
    "get_spec",
    "iter_specs",
    "experiment_ids",
    "ExecutionConfig",
    "ExecutionPlan",
    "SERVICE_EXECUTION_KEYS",
    "backend_for_jobs",
    "resolve_run_options",
    "ResolvedRun",
    "resolve_run_inputs",
    "run_experiment",
    "RunArtifact",
    "RunStore",
    "run_fingerprint",
    "save_run",
    "load_run",
    "sweep_point_names",
]
