"""Execution settings: a frozen :class:`ExecutionConfig` resolved exactly once.

An :class:`ExecutionConfig` captures *how* an experiment should execute —
batch mode, the execution backend, seed and trial-count overrides, the run
store — independently of *which* experiment runs.  Only ``batch`` changes
results (and the run fingerprint); the backend only decides where the
pre-seeded tasks run.  Calling :meth:`ExecutionConfig.resolve` against an
:class:`~repro.api.spec.ExperimentSpec` validates the settings — types
included, since they may come from an untrusted service request — against
the spec's capability flags and turns them into an :class:`ExecutionPlan`.
The CLI, :func:`repro.api.run_experiment`, the service and the benchmark
helpers all resolve through it, so an invalid setting carries the same
message everywhere.

:func:`resolve_run_options` is what the experiment drivers call at the top
of ``run``: it accepts an :class:`ExecutionConfig`, or an already-resolved
:class:`ExecutionPlan` so the resolution genuinely happens once per run.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from ..errors import ExperimentError
from .spec import ExperimentSpec, get_spec

__all__ = [
    "SERVICE_EXECUTION_KEYS",
    "ExecutionConfig",
    "ExecutionPlan",
    "backend_for_jobs",
    "resolve_run_options",
]

#: Execution options a service request's JSON body may set — the
#: experiment-shaping subset of :class:`ExecutionConfig`.  ``store_path``
#: and ``cache`` are deliberately absent: the service owns its store, and
#: requests must not redirect persistence or disable memoization.
SERVICE_EXECUTION_KEYS = ("batch", "trials", "base_seed", "backend", "backend_options")


def _is_int(value: Any) -> bool:
    """True for Python/numpy integers, false for ``bool`` (an ``int`` subclass)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def backend_for_jobs(jobs: Optional[int]) -> Dict[str, Any]:
    """Map a ``--jobs N`` worker count onto :class:`ExecutionConfig` backend fields.

    Unset or ``1`` runs in-process; ``0`` (one worker per CPU) or ``N >= 2``
    runs on a local process pool of that many workers.
    """
    if jobs is None or jobs == 1:
        return {"backend": "in-process", "backend_options": None}
    if not _is_int(jobs) or jobs < 0:
        raise ExperimentError(
            f"jobs must be a non-negative integer (0 = one worker per CPU), got {jobs!r}"
        )
    return {"backend": "local", "backend_options": {"workers": int(jobs)}}


@dataclass(frozen=True)
class ExecutionConfig:
    """Frozen, experiment-agnostic execution settings.

    Attributes
    ----------
    batch:
        Use the vectorised batch simulators instead of one serial run per trial.
        The one execution setting that changes results, hence the one the
        run fingerprint covers.
    base_seed:
        Override the driver's default root seed (``None`` = keep default).
    trials:
        Override the driver's default trial count (``None`` = keep default).
    backend:
        Where the run's tasks execute: ``"in-process"`` (default) or
        ``"local"``, a process pool built once per run by
        :func:`repro.api.run_experiment` and recorded, with the number of
        tasks it ran, in the run manifest.  Results are bit-identical on
        both (see :mod:`repro.exec.backends`).
    backend_options:
        Backend options; ``local`` takes ``{"workers": k}`` (``0`` = one per
        CPU, the default).
    store_path:
        Root directory of a content-addressed run store
        (:class:`repro.store.RunStore`).  When set,
        :func:`repro.api.run_experiment` consults the store *before*
        creating any execution backend — an identical semantic request
        (same spec, version, resolved parameters and batch flag; the
        backend deliberately excluded) is served from the store as a cache
        hit, and a miss is computed and persisted under its fingerprint.
        ``None`` (default) keeps the uncached behaviour.
    cache:
        Whether the store lookup is consulted (``True``, default).
        ``cache=False`` with a ``store_path`` is the refresh mode (the
        CLI's ``--no-cache``): skip the lookup, recompute, and overwrite
        the stored artifact.  Without a ``store_path`` the flag is inert.
    """

    batch: bool = False
    base_seed: Optional[int] = None
    trials: Optional[int] = None
    backend: str = "in-process"
    backend_options: Optional[Mapping[str, Any]] = None
    store_path: Optional[Union[str, Path]] = None
    cache: bool = True

    @classmethod
    def from_env(cls, variable: str = "REPRO_JOBS", *, batch: bool = False) -> "ExecutionConfig":
        """Build a config from the execution environment variables.

        ``variable`` holds a worker count with the CLI's ``--jobs``
        convention (see :func:`backend_for_jobs`; unset/empty →
        in-process).  Two more select the run store:

        * ``REPRO_STORE`` — root directory of a content-addressed run
          store (unset/empty → no store);
        * ``REPRO_CACHE`` — set to ``0``/``false``/``no``/``off`` to skip
          the store lookup (the ``--no-cache`` refresh mode); anything
          else, or unset, keeps caching on.
        """
        raw = os.environ.get(variable, "").strip()
        try:
            jobs = int(raw) if raw else None
            backend = backend_for_jobs(jobs)
        except (ValueError, ExperimentError):
            raise ExperimentError(
                f"{variable} must be a non-negative worker count "
                f"(0 = one per CPU), got {raw!r}"
            ) from None
        store_raw = os.environ.get("REPRO_STORE", "").strip()
        cache_raw = os.environ.get("REPRO_CACHE", "").strip().lower()
        return cls(
            batch=batch,
            store_path=store_raw or None,
            cache=cache_raw not in ("0", "false", "no", "off"),
            **backend,
        )

    @classmethod
    def for_service(
        cls,
        store_path: Union[str, Path],
        options: Optional[Mapping[str, Any]] = None,
    ) -> "ExecutionConfig":
        """Build a per-request config for the experiment service.

        The service's defaults differ from the library's in exactly two
        ways, both fixed here: every request is **memoized** through the
        service's store (``store_path`` is mandatory, ``cache`` always on —
        the whole point of serving is that repeated parameter points are
        hits), and the execution options come from an untrusted JSON body,
        so only the whitelisted keys in :data:`SERVICE_EXECUTION_KEYS` are
        accepted.  Anything else — notably ``store_path``/``cache``
        themselves, which a request must not redirect — raises a labelled
        :class:`~repro.errors.ExperimentError` that the service maps to a
        ``400``; so do badly typed values, via :meth:`resolve`.
        """
        settings = dict(options or {})
        unknown = sorted(set(settings) - set(SERVICE_EXECUTION_KEYS))
        if unknown:
            raise ExperimentError(
                f"unknown execution option(s) {', '.join(unknown)}; a service request "
                f"may set: {', '.join(SERVICE_EXECUTION_KEYS)}"
            )
        return cls(store_path=Path(store_path), cache=True, **settings)

    def resolve(self, spec_or_id: Union[str, ExperimentSpec]) -> "ExecutionPlan":
        """Validate against one experiment and resolve into its plan.

        Raises :class:`~repro.errors.ExperimentError` when:

        * ``batch`` is not a bool, ``trials`` is not an integer ``>= 1``, or
          ``base_seed`` is not an integer;
        * a ``trials`` / ``base_seed`` override names a parameter the spec
          does not declare (E10 counts repetitions with
          ``monte_carlo_reps``);
        * the ``backend`` name, its option keys or its ``workers`` value
          are invalid (see :func:`repro.exec.backends.validate_backend_spec`);
        * ``store_path`` exists but is not a directory.
        """
        from ..exec.backends import validate_backend_spec

        spec = get_spec(spec_or_id)
        if not isinstance(self.batch, bool):
            raise ExperimentError(f"batch must be true or false, got {self.batch!r}")
        if self.trials is not None and (not _is_int(self.trials) or self.trials < 1):
            raise ExperimentError(f"trials must be a positive integer, got {self.trials!r}")
        if self.base_seed is not None and not _is_int(self.base_seed):
            raise ExperimentError(f"base_seed must be an integer, got {self.base_seed!r}")
        validate_backend_spec(self.backend, self.backend_options)
        store_path: Optional[Path] = None
        if self.store_path is not None:
            store_path = Path(self.store_path)
            if store_path.exists() and not store_path.is_dir():
                raise ExperimentError(
                    f"store path {store_path} exists but is not a directory"
                )
        for name, value in (("trials", self.trials), ("base_seed", self.base_seed)):
            if value is not None and name not in spec.parameter_names:
                raise ExperimentError(
                    f"{spec.experiment_id} has no {name!r} parameter to override; "
                    f"settable parameters are: {', '.join(spec.parameter_names)}"
                )

        return ExecutionPlan(
            spec=spec,
            batch=self.batch,
            trials=None if self.trials is None else int(self.trials),
            base_seed=None if self.base_seed is None else int(self.base_seed),
            backend=self.backend,
            backend_options=dict(self.backend_options) if self.backend_options else None,
            store_path=store_path,
            cache=self.cache,
        )


@dataclass(frozen=True)
class ExecutionPlan:
    """A validated execution strategy for one specific experiment.

    Produced by :meth:`ExecutionConfig.resolve`; drivers read ``batch`` from
    it and apply the ``trials`` / ``base_seed`` overrides, and
    :func:`repro.api.run_experiment` builds the backend from it.
    """

    spec: ExperimentSpec
    batch: bool = False
    trials: Optional[int] = None
    base_seed: Optional[int] = None
    backend: str = "in-process"
    backend_options: Optional[Dict[str, Any]] = None
    store_path: Optional[Path] = None
    cache: bool = True

    def create_backend(self) -> Any:
        """Build the plan's execution backend (not yet started).

        Called exactly once per run by :func:`repro.api.run_experiment`.
        """
        from ..exec.backends import create_backend

        return create_backend(self.backend, self.backend_options)

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary of the plan (stored in run manifests).

        The ``backend`` entry is added by :func:`repro.api.run_experiment`
        from the live backend (resolved worker count, tasks executed).
        """
        return {
            "batch": self.batch,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "store": {"path": str(self.store_path), "cache": self.cache}
            if self.store_path
            else None,
        }


def resolve_run_options(
    experiment_id: str,
    *,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExecutionPlan:
    """Resolve a driver's ``config=`` argument into its :class:`ExecutionPlan`.

    Called at the top of every driver ``run``: an :class:`ExecutionConfig`
    (``None`` = the defaults) is resolved here against the registry spec; an
    already-resolved :class:`ExecutionPlan` is passed through, so
    :func:`repro.api.run_experiment` resolves exactly once.
    """
    if config is None:
        config = ExecutionConfig()
    if isinstance(config, ExecutionPlan):
        plan = config
    elif isinstance(config, ExecutionConfig):
        plan = config.resolve(experiment_id)
    else:
        raise ExperimentError(
            f"config must be an ExecutionConfig or ExecutionPlan, "
            f"got {type(config).__name__}"
        )
    if plan.spec.experiment_id != experiment_id:
        raise ExperimentError(
            f"execution plan was resolved for {plan.spec.experiment_id}, "
            f"not {experiment_id}"
        )
    return plan
