"""The single programmatic entry point: :func:`run_experiment`.

``run_experiment("E8", config=ExecutionConfig(batch=True, backend="local"),
set_sizes=(50, 200))`` resolves the experiment spec from the registry,
resolves the execution settings into a plan exactly once, validates the
parameter overrides against the spec's declared parameters, invokes the
driver, and wraps the outcome in a
:class:`~repro.store.RunArtifact` carrying the fully resolved
inputs (parameters + execution plan), the report, the code version and
the wall time — everything :func:`repro.store.save_run` needs
to persist a reproducible record of the run.

When the plan names a store (``ExecutionConfig(store_path=...)``, the
CLI's ``--store``, or ``REPRO_STORE``), the run is memoized through the
content-addressed :class:`~repro.store.RunStore`: the run fingerprint —
sha256 over spec id, code version, resolved parameters and the
``batch`` flag, excluding the backend because the determinism contract
proves it result-irrelevant — is looked up *before* any
execution backend is created.  A hit loads, verifies and returns the
stored artifact (``execution["cache"] == "hit"``); a miss computes
normally and persists the artifact under its fingerprint.  The miss path
is **double-checked** under the store's per-fingerprint compute lock
(:meth:`~repro.store.RunStore.compute_lock`): two threads submitting the
identical request simultaneously — the experiment service's duplicate-
submission case — run the simulation exactly once, with the loser of the
race served the winner's freshly persisted artifact as a hit.

:func:`resolve_run_inputs` is the first half of this function on its own:
spec + plan + fully resolved parameters + fingerprint, with *no*
execution.  The service layer (:mod:`repro.service`) calls it to answer
"is this request already stored?" and to address jobs before any worker
picks them up, guaranteed to agree with what ``run_experiment`` would
compute because ``run_experiment`` itself goes through it.

The CLI (``repro-flip experiment``), the benchmark scripts and the examples
all call this function.  A driver's own ``run(config=...)`` still works,
but dispatches to whatever backend is active on the calling thread (the
in-process default) instead of building the configured one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from ..errors import ExperimentError
from ..store import RunArtifact, RunStore, StoreWriteError, run_fingerprint
from ..store.fingerprint import code_version
from .config import ExecutionConfig, ExecutionPlan, resolve_run_options
from .spec import ExperimentSpec, get_spec

__all__ = ["ResolvedRun", "resolve_run_inputs", "run_experiment"]


@dataclass(frozen=True)
class ResolvedRun:
    """The fully resolved inputs of one prospective experiment run.

    Produced by :func:`resolve_run_inputs`; everything
    :func:`run_experiment` decides from before executing anything —
    notably the content ``fingerprint``, which is what the run store and
    the service's job queue key on.
    """

    spec: ExperimentSpec
    plan: ExecutionPlan
    parameters: Dict[str, Any]
    fingerprint: str


def resolve_run_inputs(
    spec_or_id: Union[str, ExperimentSpec],
    *,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
    **param_overrides: Any,
) -> ResolvedRun:
    """Resolve spec, plan, parameters and fingerprint — without running.

    Performs exactly the validation and resolution :func:`run_experiment`
    performs up front: the spec is fetched from the registry, the config is
    resolved into an :class:`~repro.api.config.ExecutionPlan` (validated
    against the spec's capability flags), the parameter overrides are
    checked against the declared parameters, ``trials``/``base_seed``
    double-specification is rejected, and the defaults are merged with the
    overrides into the fully resolved parameter mapping the fingerprint
    hashes.  Raises :class:`~repro.errors.ExperimentError` on any invalid
    input — which is why the service layer calls this *before* accepting a
    job, so a bad request fails at submission time with a ``400`` instead
    of inside a worker thread.
    """
    spec = get_spec(spec_or_id)
    plan = resolve_run_options(spec.experiment_id, config=config or ExecutionConfig())
    spec.validate_overrides(param_overrides)
    for name in ("trials", "base_seed"):
        if name in param_overrides and getattr(plan, name) is not None:
            raise ExperimentError(
                f"{name} was set both as a parameter override and on the ExecutionConfig; "
                "pass it once"
            )

    parameters = spec.defaults()
    parameters.update(param_overrides)
    if plan.trials is not None:
        parameters["trials"] = plan.trials
    if plan.base_seed is not None:
        parameters["base_seed"] = plan.base_seed

    # The fingerprint covers the fully *resolved* parameters, so a default
    # left implicit and the same value passed explicitly hash identically.
    fingerprint = run_fingerprint(spec.experiment_id, code_version(), parameters, batch=plan.batch)
    return ResolvedRun(spec=spec, plan=plan, parameters=parameters, fingerprint=fingerprint)


def _execute(resolved: ResolvedRun, execution: Dict[str, Any], **param_overrides: Any) -> RunArtifact:
    """Drive the experiment described by ``resolved`` and package the artifact."""
    from ..exec.backends import use_backend

    plan = resolved.plan
    backend = plan.create_backend()
    started = time.perf_counter()
    # One backend per run: started once, installed on this thread for every
    # dispatch the driver performs (trials, sweep points, cells), closed
    # when the driver returns — the local pool is spawned once here instead
    # of per sweep-point family.
    with backend, use_backend(backend):
        report = resolved.spec.driver().run(config=plan, **param_overrides)
        # The live summary: resolved worker count and tasks executed.
        execution["backend"] = backend.describe()
    wall_time = time.perf_counter() - started

    return RunArtifact(
        spec_id=resolved.spec.experiment_id,
        parameters=resolved.parameters,
        execution=execution,
        report=report,
        version=code_version(),
        wall_time_seconds=wall_time,
        fingerprint=resolved.fingerprint,
    )


def run_experiment(
    spec_or_id: Union[str, ExperimentSpec],
    *,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
    **param_overrides: Any,
) -> RunArtifact:
    """Run one experiment through the unified API and return its artifact.

    Parameters
    ----------
    spec_or_id:
        An experiment id (``"E1"``..``"E12"``) or an
        :class:`~repro.api.spec.ExperimentSpec` from the registry.
    config:
        Execution settings; ``None`` means the in-process defaults.  An
        :class:`~repro.api.config.ExecutionConfig` is resolved into an
        execution plan exactly once, here, and the resolved plan is
        handed to the driver; an already-resolved
        :class:`~repro.api.config.ExecutionPlan` for the same experiment is
        accepted as-is.
    param_overrides:
        Overrides for the spec's declared parameters (e.g. ``epsilon=0.3``,
        ``sizes=(250, 500)``).  Unknown names raise
        :class:`~repro.errors.ExperimentError` listing the valid ones.

    Returns
    -------
    RunArtifact
        The report plus the fully resolved parameters, execution summary,
        code version, wall time and fingerprint (persist with
        :func:`repro.store.save_run`).  With a store on the plan,
        ``execution["cache"]`` records the memoization outcome (``"hit"``,
        ``"miss"``, or ``"bypass"`` when ``cache=False``); without one the
        key is absent, matching the historical manifests.
    """
    resolved = resolve_run_inputs(spec_or_id, config=config, **param_overrides)
    plan = resolved.plan

    # The store lookup happens before any backend exists: a cache hit must
    # not spawn worker pools, open endpoints, or touch the exec layer at
    # all.
    store: Optional[RunStore] = None
    if plan.store_path is not None:
        store = RunStore(plan.store_path)
        if plan.cache:
            cached = store.get(resolved.fingerprint)
            if cached is not None:
                cached.execution["cache"] = "hit"
                return cached

    execution = plan.describe()
    if store is None:
        return _execute(resolved, execution, **param_overrides)

    if not plan.cache:
        # Bypass/refresh mode: recompute unconditionally, overwrite the
        # stored artifact.  No compute lock — refreshes are explicit and
        # save_run's atomic promotion keeps concurrent writers safe.
        execution["cache"] = "bypass"
        artifact = _execute(resolved, execution, **param_overrides)
        _put_or_degrade(store, artifact)
        return artifact

    # Double-checked miss: serialise identical submissions on the store's
    # per-fingerprint compute lock so the simulation runs exactly once.
    # Distinct fingerprints take distinct locks and never contend.
    with store.compute_lock(resolved.fingerprint):
        cached = store.get(resolved.fingerprint)
        if cached is not None:
            cached.execution["cache"] = "hit"
            return cached
        execution["cache"] = "miss"
        artifact = _execute(resolved, execution, **param_overrides)
        _put_or_degrade(store, artifact)
    return artifact


def _put_or_degrade(store: RunStore, artifact: RunArtifact) -> None:
    """Persist ``artifact``, degrading to compute-only on a failed write.

    A :class:`~repro.store.StoreWriteError` — disk full, read-only
    filesystem — must not destroy a simulation that already succeeded: the
    computed artifact is returned to the caller with the failure recorded
    as ``execution["store_error"]`` (and a :class:`RuntimeWarning`), so a
    library caller still gets its result, the CLI still prints its report,
    and the experiment service flips into degraded mode off the recorded
    reason instead of failing the job.  Every other exception (corrupt
    data, programming errors) propagates unchanged.
    """
    import warnings

    try:
        store.put(artifact)
    except StoreWriteError as error:
        artifact.execution["store_error"] = str(error)
        warnings.warn(
            f"run {artifact.fingerprint} computed but not persisted: {error}",
            RuntimeWarning,
            stacklevel=3,
        )
