"""Parameter sweeps: run the same experiment over a grid of configurations.

Every experiment driver in :mod:`repro.experiments` (the E1–E11 table in
``README.md``) is a sweep over one or two parameters (``n``, ``epsilon``,
``|A|``, initial bias, clock skew ...) with a fixed number of Monte-Carlo
trials per grid point.  This module provides the grid construction and the
sweep runner, returning one
:class:`~repro.analysis.experiments.ExperimentResult` per point.  Like
:func:`~repro.analysis.experiments.run_trials`, :func:`run_sweep` dispatches
one task per trial to the active execution backend — every trial of every
point in one submission.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from ..errors import ExperimentError
from .experiments import ExperimentResult

__all__ = ["SweepPoint", "SweepResult", "parameter_grid", "run_sweep", "sweep_point_names"]

#: Signature of a sweep trial function: ``(point, seed, trial_index) -> measurements``.
SweepTrialFunction = Callable[[Mapping[str, Any], int, int], Mapping[str, Any]]


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a sweep (an immutable view of its parameters)."""

    parameters: Tuple[Tuple[str, Any], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "SweepPoint":
        """Build a point from a parameter mapping (order preserved)."""
        return cls(parameters=tuple(mapping.items()))

    def as_dict(self) -> Dict[str, Any]:
        """The point's parameters as a plain dict."""
        return dict(self.parameters)

    def label(self) -> str:
        """Compact human-readable label, e.g. ``n=1000, eps=0.2``."""
        return ", ".join(f"{key}={value}" for key, value in self.parameters)


@dataclass
class SweepResult:
    """All grid points of a sweep with their per-point experiment results."""

    name: str
    points: List[SweepPoint] = field(default_factory=list)
    results: List[ExperimentResult] = field(default_factory=list)

    def __iter__(self):
        return iter(zip(self.points, self.results))

    def __len__(self) -> int:
        return len(self.points)

    def _extract(
        self, parameter: str, summarise: Callable[[ExperimentResult], float]
    ) -> Tuple[List[Any], List[float]]:
        """Walk the sweep pairing each point's ``parameter`` value with a per-result summary."""
        xs: List[Any] = []
        ys: List[float] = []
        for point, result in self:
            params = point.as_dict()
            if parameter not in params:
                raise ExperimentError(f"sweep point {point.label()} has no parameter {parameter!r}")
            xs.append(params[parameter])
            ys.append(summarise(result))
        return xs, ys

    def series(self, parameter: str, measurement: str) -> Tuple[List[Any], List[float]]:
        """Extract ``(parameter values, mean measurement)`` across the sweep.

        Useful for scaling fits: e.g. ``series("n", "rounds")``.
        """
        return self._extract(parameter, lambda result: result.mean(measurement))

    def rates(self, parameter: str, flag: str) -> Tuple[List[Any], List[float]]:
        """Extract ``(parameter values, success rates)`` across the sweep."""
        return self._extract(parameter, lambda result: result.rate(flag))

    def point_names(self) -> List[str]:
        """Collision-free per-point experiment names (the canonical naming).

        Delegates to :func:`sweep_point_names` — the single point-naming
        rule shared by the serial and batched sweep paths —
        so consumers (run-artifact manifests, persistence payloads) never
        re-derive names from the ambiguous :meth:`SweepPoint.label`, which
        collides on duplicate grid points.
        """
        return sweep_point_names(self.name, self.points)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation."""
        return {
            "name": self.name,
            "points": [point.as_dict() for point in self.points],
            "point_names": self.point_names(),
            "results": [result.to_dict() for result in self.results],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepResult":
        """Inverse of :meth:`to_dict` (used by :func:`repro.store.load_sweep`)."""
        points = [SweepPoint.from_mapping(entry) for entry in payload.get("points", [])]
        results = [ExperimentResult.from_dict(entry) for entry in payload.get("results", [])]
        if len(points) != len(results):
            raise ExperimentError(
                f"sweep payload has {len(points)} points but {len(results)} results"
            )
        sweep = cls(name=str(payload["name"]), points=points, results=results)
        recorded = payload.get("point_names")
        if recorded is not None and list(recorded) != sweep.point_names():
            raise ExperimentError(
                f"sweep payload {sweep.name!r} records point names {list(recorded)!r} "
                f"but the canonical naming derives {sweep.point_names()!r}"
            )
        return sweep


def sweep_point_names(name: str, points: Sequence[SweepPoint]) -> List[str]:
    """Per-point experiment names for a sweep, collision-free by construction.

    Each point's experiment — and therefore its trial-seed derivation — is
    named ``"{name}[{label}]"``.  Labels are ``str()``-rendered parameter
    values, so duplicate grid points (or distinct values with identical
    ``str()``, e.g. ``1`` and ``True``) would otherwise receive byte-identical
    seed lists and perfectly correlated trials.  Repeat occurrences of a
    label are therefore suffixed with the point's index in the sweep
    (``"{name}[{label}]#{index}"``), while the *first* occurrence keeps its
    historical name — so existing sweeps reproduce identically and appending
    points (even duplicates) never changes the results of earlier points.

    Shared by the serial and batched sweep paths (:func:`run_sweep` and
    :func:`repro.exec.batching.run_sweep_batched`), so every path derives
    the same per-point seeds.
    """
    seen: Counter = Counter()
    names = []
    for index, point in enumerate(points):
        label = point.label()
        names.append(f"{name}[{label}]" if label not in seen else f"{name}[{label}]#{index}")
        seen[label] += 1
    return names


def parameter_grid(**axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of named parameter axes, as a list of dicts.

    >>> parameter_grid(n=[100, 200], epsilon=[0.1, 0.2])  # doctest: +NORMALIZE_WHITESPACE
    [{'n': 100, 'epsilon': 0.1}, {'n': 100, 'epsilon': 0.2},
     {'n': 200, 'epsilon': 0.1}, {'n': 200, 'epsilon': 0.2}]
    """
    if not axes:
        raise ExperimentError("parameter_grid needs at least one axis")
    names = list(axes)
    combinations = itertools.product(*(axes[name] for name in names))
    return [dict(zip(names, values)) for values in combinations]


@dataclass(frozen=True)
class _PointBoundTrial:
    """A sweep trial function with one grid point's parameters bound.

    A module-level class (rather than a closure) so the bound trial can cross
    a process boundary: a pool backend pickles each trial task into its
    workers, and closures cannot be pickled.  The instance is picklable
    whenever ``trial_fn`` itself is.
    """

    trial_fn: SweepTrialFunction
    point: SweepPoint

    def __call__(self, seed: int, trial_index: int) -> Mapping[str, Any]:
        """Run one trial at the bound grid point."""
        return self.trial_fn(self.point.as_dict(), seed, trial_index)


def run_sweep(
    name: str,
    points: Iterable[Mapping[str, Any]],
    trial_fn: SweepTrialFunction,
    trials_per_point: int,
    base_seed: int = 0,
) -> SweepResult:
    """Run ``trials_per_point`` trials of ``trial_fn`` at every grid point.

    The per-point experiment is named ``"{name}[{point label}]"`` and seeded
    independently of the other points, so adding points to a sweep never
    changes existing results.  Duplicate point labels are disambiguated with
    the point index (see :func:`sweep_point_names`), so repeated grid points
    run statistically independent — not byte-identical — trials.

    Every (point, trial) pair is one task, and the whole sweep goes to the
    active execution backend in one submission.  Per-point trial seeds are
    derived here, before dispatch, and results are assembled in point and
    trial order, so the sweep is bit-identical on every backend; an
    unpicklable trial function runs in-process.
    """
    if trials_per_point < 1:
        raise ExperimentError("trials_per_point must be at least 1")
    # Imported late: repro.exec depends on this module for the sweep
    # containers, so a top-level import either way would be circular.
    from ..exec.pool import run_trial_groups
    from ..exec.runner import trial_seeds

    point_list = [SweepPoint.from_mapping(raw_point) for raw_point in points]
    point_names = sweep_point_names(name, point_list)
    seed_lists = [trial_seeds(base_seed, point_name, trials_per_point) for point_name in point_names]
    raw_lists = run_trial_groups(
        [
            (point_name, _PointBoundTrial(trial_fn, point), seeds)
            for point, point_name, seeds in zip(point_list, point_names, seed_lists)
        ]
    )
    sweep = SweepResult(name=name)
    for point, point_name, seeds, raw in zip(point_list, point_names, seed_lists, raw_lists):
        sweep.points.append(point)
        sweep.results.append(ExperimentResult.from_trials(point_name, point.as_dict(), seeds, raw))
    return sweep
