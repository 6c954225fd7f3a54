"""Experiment drivers — one module per reproduced claim (the E1–E12 table in README.md).

Each driver exposes a ``run(...)`` function returning an
:class:`~repro.experiments.report.ExperimentReport`.  The preferred way to
invoke them is the unified API (:func:`repro.api.run_experiment` with an
:class:`~repro.api.config.ExecutionConfig`), which resolves capabilities and
defaults from the declarative registry in :mod:`repro.api.spec` and
installs the configured execution backend for the run.  The
benchmark files in ``benchmarks/`` run the drivers through the unified API
and print the rendered reports; ``benchmarks/results/`` records
representative outputs.
"""

from . import (
    e1_rounds_vs_n,
    e2_rounds_vs_eps,
    e3_messages,
    e4_phase0,
    e5_stage1_growth,
    e6_stage2_boost,
    e7_baselines,
    e8_majority,
    e9_async,
    e10_majority_lemma,
    e11_lower_bounds,
    e12_faults,
)
from .report import ExperimentReport

__all__ = [
    "ExperimentReport",
    "e1_rounds_vs_n",
    "e2_rounds_vs_eps",
    "e3_messages",
    "e4_phase0",
    "e5_stage1_growth",
    "e6_stage2_boost",
    "e7_baselines",
    "e8_majority",
    "e9_async",
    "e10_majority_lemma",
    "e11_lower_bounds",
    "e12_faults",
]

#: Mapping from experiment id to its driver module.  Legacy alias: the
#: declarative registry (:data:`repro.api.spec.REGISTRY`) is the canonical
#: index — it additionally carries titles, claims, capability flags and
#: parameter defaults — and a test pins the two against each other.
DRIVERS = {
    "E1": e1_rounds_vs_n,
    "E2": e2_rounds_vs_eps,
    "E3": e3_messages,
    "E4": e4_phase0,
    "E5": e5_stage1_growth,
    "E6": e6_stage2_boost,
    "E7": e7_baselines,
    "E8": e8_majority,
    "E9": e9_async,
    "E10": e10_majority_lemma,
    "E11": e11_lower_bounds,
    "E12": e12_faults,
}
