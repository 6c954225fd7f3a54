"""repro — a reproduction of "Breathe before Speaking" (PODC 2014).

This package implements, from scratch, the Flip model of noisy, limited and
anonymous communication introduced by Feinerman, Haeupler and Korman, the
paper's two-stage noisy-broadcast / majority-consensus protocol, the
clock-free variant of Section 3, a collection of baseline protocols, and the
experiment harness that regenerates the paper's quantitative claims.

Quickstart
----------
>>> from repro import solve_noisy_broadcast
>>> result = solve_noisy_broadcast(n=1000, epsilon=0.25, seed=7)
>>> result.success
True

The registered experiments (E1–E11) run through the unified API in
:mod:`repro.api`: ``run_experiment("E1", config=ExecutionConfig(batch=True))``
returns a run artifact whose report, resolved settings and provenance can be
persisted with ``save_run`` and reloaded with ``load_run``.

See ``README.md`` for the experiment index (E1–E11) and
``docs/ARCHITECTURE.md`` for the architecture overview.
"""

from .core import (
    BroadcastResult,
    ClockFreeBroadcastResult,
    MajorityConsensusResult,
    ProtocolParameters,
    StageOneParameters,
    StageTwoParameters,
    run_clock_free_broadcast,
    run_with_bounded_skew,
    solve_noisy_broadcast,
    solve_noisy_majority_consensus,
    theory,
)
from .errors import (
    ConfigurationError,
    ExperimentError,
    ParameterError,
    ProtocolError,
    ReproError,
    ScheduleError,
    SimulationError,
)
from .substrate import BinarySymmetricChannel, PushGossipNetwork, RandomSource

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core protocols
    "BroadcastResult",
    "ClockFreeBroadcastResult",
    "MajorityConsensusResult",
    "ProtocolParameters",
    "StageOneParameters",
    "StageTwoParameters",
    "run_clock_free_broadcast",
    "run_with_bounded_skew",
    "solve_noisy_broadcast",
    "solve_noisy_majority_consensus",
    "theory",
    # substrate
    "BinarySymmetricChannel",
    "PushGossipNetwork",
    "RandomSource",
    # errors
    "ReproError",
    "ConfigurationError",
    "ParameterError",
    "ScheduleError",
    "SimulationError",
    "ProtocolError",
    "ExperimentError",
]
