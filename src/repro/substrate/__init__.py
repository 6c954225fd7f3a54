"""Simulation substrate for the Flip model.

This subpackage implements the abstract communication model of Section 1.3 of
the paper as a reproducible, vectorised simulator:

* :mod:`~repro.substrate.rng` — reproducible random-stream management;
* :mod:`~repro.substrate.noise` — per-message binary symmetric channel noise;
* :mod:`~repro.substrate.population` — per-agent opinion/activation state;
* :mod:`~repro.substrate.network` — uniform push gossip with single-accept
  collision semantics;
* :mod:`~repro.substrate.clocks` — the global round clock;
* :mod:`~repro.substrate.scheduler` — round-budgeted driver for
  run-until-convergence protocols;
* :mod:`~repro.substrate.faults` — fault models (crash-stop, Byzantine
  senders, burst noise) with a dedicated random stream;
* :mod:`~repro.substrate.topology` — non-uniform contact graphs
  (degree-limited, two-cluster, churn);
* :mod:`~repro.substrate.metrics` / :mod:`~repro.substrate.trace` —
  measurement and debugging instrumentation;
* :mod:`~repro.substrate.engine` — the wired-together simulation engine.
"""

from .clocks import GlobalClock
from .engine import SimulationEngine
from .faults import (
    NONE,
    BurstNoise,
    ByzantineSenders,
    CrashStop,
    FaultInjector,
    FaultModel,
    NoFaults,
    build_injector,
)
from .metrics import MetricsCollector, PhaseRecord
from .network import DeliveryReport, PushGossipNetwork
from .noise import (
    AdversarialFlipBudgetChannel,
    BinarySymmetricChannel,
    HeterogeneousChannel,
    NoiseChannel,
    PerfectChannel,
    crossover_probability,
    validate_epsilon,
)
from .population import NO_OPINION, Population
from .rng import RandomSource, derive_seed, spawn_generator
from .scheduler import RoundScheduler, ScheduleOutcome, StopReason
from .topology import (
    ChurnTopology,
    ContactTopology,
    DegreeLimitedTopology,
    TwoClusterTopology,
)
from .trace import EventTrace, TraceEvent

__all__ = [
    "GlobalClock",
    "SimulationEngine",
    "MetricsCollector",
    "PhaseRecord",
    "DeliveryReport",
    "PushGossipNetwork",
    "NoiseChannel",
    "BinarySymmetricChannel",
    "PerfectChannel",
    "HeterogeneousChannel",
    "AdversarialFlipBudgetChannel",
    "crossover_probability",
    "validate_epsilon",
    "NO_OPINION",
    "Population",
    "RandomSource",
    "derive_seed",
    "spawn_generator",
    "RoundScheduler",
    "ScheduleOutcome",
    "StopReason",
    "EventTrace",
    "TraceEvent",
    "FaultModel",
    "NoFaults",
    "CrashStop",
    "ByzantineSenders",
    "BurstNoise",
    "NONE",
    "FaultInjector",
    "build_injector",
    "ContactTopology",
    "DegreeLimitedTopology",
    "TwoClusterTopology",
    "ChurnTopology",
]
