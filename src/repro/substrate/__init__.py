"""Simulation substrate for the Flip model.

This subpackage implements the abstract communication model of Section 1.3 of
the paper as a reproducible, vectorised simulator:

* :mod:`~repro.substrate.rng` — reproducible random-stream management;
* :mod:`~repro.substrate.noise` — per-message binary symmetric channel noise;
* :mod:`~repro.substrate.population` — per-agent opinion/activation state;
* :mod:`~repro.substrate.network` — uniform push gossip with single-accept
  collision semantics;
* :mod:`~repro.substrate.clocks` — the global round clock;
* :mod:`~repro.substrate.faults` — fault models (crash-stop and Byzantine
  senders) with a dedicated random stream;
* :mod:`~repro.substrate.metrics` / :mod:`~repro.substrate.trace` —
  measurement and debugging instrumentation;
* :mod:`~repro.substrate.engine` — the wired-together simulation engine.
"""

from .clocks import GlobalClock
from .engine import SimulationEngine
from .faults import (
    NONE,
    ByzantineSenders,
    CrashStop,
    FaultInjector,
    FaultModel,
    NoFaults,
    build_injector,
)
from .metrics import MetricsCollector, PhaseRecord
from .network import DeliveryReport, PushGossipNetwork
from .noise import BinarySymmetricChannel, NoiseChannel, PerfectChannel, validate_epsilon
from .population import NO_OPINION, Population
from .rng import RandomSource, derive_seed, spawn_generator
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
    "validate_epsilon",
    "NO_OPINION",
    "Population",
    "RandomSource",
    "derive_seed",
    "spawn_generator",
    "EventTrace",
    "TraceEvent",
    "FaultModel",
    "NoFaults",
    "CrashStop",
    "ByzantineSenders",
    "NONE",
    "FaultInjector",
    "build_injector",
]
