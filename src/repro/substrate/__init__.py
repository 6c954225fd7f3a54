"""Simulation substrate for the Flip model.

This subpackage implements the abstract communication model of Section 1.3 of
the paper as a reproducible, vectorised simulator:

* :mod:`~repro.substrate.rng` — reproducible random-stream management;
* :mod:`~repro.substrate.noise` — per-message binary symmetric channel noise;
* :mod:`~repro.substrate.network` — uniform push gossip with single-accept
  collision semantics;
* :mod:`~repro.substrate.faults` — fault models (crash-stop and Byzantine
  senders) with a dedicated random stream.

Agent state is plain arrays owned by the protocols: ``int8`` opinions with
:data:`repro.core.opinions.NO_OPINION` for "none yet", and ``bool``
activation flags.
"""

from .faults import (
    NONE,
    ByzantineSenders,
    CrashStop,
    FaultInjector,
    FaultModel,
    NoFaults,
    build_injector,
)
from .network import DeliveryReport, PushGossipNetwork
from .noise import BinarySymmetricChannel, NoiseChannel, PerfectChannel, validate_epsilon
from .rng import RandomSource, derive_seed, spawn_generator

__all__ = [
    "DeliveryReport",
    "PushGossipNetwork",
    "NoiseChannel",
    "BinarySymmetricChannel",
    "PerfectChannel",
    "validate_epsilon",
    "RandomSource",
    "derive_seed",
    "spawn_generator",
    "FaultModel",
    "NoFaults",
    "CrashStop",
    "ByzantineSenders",
    "NONE",
    "FaultInjector",
    "build_injector",
]
