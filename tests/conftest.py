"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.backends import LocalPoolBackend, use_backend
from repro.substrate import BinarySymmetricChannel, PushGossipNetwork, SimulationEngine


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator for tests that need raw randomness."""
    return np.random.default_rng(123456789)


@pytest.fixture
def small_engine() -> SimulationEngine:
    """A 50-agent engine with moderate noise, deterministic seed."""
    return SimulationEngine.create(n=50, epsilon=0.25, seed=4242)


@pytest.fixture
def medium_engine() -> SimulationEngine:
    """A 400-agent engine used by the slower protocol-level unit tests."""
    return SimulationEngine.create(n=400, epsilon=0.25, seed=777)


@pytest.fixture
def make_engine():
    """Factory fixture: build engines with custom n / epsilon / seed / source."""

    def _make(n: int = 100, epsilon: float = 0.25, seed: int = 1, source=0, **kwargs):
        return SimulationEngine.create(n=n, epsilon=epsilon, seed=seed, source=source, **kwargs)

    return _make


@pytest.fixture
def on_local_pool():
    """Call ``fn(*args, **kwargs)`` with a two-worker local pool as this thread's backend.

    The pool is built, installed, and closed around the one call — what
    :func:`repro.api.run_experiment` does for ``backend="local"`` — so
    library-level sweeps can be compared against their in-process results.
    """

    def _call(fn, *args, **kwargs):
        backend = LocalPoolBackend(workers=2)
        with backend, use_backend(backend):
            return fn(*args, **kwargs)

    return _call


@pytest.fixture
def network_and_channel():
    """A (network, channel, rng) triple over 64 agents."""
    network = PushGossipNetwork(size=64)
    channel = BinarySymmetricChannel(epsilon=0.3)
    return network, channel, np.random.default_rng(2024)
