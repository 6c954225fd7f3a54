"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.backends import LocalPoolBackend, use_backend
from repro.substrate import BinarySymmetricChannel, PushGossipNetwork


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator for tests that need raw randomness."""
    return np.random.default_rng(123456789)


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
