"""repro.testing — systems-level test instrumentation for the serving stack.

Home of the **chaos harness** (:mod:`repro.testing.chaos`), the
systems-layer sibling of the simulation-layer
:class:`~repro.substrate.faults.FaultInjector` from PR 6: where the fault
injector perturbs *messages inside a simulation* (crashed senders,
Byzantine noise), the chaos registry perturbs the *infrastructure running
the simulations* — a store write that raises mid-``put``, a job-queue
worker that dies without recording an outcome.

Production modules guard well-known **fault points** with
:func:`repro.testing.chaos.fire`; the call is a no-op dictionary miss until
a test (or the ``REPRO_CHAOS`` environment variable, for faults that must
land inside a subprocess) arms the point with a fault.  The recovery tests
in ``tests/unit/service/test_recovery.py`` and the CI chaos smoke gate are
the consumers.
"""

from __future__ import annotations

from .chaos import (
    ChaosFault,
    active_faults,
    fire,
    inject,
    install,
    install_from_env,
    reset,
    uninstall,
)

__all__ = [
    "ChaosFault",
    "active_faults",
    "fire",
    "inject",
    "install",
    "install_from_env",
    "reset",
    "uninstall",
]
