"""Fault models for the simulation substrate: crash-stop and Byzantine senders.

The paper's Theorem 3.1 is a robustness statement; experiment E12 checks it
against agent faults on top of the uniform push-gossip network with i.i.d.
bit-flip noise.  This module holds the declarative fault *models*
(:class:`NoFaults`, :class:`CrashStop`, :class:`ByzantineSenders`) plus the
runtime :class:`FaultInjector` that applies one model to a simulated round.

Determinism contract (enforced by ``tests/unit/substrate/test_faults.py``
and ``tests/unit/substrate/test_resilient_delivery.py``):

* **Dedicated stream.**  Every fault decision — who is fault-prone, who
  crashes in which round, which fake bit a Byzantine sender emits — draws
  exclusively from the injector's own generator (a ``spawn_generator``
  label of the batch run, ``"batch-faults"`` for the paper's protocol).
  Non-faulty agents' delivery and noise draws are never touched by fault
  decisions.
* **Fixed main-stream consumption.**  When an injector is active,
  :mod:`repro.substrate.network` switches to *positional* full-grid draws so
  the main stream consumes exactly the same number of variates per round
  regardless of which agents crashed.  A crash in round ``t`` therefore
  cannot shift the RNG consumption of other agents in rounds ``>= t``.
* **`NoFaults` is free.**  :func:`build_injector` returns ``None`` for
  :class:`NoFaults`, and every call site treats ``None`` as "take the
  pre-existing code path byte for byte" — pinned by
  ``tests/unit/test_fault_none_regression.py`` across all E1-E11 drivers.

Faults exist only on ``(R, n)`` grids: a serial faulty trial is a batch run
at ``R = 1`` under the trial's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "FaultModel",
    "NoFaults",
    "CrashStop",
    "ByzantineSenders",
    "NONE",
    "FaultInjector",
    "build_injector",
]


@dataclass(frozen=True)
class NoFaults:
    """The identity fault model: no agent ever misbehaves.

    Exists so call sites can say ``faults=NONE`` explicitly; the injector
    factory maps it to ``None`` and the substrate stays on its pre-fault
    code path (bit-identical outputs, see the module docstring).
    """

    kind: str = field(default="none", init=False)


@dataclass(frozen=True)
class CrashStop:
    """Crash-stop senders: fault-prone agents may halt permanently.

    A fraction ``fraction`` of the non-``immune`` agents is marked
    fault-prone (drawn once from the fault stream).  At the start of every
    round each prone, still-alive agent crashes with probability
    ``crash_probability``; a crashed agent sends nothing for the rest of the
    simulation (it can still receive, matching the classic crash-stop model
    where the process stops *acting*).

    ``forced`` overrides the probabilistic schedule for tests: a mapping of
    round index to the tuple of agent ids that crash at the start of that
    round (applied to every replicate on the batch path).
    """

    fraction: float = 0.1
    crash_probability: float = 0.05
    immune: Tuple[int, ...] = ()
    forced: Optional[Mapping[int, Tuple[int, ...]]] = None
    kind: str = field(default="crash", init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ParameterError(f"fraction must be in [0, 1], got {self.fraction}")
        if not 0.0 <= self.crash_probability <= 1.0:
            raise ParameterError(
                f"crash_probability must be in [0, 1], got {self.crash_probability}"
            )


@dataclass(frozen=True)
class ByzantineSenders:
    """Byzantine senders: a fixed faulty set transmits corrupted bits.

    A fraction ``fraction`` of the non-``immune`` agents is Byzantine (drawn
    once from the fault stream).  Whenever a Byzantine agent sends, its
    outgoing bit is replaced, *before* the noise channel, by a fresh uniform
    bit from the fault stream.
    """

    fraction: float = 0.1
    immune: Tuple[int, ...] = ()
    kind: str = field(default="byzantine", init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ParameterError(f"fraction must be in [0, 1], got {self.fraction}")


FaultModel = Union[NoFaults, CrashStop, ByzantineSenders]
FaultModel.__doc__ = (
    "Union of the concrete fault-model dataclasses accepted wherever a "
    "``faults=`` keyword appears (``None`` and :data:`NONE` both mean "
    "fault-free)."
)

#: Shared no-fault singleton, the ``FaultModel.NONE`` of the issue contract.
NONE = NoFaults()


def _draw_members(
    rng: np.random.Generator,
    num_replicates: int,
    size: int,
    fraction: float,
    immune: Sequence[int],
) -> np.ndarray:
    """Pick ``floor(fraction * eligible)`` members per replicate, fault stream only.

    Membership is drawn positionally — one uniform key per ``(replicate,
    agent)`` cell, lowest keys win — so the fault stream's consumption is a
    function of the grid shape alone.
    """
    keys = rng.random((num_replicates, size))
    immune_idx = np.asarray(sorted(set(int(i) for i in immune)), dtype=np.int64)
    if immune_idx.size:
        if immune_idx.min() < 0 or immune_idx.max() >= size:
            raise ParameterError(f"immune ids must be in [0, {size}), got {tuple(immune_idx)}")
        keys[:, immune_idx] = np.inf
    eligible = size - immune_idx.size
    count = int(np.floor(fraction * eligible))
    members = np.zeros((num_replicates, size), dtype=bool)
    if count > 0:
        chosen = np.argsort(keys, axis=1, kind="stable")[:, :count]
        np.put_along_axis(members, chosen, True, axis=1)
    return members


class FaultInjector:
    """Applies one :class:`FaultModel` to a ``(num_replicates, size)`` grid.

    The injector owns all fault state — who is prone/Byzantine and who has
    crashed — plus marginal counters that the property tests compare
    against the configured rates.
    The delivery kernel calls the grid methods; a serial trial is a
    ``num_replicates=1`` grid, so serial and batch runs share them.  All
    randomness comes from the single ``rng`` handed to the constructor (the
    dedicated fault stream); the injector never touches a delivery or noise
    generator.
    """

    def __init__(
        self,
        model: FaultModel,
        size: int,
        rng: np.random.Generator,
        num_replicates: int = 1,
    ) -> None:
        if isinstance(model, NoFaults):
            raise ParameterError("NoFaults needs no injector; use build_injector()")
        if size < 2:
            raise ParameterError(f"size must be >= 2, got {size}")
        if num_replicates < 1:
            raise ParameterError(f"num_replicates must be >= 1, got {num_replicates}")
        self.model = model
        self.size = int(size)
        self.num_replicates = int(num_replicates)
        self._rng = rng
        shape = (self.num_replicates, self.size)
        self.crashed = np.zeros(shape, dtype=bool)
        self.prone = np.zeros(shape, dtype=bool)
        self.byzantine = np.zeros(shape, dtype=bool)
        self.rounds_started = 0
        #: Marginal counters for the property tests (rates vs. configuration).
        self.counters: Dict[str, int] = {
            "crash_opportunities": 0,
            "crashes": 0,
            "byzantine_messages": 0,
        }
        if isinstance(model, CrashStop) and model.forced is None:
            self.prone = _draw_members(
                rng, self.num_replicates, self.size, model.fraction, model.immune
            )
        elif isinstance(model, ByzantineSenders):
            self.byzantine = _draw_members(
                rng, self.num_replicates, self.size, model.fraction, model.immune
            )

    # ------------------------------------------------------------------
    # round lifecycle
    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        """Advance fault state by one round (crash draws).

        Must be called exactly once per simulated round, before the round's
        send mask is filtered.  Consumes fault-stream variates only, and a
        fixed number of them per round for a given grid shape.
        """
        model = self.model
        if isinstance(model, CrashStop):
            if model.forced is not None:
                agents = model.forced.get(self.rounds_started, ())
                for agent in agents:
                    self.crashed[:, int(agent)] = True
                self.counters["crashes"] += len(agents) * self.num_replicates
            else:
                draws = self._rng.random((self.num_replicates, self.size))
                at_risk = self.prone & ~self.crashed
                newly = at_risk & (draws < model.crash_probability)
                self.counters["crash_opportunities"] += int(at_risk.sum())
                self.counters["crashes"] += int(newly.sum())
                self.crashed |= newly
        self.rounds_started += 1

    # ------------------------------------------------------------------
    # sender-side hooks
    # ------------------------------------------------------------------
    def filter_send_mask(self, send_mask: np.ndarray) -> np.ndarray:
        """Return ``send_mask`` with crashed agents silenced (batch grid)."""
        if not self.crashed.any():
            return send_mask
        return send_mask & ~self.crashed

    def corrupt_outgoing_grid(self, bits: np.ndarray, send_mask: np.ndarray) -> np.ndarray:
        """Replace Byzantine members' outgoing bits (positional fault draws).

        Always draws one fault-stream grid so consumption does not depend on
        the send mask; non-Byzantine cells are untouched.
        """
        if not isinstance(self.model, ByzantineSenders):
            return bits
        fake = self._rng.integers(0, 2, size=bits.shape, dtype=bits.dtype)
        self.counters["byzantine_messages"] += int((self.byzantine & send_mask).sum())
        return np.where(self.byzantine, fake, bits)

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def alive_mask(self) -> np.ndarray:
        """Boolean ``(num_replicates, size)`` grid of non-crashed agents."""
        return ~self.crashed

    def num_crashed(self) -> np.ndarray:
        """Per-replicate count of crashed agents."""
        return self.crashed.sum(axis=1)


def build_injector(
    model: Optional[FaultModel],
    size: int,
    rng: np.random.Generator,
    num_replicates: int = 1,
) -> Optional[FaultInjector]:
    """Build the injector for ``model``, or ``None`` for :class:`NoFaults`.

    Returning ``None`` (rather than a do-nothing injector) is load-bearing:
    every call site branches on ``injector is None`` back onto the exact
    pre-fault code path, which keeps the ``FaultModel.NONE`` bit-identity
    contract trivially true.
    """
    if model is None or isinstance(model, NoFaults):
        return None
    return FaultInjector(model, size, rng, num_replicates=num_replicates)
