"""Channel noise models for the Flip model.

Section 1.3.2 of the paper specifies that every delivered message is a single
bit which is flipped *independently* with probability at most ``1/2 - epsilon``.
The canonical channel is therefore the binary symmetric channel (BSC) with
crossover probability ``p = 1/2 - epsilon``; every experiment builds one.
The perfect channel (``epsilon = 1/2``) is the noiseless limit the tests use
as a control.

Every channel states its crossover probability ``q``
(:attr:`NoiseChannel.flip_probability`).  Push-gossip delivery
(:mod:`repro.substrate.network`) folds ``q`` into the one draw that picks a
recipient's kept message, so it never calls :meth:`NoiseChannel.transmit`;
:meth:`~NoiseChannel.transmit` and :meth:`~NoiseChannel.transmit_batch`
noise bit vectors and grids directly, for the baselines that read a bit
without a collision (the silent-wait and direct-source references).  They
consume randomness from an explicitly passed generator, never from global
state.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError

__all__ = [
    "NoiseChannel",
    "BinarySymmetricChannel",
    "PerfectChannel",
    "validate_epsilon",
]


def validate_epsilon(epsilon: float) -> float:
    """Validate that ``epsilon`` lies in the half-open interval ``(0, 1/2]``.

    Returns the value as ``float`` for convenience.  ``epsilon = 1/2`` means a
    noiseless channel; ``epsilon`` close to 0 means messages are nearly
    uniformly random.
    """
    eps = float(epsilon)
    if not 0.0 < eps <= 0.5:
        raise ParameterError(f"epsilon must lie in (0, 0.5], got {epsilon!r}")
    return eps


class NoiseChannel(abc.ABC):
    """Abstract base class for per-message bit-flipping channels."""

    #: Lower bound on the per-message correctness advantage; every concrete
    #: channel guarantees that each bit survives with probability at least
    #: ``1/2 + epsilon``.
    epsilon: float

    @property
    @abc.abstractmethod
    def flip_probability(self) -> float:
        """The probability ``q`` that a delivered bit is flipped."""

    @abc.abstractmethod
    def transmit(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return a copy of ``bits`` with noise applied.

        Parameters
        ----------
        bits:
            Integer array with values in ``{0, 1}``; one entry per delivered
            message.
        rng:
            Generator supplying the channel's randomness.
        """

    def transmit_batch(
        self, bits: np.ndarray, accept_mask: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Apply noise to the accepted entries of a batch of delivery grids.

        The batched execution path (:mod:`repro.exec.batching`) represents the
        messages accepted in one round of ``R`` independent replicates as an
        ``(R, n)`` bit grid plus an ``(R, n)`` acceptance mask.  This helper
        noises exactly the accepted entries, in row-major (replicate-major,
        recipient-ascending) order, by delegating to :meth:`transmit` on the
        flattened masked values, so the batch path noises a message exactly
        as :meth:`transmit` would.

        Parameters
        ----------
        bits:
            ``(R, n)`` integer grid; entries outside ``accept_mask`` are
            passed through untouched.
        accept_mask:
            ``(R, n)`` boolean grid marking which entries carry an accepted
            message this round.
        rng:
            Generator supplying the channel's randomness.
        """
        grid = np.asarray(bits)
        mask = np.asarray(accept_mask, dtype=bool)
        if grid.shape != mask.shape:
            raise ParameterError(
                f"bits and accept_mask must have the same shape, got {grid.shape} vs {mask.shape}"
            )
        output = grid.copy()
        if mask.any():
            output[mask] = self.transmit(grid[mask], rng)
        return output

    @staticmethod
    def _check_bits(bits: np.ndarray) -> np.ndarray:
        array = np.asarray(bits)
        if array.size and (array.min() < 0 or array.max() > 1):
            raise ParameterError("channel input bits must be 0 or 1")
        return array


@dataclass
class BinarySymmetricChannel(NoiseChannel):
    """The canonical Flip-model channel: flip each bit w.p. ``1/2 - epsilon``."""

    epsilon: float = 0.2

    def __post_init__(self) -> None:
        self.epsilon = validate_epsilon(self.epsilon)

    @property
    def flip_probability(self) -> float:
        """The crossover probability ``1/2 - epsilon``."""
        return 0.5 - self.epsilon

    def transmit(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        array = self._check_bits(bits)
        if array.size == 0:
            return array.copy()
        flip_mask = rng.random(array.shape) < self.flip_probability
        return np.where(flip_mask, 1 - array, array)


@dataclass
class PerfectChannel(NoiseChannel):
    """A noiseless channel (``epsilon = 1/2``), the tests' no-noise control."""

    epsilon: float = 0.5

    def __post_init__(self) -> None:
        self.epsilon = 0.5

    @property
    def flip_probability(self) -> float:
        """No bit is ever flipped."""
        return 0.0

    def transmit(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self._check_bits(bits).copy()
