"""Deterministic random-stream management for simulations.

Reproducibility is central to the experiment harness: every trial of every
experiment must be replayable from a single integer seed.  At the same time,
the Flip model involves several *logically independent* sources of
randomness:

* protocol randomness (which message an agent adopts, which subset it
  samples),
* delivery randomness (which agent a message is pushed to, collision
  resolution),
* channel noise (which bits get flipped).

:class:`RandomSource` wraps :class:`numpy.random.Generator` and hands out
named, independently seeded child streams so that, for instance, changing how
many random numbers the noise channel consumes does not perturb the delivery
pattern.  This mirrors the paper's Section 3 argument, which fixes the
"message scheduler" randomness independently of message contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

import numpy as np

__all__ = ["RandomSource", "spawn_generator", "derive_seed", "derive_seeds"]

_MAX_SEED = 2**63 - 1


def derive_seed(root_seed: int, *tokens: object) -> int:
    """Derive a child seed from ``root_seed`` and a sequence of tokens.

    The derivation uses :class:`numpy.random.SeedSequence` so that distinct
    token tuples yield statistically independent streams.  Tokens are hashed
    through their ``repr`` which keeps the derivation stable across processes
    (unlike ``hash`` on strings, which is salted per interpreter).

    Parameters
    ----------
    root_seed:
        The experiment-level seed.
    tokens:
        Arbitrary hashable labels, e.g. ``("trial", 7, "noise")``.

    Returns
    -------
    int
        A non-negative integer seed suitable for :func:`numpy.random.default_rng`.
    """
    token_digest = np.frombuffer(
        repr(tokens).encode("utf-8"), dtype=np.uint8
    ).astype(np.uint32)
    seq = np.random.SeedSequence(entropy=int(root_seed) & _MAX_SEED, spawn_key=tuple(token_digest))
    return int(seq.generate_state(1, dtype=np.uint64)[0] & _MAX_SEED)


def derive_seeds(root_seed: int, count: int, *tokens: object) -> np.ndarray:
    """Derive ``count`` independent child seeds, one per index.

    Batch-aware counterpart of :func:`derive_seed` used by the trial seed
    derivation in :mod:`repro.exec.runner`: element ``i`` equals
    ``derive_seed(root_seed, *tokens, i)`` exactly, so a batch of trials and a
    serial loop over the same indices see identical per-trial seeds.

    Parameters
    ----------
    root_seed:
        The experiment-level seed.
    count:
        Number of child seeds to derive (indices ``0 .. count - 1``).
    tokens:
        Arbitrary labels prefixed to the per-index token tuple.

    Returns
    -------
    numpy.ndarray
        ``count`` non-negative ``int64`` seeds.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return np.asarray(
        [derive_seed(root_seed, *tokens, index) for index in range(count)], dtype=np.int64
    )


def spawn_generator(root_seed: int, *tokens: object) -> np.random.Generator:
    """Return a fresh :class:`numpy.random.Generator` for ``(root_seed, tokens)``."""
    return np.random.default_rng(derive_seed(root_seed, *tokens))


@dataclass
class RandomSource:
    """A named tree of reproducible random generators.

    Examples
    --------
    >>> source = RandomSource(seed=1234)
    >>> delivery_rng = source.stream("delivery")
    >>> noise_rng = source.stream("noise")
    >>> delivery_rng is source.stream("delivery")
    True

    The same name always returns the same generator *object*; re-creating a
    :class:`RandomSource` from the same seed recreates identical streams.
    """

    seed: int
    _streams: Dict[str, np.random.Generator] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(self.seed).__name__}")
        self.seed = int(self.seed)

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if necessary) the generator for stream ``name``."""
        if name not in self._streams:
            self._streams[name] = spawn_generator(self.seed, "stream", name)
        return self._streams[name]

    def child(self, *tokens: object) -> "RandomSource":
        """Return a new :class:`RandomSource` derived from this one.

        Used to give every trial of an experiment its own independent tree:
        ``source.child("trial", trial_index)``.
        """
        return RandomSource(seed=derive_seed(self.seed, "child", *tokens))

    def children(self, count: int, label: str = "trial") -> Iterator["RandomSource"]:
        """Yield ``count`` independent child sources labelled ``label``."""
        for index in range(count):
            yield self.child(label, index)

    def integers(self, low: int, high: Optional[int] = None, size: Optional[int] = None):
        """Convenience proxy to the ``"default"`` stream's ``integers``."""
        return self.stream("default").integers(low, high=high, size=size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomSource(seed={self.seed}, streams={sorted(self._streams)})"
