"""Opinion algebra used throughout the protocols.

The paper treats the two opinions ``{0, 1}`` as *abstract symmetric* values
(Section 1.3.4): agents may compare opinions and transmit them, but no agent
behaviour may depend on which concrete value is the correct one.  The helpers
in this module keep that symmetry explicit: everything is expressed in terms
of "the correct opinion ``B``" passed in by the experiment harness, never a
hard-coded 0 or 1.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..errors import ParameterError

__all__ = [
    "NO_OPINION",
    "OPINIONS",
    "validate_opinion",
    "opposite",
    "majority_opinion",
    "majority_from_counts",
    "bias_from_counts",
    "counts_from_bias",
    "correct_probability_after_noise",
]

#: The two admissible opinions of the Flip model.
OPINIONS: Tuple[int, int] = (0, 1)

#: Sentinel opinion value meaning "this agent has not adopted any opinion".
NO_OPINION: int = -1


def validate_opinion(opinion: int) -> int:
    """Return ``opinion`` as an ``int`` after checking it is 0 or 1."""
    if opinion not in OPINIONS:
        raise ParameterError(f"opinion must be 0 or 1, got {opinion!r}")
    return int(opinion)


def opposite(opinion: int) -> int:
    """The other opinion."""
    return 1 - validate_opinion(opinion)


def majority_opinion(
    bits: Iterable[int], rng: Optional[np.random.Generator] = None
) -> int:
    """Majority value of a collection of bits, ties broken uniformly at random.

    Parameters
    ----------
    bits:
        Iterable of values in ``{0, 1}``.
    rng:
        Generator used only to break ties; required if a tie is possible and
        reached (a deterministic 0 is returned for an empty input without an
        rng would be a bias, so an empty input raises instead).
    """
    array = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
    if array.size == 0:
        raise ParameterError("cannot take the majority of zero samples")
    ones = int(np.count_nonzero(array))
    zeros = int(array.size - ones)
    return majority_from_counts(zeros, ones, rng=rng)


def majority_from_counts(
    zeros: int, ones: int, rng: Optional[np.random.Generator] = None
) -> int:
    """Majority opinion given counts of zeros and ones, random tie-break."""
    if zeros < 0 or ones < 0:
        raise ParameterError("counts must be non-negative")
    if zeros + ones == 0:
        raise ParameterError("cannot take the majority of zero samples")
    if ones > zeros:
        return 1
    if zeros > ones:
        return 0
    if rng is None:
        raise ParameterError("tie encountered but no rng provided for tie-breaking")
    return int(rng.integers(0, 2))


def bias_from_counts(correct: int, wrong: int) -> float:
    """Majority-bias as defined in Section 1.3.1: ``(correct - wrong) / (2 (correct + wrong))``."""
    if correct < 0 or wrong < 0:
        raise ParameterError("counts must be non-negative")
    total = correct + wrong
    if total == 0:
        return 0.0
    return (correct - wrong) / (2 * total)


def counts_from_bias(total: int, bias: float) -> Tuple[int, int]:
    """Split ``total`` agents into (correct, wrong) realising a bias close to ``bias``.

    The returned counts satisfy ``correct + wrong == total`` and produce the
    closest achievable bias not below the requested one (when feasible).
    """
    if total < 0:
        raise ParameterError("total must be non-negative")
    if not -0.5 <= bias <= 0.5:
        raise ParameterError(f"bias must lie in [-1/2, 1/2], got {bias!r}")
    correct = int(np.ceil(total * (0.5 + bias)))
    correct = min(max(correct, 0), total)
    return correct, total - correct


def correct_probability_after_noise(bias: float, epsilon: float) -> float:
    """Probability that a noisy sample of a biased population is correct.

    This is the identity used repeatedly in the paper (e.g. Claim 2.8 and
    Lemma 2.11): sampling a population whose correct fraction is
    ``1/2 + bias`` through a channel that preserves a bit with probability
    ``1/2 + epsilon`` yields a correct bit with probability::

        (1/2 + bias)(1/2 + epsilon) + (1/2 - bias)(1/2 - epsilon) = 1/2 + 2 epsilon bias
    """
    return 0.5 + 2.0 * epsilon * bias
