"""The noisy majority-consensus protocol (Corollary 2.18).

The majority-consensus problem starts from a subset ``A`` of opinionated
agents whose majority-bias towards ``B`` is
``(A_B - A_notB) / (2 |A|)``; everyone else has no opinion.  Corollary 2.18
shows that whenever ``|A| = Omega(log n / eps^2)`` and the bias is
``Omega(sqrt(log n / |A|))``, the problem is solved by running the broadcast
algorithm starting from Stage-I phase

    ``i_A = log(|A| / log n) / (2 log(1 / eps))``

(the phase whose activated-set size matches ``|A|``), followed by Stage II.
This module provides the start-phase computation and a one-call
convenience function; the protocol's rule is
:func:`repro.exec.batching.run_majority_batch`, which the function runs at
``R = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import ParameterError
from .parameters import ProtocolParameters

__all__ = [
    "MajorityConsensusResult",
    "compute_start_phase",
    "solve_noisy_majority_consensus",
]


@dataclass(frozen=True)
class MajorityConsensusResult:
    """Outcome of a noisy majority-consensus run."""

    success: bool
    majority_opinion: int
    n: int
    epsilon: float
    initial_set_size: int
    initial_bias: float
    start_phase: int
    rounds: int
    messages_sent: int
    final_correct_fraction: float


def compute_start_phase(parameters: ProtocolParameters, initial_set_size: int) -> int:
    """Corollary 2.18's ``i_A = log(|A| / log n) / (2 log(1/eps))``, clamped to the schedule.

    The returned phase is clamped to ``[1, T + 1]`` so that the initial set
    always plays the role of "the agents activated before phase ``i_A``": the
    corollary's formula can exceed the number of phases when ``|A|`` is large
    relative to the (calibrated) phase growth, in which case starting at the
    final spreading phase is the faithful choice — the remaining job is just
    to activate the rest of the population and boost.
    """
    if initial_set_size < 1:
        raise ParameterError("initial_set_size must be positive")
    n = parameters.n
    epsilon = parameters.epsilon
    log_n = math.log(max(n, 2))
    ratio = initial_set_size / log_n
    if ratio <= 1.0 or epsilon >= 0.5:
        phase = 1
    else:
        phase = int(round(math.log(ratio) / (2.0 * math.log(1.0 / epsilon))))
    last_phase = parameters.stage1.num_phases - 1
    return int(min(max(phase, 1), last_phase))


def solve_noisy_majority_consensus(
    n: int,
    epsilon: float,
    initial_set_size: int,
    majority_bias: float,
    seed: int = 0,
    majority_opinion: int = 1,
    parameters: Optional[ProtocolParameters] = None,
    **calibration_overrides: float,
) -> MajorityConsensusResult:
    """Generate a random instance and solve it once.

    The run is :func:`repro.exec.batching.run_majority_batch` at
    ``R = 1`` with ``seed`` as its base seed.

    Parameters
    ----------
    n, epsilon, seed:
        Instance size, noise margin and root seed.
    initial_set_size, majority_bias, majority_opinion:
        The initial opinionated set ``A``: its size, its majority-bias towards
        ``majority_opinion``.
    parameters:
        Optional explicit protocol parameters (calibrated preset otherwise).
    """
    from ..exec.batching import run_majority_batch

    batch = run_majority_batch(
        n=n,
        epsilon=epsilon,
        num_replicates=1,
        initial_set_size=initial_set_size,
        majority_bias=majority_bias,
        base_seed=seed,
        majority_opinion=majority_opinion,
        parameters=parameters,
        **calibration_overrides,
    )
    return MajorityConsensusResult(
        success=bool(batch.success[0]),
        majority_opinion=batch.majority_opinion,
        n=batch.n,
        epsilon=batch.epsilon,
        initial_set_size=batch.initial_set_size,
        initial_bias=batch.initial_bias,
        start_phase=batch.start_phase,
        rounds=batch.rounds,
        messages_sent=int(batch.messages_sent[0]),
        final_correct_fraction=float(batch.final_correct_fraction[0]),
    )
