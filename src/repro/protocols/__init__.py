"""Baseline and comparator protocols.

These are the algorithms the paper's protocol is compared against in the
experiments (notably E7 and E11, see README.md): the naive strategies whose
failure modes Section 1.6 discusses, the idealised direct-from-source
reference of Section 1.4, and the related-work noisy voter model; plus the
fault-tolerant approximate-consensus comparator of experiment E12.

Each module holds one protocol's parameters and its only step rule, which
runs ``R`` replicates on ``(R, n)`` grids; a serial trial is the rule at
``R = 1`` under the trial's own seed.
"""

from .base import BaselineProtocol, BatchBaselineResult
from .direct_source import DirectSourceReference
from .fault_tolerant import (
    BatchConsensusResult,
    PhasedApproximateConsensus,
    consensus_phase_budget,
    declared_fault_tolerance,
    run_consensus_comparator_batch,
)
from .naive_forward import ImmediateForwardingBroadcast
from .noisy_voter import NoisyVoterBroadcast
from .silent_wait import SilentWaitBroadcast, default_decision_threshold

__all__ = [
    "BaselineProtocol",
    "BatchBaselineResult",
    "DirectSourceReference",
    "ImmediateForwardingBroadcast",
    "NoisyVoterBroadcast",
    "SilentWaitBroadcast",
    "default_decision_threshold",
    "BatchConsensusResult",
    "PhasedApproximateConsensus",
    "consensus_phase_budget",
    "declared_fault_tolerance",
    "run_consensus_comparator_batch",
]
