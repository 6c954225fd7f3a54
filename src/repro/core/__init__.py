"""The paper's primary contribution: the two-stage "breathe before speaking" protocol.

Public surface:

* parameters and schedules — :class:`ProtocolParameters`, phase schedules;
* Stage I / Stage II executors — :func:`execute_stage_one`,
  :func:`execute_stage_two`, on a global clock or on skewed local clocks;
* the complete protocols — :class:`NoisyBroadcastProtocol`,
  :class:`NoisyMajorityConsensusProtocol`, and their one-call wrappers
  :func:`solve_noisy_broadcast` / :func:`solve_noisy_majority_consensus`;
* the Section-3 clock-free variants — :class:`ClockFreeBroadcastProtocol`,
  :func:`run_clock_free_broadcast`, :func:`run_with_bounded_skew`, and their
  guard-dilated schedules :func:`guarded_schedules`;
* closed-form theoretical predictions — :mod:`repro.core.theory`.
"""

from .broadcast import BroadcastResult, NoisyBroadcastProtocol, solve_noisy_broadcast
from .majority import (
    MajorityConsensusResult,
    MajorityInstance,
    NoisyMajorityConsensusProtocol,
    compute_start_phase,
    solve_noisy_majority_consensus,
)
from .opinions import (
    OPINIONS,
    bias_from_counts,
    correct_probability_after_noise,
    counts_from_bias,
    majority_from_counts,
    majority_opinion,
    opposite,
    validate_opinion,
)
from .parameters import (
    ProtocolParameters,
    StageOneParameters,
    StageTwoParameters,
    compute_num_intermediate_phases,
    initial_bias_target,
    minimum_epsilon,
)
from .schedule import PhaseInterval, PhaseSchedule, build_stage1_schedule, build_stage2_schedule
from .stage1 import ReceptionAccumulator, StageOnePhaseSummary, StageOneResult, execute_stage_one
from .stage2 import (
    SampleAccumulator,
    StageTwoPhaseSummary,
    StageTwoResult,
    execute_stage_two,
    majority_of_random_subset,
)
from .synchronizer import (
    ActivationPhaseResult,
    ClockFreeBroadcastProtocol,
    ClockFreeBroadcastResult,
    default_guard,
    guarded_schedules,
    run_activation_phase,
    run_clock_free_broadcast,
    run_with_bounded_skew,
)
from . import theory

__all__ = [
    "BroadcastResult",
    "NoisyBroadcastProtocol",
    "solve_noisy_broadcast",
    "MajorityConsensusResult",
    "MajorityInstance",
    "NoisyMajorityConsensusProtocol",
    "compute_start_phase",
    "solve_noisy_majority_consensus",
    "OPINIONS",
    "bias_from_counts",
    "correct_probability_after_noise",
    "counts_from_bias",
    "majority_from_counts",
    "majority_opinion",
    "opposite",
    "validate_opinion",
    "ProtocolParameters",
    "StageOneParameters",
    "StageTwoParameters",
    "compute_num_intermediate_phases",
    "initial_bias_target",
    "minimum_epsilon",
    "PhaseInterval",
    "PhaseSchedule",
    "build_stage1_schedule",
    "build_stage2_schedule",
    "ReceptionAccumulator",
    "StageOnePhaseSummary",
    "StageOneResult",
    "execute_stage_one",
    "SampleAccumulator",
    "StageTwoPhaseSummary",
    "StageTwoResult",
    "execute_stage_two",
    "majority_of_random_subset",
    "ActivationPhaseResult",
    "ClockFreeBroadcastProtocol",
    "ClockFreeBroadcastResult",
    "default_guard",
    "guarded_schedules",
    "run_activation_phase",
    "run_clock_free_broadcast",
    "run_with_bounded_skew",
    "theory",
]
