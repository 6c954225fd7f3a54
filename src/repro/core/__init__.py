"""The paper's primary contribution: the two-stage "breathe before speaking" protocol.

Public surface:

* parameters and schedules — :class:`ProtocolParameters`, phase schedules;
* the serial Stage I / Stage II executors — :func:`execute_stage_one`,
  :func:`execute_stage_two`, which run on plain opinion and activation
  arrays — and the broadcast protocol they make up,
  :func:`solve_noisy_broadcast`;
* Corollary 2.18's majority consensus, :func:`solve_noisy_majority_consensus`,
  and the Section-3 clock-free variants, :func:`run_clock_free_broadcast` and
  :func:`run_with_bounded_skew` (with their guard-dilated schedules
  :func:`guarded_schedules`): each is one run of its ``(R, n)`` rule in
  :mod:`repro.exec` at ``R = 1``, so late starts, skewed clocks and
  faulty agents are written once, as batch kernels;
* closed-form theoretical predictions — :mod:`repro.core.theory`.
"""

from .broadcast import BroadcastResult, solve_noisy_broadcast
from .majority import (
    MajorityConsensusResult,
    compute_start_phase,
    solve_noisy_majority_consensus,
)
from .opinions import (
    NO_OPINION,
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
    ClockFreeBroadcastResult,
    default_guard,
    guarded_schedules,
    run_clock_free_broadcast,
    run_with_bounded_skew,
)
from . import theory

__all__ = [
    "BroadcastResult",
    "solve_noisy_broadcast",
    "MajorityConsensusResult",
    "compute_start_phase",
    "solve_noisy_majority_consensus",
    "NO_OPINION",
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
    "ClockFreeBroadcastResult",
    "default_guard",
    "guarded_schedules",
    "run_clock_free_broadcast",
    "run_with_bounded_skew",
    "theory",
]
