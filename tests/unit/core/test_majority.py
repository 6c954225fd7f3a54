"""Unit tests for repro.core.majority and the majority instance it seeds."""

import numpy as np
import pytest

from repro.core.majority import compute_start_phase, solve_noisy_majority_consensus
from repro.core.parameters import ProtocolParameters
from repro.core.schedule import build_stage1_schedule
from repro.errors import ParameterError, SimulationError
from repro.exec.batching import run_majority_batch
from repro.exec.stage_batching import population_bias_grid, seeded_batch_state
from repro.core.opinions import NO_OPINION


class TestSeededInstance:
    """The initially opinionated set ``A`` of every replicate."""

    def test_instance_respects_size_and_bias(self, rng):
        state = seeded_batch_state(500, 3, 100, 0.2, 1, rng)
        assert (state.activated.sum(axis=1) == 100).all()
        assert ((state.opinions != NO_OPINION) == state.activated).all()
        assert (population_bias_grid(state.opinions, 1) >= 0.2).all()

    def test_instance_with_opinion_zero(self, rng):
        state = seeded_batch_state(500, 3, 60, 0.1, 0, rng)
        assert ((state.opinions == 0).sum(axis=1) > 30).all()

    def test_instance_validations(self, rng):
        with pytest.raises(ParameterError):
            seeded_batch_state(10, 1, 20, 0.1, 1, rng)
        with pytest.raises(ParameterError):
            seeded_batch_state(10, 1, 5, -0.1, 1, rng)


class TestComputeStartPhase:
    def test_matches_corollary_formula_in_range(self):
        parameters = ProtocolParameters.calibrated(50_000, 0.3, beta_override=8)
        # |A| = log n * (1/eps^2)^i  =>  i_A ~ i.
        log_n = np.log(50_000)
        set_size = int(log_n / (0.3**4))  # i = 2
        expected = round(np.log(set_size / log_n) / (2 * np.log(1 / 0.3)))
        assert compute_start_phase(parameters, set_size) == min(
            max(expected, 1), parameters.stage1.num_phases - 1
        )

    def test_small_sets_start_at_phase_one(self):
        parameters = ProtocolParameters.calibrated(2000, 0.25)
        assert compute_start_phase(parameters, 5) == 1

    def test_huge_sets_clamped_to_last_phase(self):
        parameters = ProtocolParameters.calibrated(2000, 0.25)
        assert compute_start_phase(parameters, 2000) == parameters.stage1.num_phases - 1

    def test_invalid_size(self):
        parameters = ProtocolParameters.calibrated(2000, 0.25)
        with pytest.raises(ParameterError):
            compute_start_phase(parameters, 0)

    def test_e8_defaults_never_start_late(self):
        """E8's defaults (n = 2000, eps = 0.2) give Stage I two phases, so
        every default |A| (50, 200, 800) starts at the final phase 1."""
        parameters = ProtocolParameters.calibrated(2000, 0.2)
        assert parameters.stage1.num_phases == 2
        assert [compute_start_phase(parameters, size) for size in (50, 200, 800)] == [1, 1, 1]

    def test_late_start_first_appears_at_n_4000_eps_045(self):
        """Up to n = 4000 at eps in {0.2, 0.3, 0.4, 0.45}, only n = 4000,
        eps = 0.45 has a third Stage-I phase, where |A| = 200 and 800 start
        at phase 2."""
        for n in (500, 1000, 2000, 4000):
            for epsilon in (0.2, 0.3, 0.4, 0.45):
                expected = 3 if (n, epsilon) == (4000, 0.45) else 2
                assert ProtocolParameters.calibrated(n, epsilon).stage1.num_phases == expected
        parameters = ProtocolParameters.calibrated(4000, 0.45)
        assert [compute_start_phase(parameters, size) for size in (50, 200, 800)] == [1, 2, 2]


class TestSolveMajorityConsensus:
    def test_succeeds_above_threshold(self):
        result = solve_noisy_majority_consensus(
            n=400, epsilon=0.3, initial_set_size=120, majority_bias=0.25, seed=5
        )
        assert result.success
        assert result.final_correct_fraction == 1.0
        assert result.initial_set_size == 120
        assert result.initial_bias >= 0.25

    def test_converges_to_majority_zero(self):
        result = solve_noisy_majority_consensus(
            n=400, epsilon=0.3, initial_set_size=120, majority_bias=0.25, seed=7, majority_opinion=0
        )
        assert result.success
        assert result.majority_opinion == 0

    def test_complexity_accounting(self):
        parameters = ProtocolParameters.calibrated(400, 0.3)
        result = solve_noisy_majority_consensus(
            n=400, epsilon=0.3, initial_set_size=120, majority_bias=0.25, seed=9
        )
        stage1 = build_stage1_schedule(parameters.stage1, start_phase=result.start_phase)
        assert result.rounds == stage1.total_rounds + parameters.stage2.total_rounds
        assert 0 < result.messages_sent <= 400 * result.rounds

    def test_reproducibility(self):
        kwargs = dict(n=300, epsilon=0.3, initial_set_size=80, majority_bias=0.2, seed=31)
        assert (
            solve_noisy_majority_consensus(**kwargs).messages_sent
            == solve_noisy_majority_consensus(**kwargs).messages_sent
        )

    def test_late_start_skips_early_phases(self):
        parameters = ProtocolParameters.calibrated(400, 0.3)
        broadcast_rounds = parameters.total_rounds
        result = solve_noisy_majority_consensus(
            n=400, epsilon=0.3, initial_set_size=150, majority_bias=0.25, seed=11, parameters=parameters
        )
        assert result.start_phase >= 1
        assert result.rounds < broadcast_rounds


class TestStartPhase:
    def test_explicit_start_phase_override(self):
        parameters = ProtocolParameters.calibrated(300, 0.3)
        last_phase = parameters.stage1.num_phases - 1
        result = run_majority_batch(
            n=300, epsilon=0.3, num_replicates=1, initial_set_size=90, majority_bias=0.25,
            base_seed=13, parameters=parameters, start_phase=last_phase,
        )
        assert result.start_phase == last_phase
        assert result.rounds == (
            parameters.stage1.phase_length(last_phase) + parameters.stage2.total_rounds
        )

    def test_start_phase_past_stage1_rejected(self):
        """n = 200, eps = 0.3 has two Stage-I phases; starting at phase 5 used
        to run Stage I for zero rounds."""
        parameters = ProtocolParameters.calibrated(200, 0.3)
        assert parameters.stage1.num_phases == 2
        with pytest.raises(ParameterError, match="start_phase 5 out of range"):
            run_majority_batch(
                n=200, epsilon=0.3, num_replicates=1, initial_set_size=60, majority_bias=0.25,
                base_seed=13, parameters=parameters, start_phase=5,
            )

    def test_rejects_parameters_of_another_n(self):
        parameters = ProtocolParameters.calibrated(300, 0.3)
        with pytest.raises(SimulationError):
            solve_noisy_majority_consensus(
                n=100, epsilon=0.3, initial_set_size=30, majority_bias=0.2, seed=13,
                parameters=parameters,
            )
