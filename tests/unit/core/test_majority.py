"""Unit tests for repro.core.majority."""

import numpy as np
import pytest

from repro.core.majority import (
    MajorityInstance,
    NoisyMajorityConsensusProtocol,
    compute_start_phase,
    solve_noisy_majority_consensus,
)
from repro.core.parameters import ProtocolParameters
from repro.errors import ParameterError, SimulationError
from repro.substrate import SimulationEngine


class TestMajorityInstance:
    def test_generate_respects_size_and_bias(self, rng):
        instance = MajorityInstance.generate(n=500, size=100, bias=0.2, majority_opinion=1, rng=rng)
        assert instance.size == 100
        assert np.unique(instance.members).size == 100
        assert instance.majority_bias >= 0.2
        assert instance.majority_opinion == 1

    def test_generate_with_opinion_zero(self, rng):
        instance = MajorityInstance.generate(n=500, size=60, bias=0.1, majority_opinion=0, rng=rng)
        zeros = int(np.count_nonzero(instance.opinions == 0))
        assert zeros > instance.size / 2

    def test_generate_validations(self, rng):
        with pytest.raises(ParameterError):
            MajorityInstance.generate(n=10, size=20, bias=0.1, majority_opinion=1, rng=rng)
        with pytest.raises(ParameterError):
            MajorityInstance.generate(n=10, size=5, bias=-0.1, majority_opinion=1, rng=rng)

    def test_mismatched_members_opinions(self):
        with pytest.raises(ParameterError):
            MajorityInstance(
                members=np.asarray([1, 2]), opinions=np.asarray([1]), majority_opinion=1
            )


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
        result = solve_noisy_majority_consensus(
            n=400, epsilon=0.3, initial_set_size=120, majority_bias=0.25, seed=9
        )
        assert result.rounds == result.stage1.rounds + result.stage2.rounds
        assert result.messages_sent == result.stage1.messages_sent + result.stage2.messages_sent

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


class TestProtocolClass:
    def test_explicit_start_phase_override(self, rng):
        parameters = ProtocolParameters.calibrated(300, 0.3)
        engine = SimulationEngine.create(n=300, epsilon=0.3, seed=13, source=None)
        instance = MajorityInstance.generate(n=300, size=90, bias=0.25, majority_opinion=1, rng=rng)
        last_phase = parameters.stage1.num_phases - 1
        protocol = NoisyMajorityConsensusProtocol(parameters, start_phase=last_phase)
        result = protocol.run(engine, instance)
        assert result.start_phase == last_phase
        assert result.stage1.phases[0].phase == last_phase

    def test_start_phase_past_stage1_rejected(self, rng):
        """n = 200, eps = 0.3 has two Stage-I phases; starting at phase 5 used
        to run Stage I for zero rounds."""
        parameters = ProtocolParameters.calibrated(200, 0.3)
        assert parameters.stage1.num_phases == 2
        engine = SimulationEngine.create(n=200, epsilon=0.3, seed=13, source=None)
        instance = MajorityInstance.generate(n=200, size=60, bias=0.25, majority_opinion=1, rng=rng)
        protocol = NoisyMajorityConsensusProtocol(parameters, start_phase=5)
        with pytest.raises(ParameterError, match="start_phase 5 out of range"):
            protocol.run(engine, instance)

    def test_rejects_mismatched_engine(self, rng):
        parameters = ProtocolParameters.calibrated(300, 0.3)
        engine = SimulationEngine.create(n=100, epsilon=0.3, seed=13, source=None)
        instance = MajorityInstance.generate(n=100, size=30, bias=0.2, majority_opinion=1, rng=rng)
        with pytest.raises(SimulationError):
            NoisyMajorityConsensusProtocol(parameters).run(engine, instance)
