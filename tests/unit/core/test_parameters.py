"""Unit tests for repro.core.parameters."""

import math

import pytest

from repro.core.parameters import (
    ProtocolParameters,
    StageOneParameters,
    StageTwoParameters,
    compute_num_intermediate_phases,
    initial_bias_target,
    minimum_epsilon,
)
from repro.errors import ParameterError


class TestHelpers:
    def test_minimum_epsilon_decreases_with_n(self):
        assert minimum_epsilon(100) > minimum_epsilon(10_000)

    def test_minimum_epsilon_matches_formula(self):
        assert minimum_epsilon(10_000, eta=0.05) == pytest.approx(10_000 ** (-0.45))

    def test_initial_bias_target(self):
        assert initial_bias_target(1000) == pytest.approx(math.sqrt(math.log(1000) / 1000))

    def test_compute_T_respects_paper_bound(self):
        # beta_s * (beta+1)^T <= n/2 must hold for the returned T.
        for n in (1_000, 50_000, 1_000_000):
            for beta_s, beta in ((50, 10), (200, 30), (20, 4)):
                T = compute_num_intermediate_phases(n, beta_s, beta)
                assert beta_s * (beta + 1) ** T <= n / 2 or T == 0
                # T+1 would violate the bound (maximality), unless T is 0 anyway.
                if T > 0:
                    assert beta_s * (beta + 1) ** (T + 1) > n / 2

    def test_compute_T_small_population(self):
        assert compute_num_intermediate_phases(100, beta_s=100, beta=10) == 0


class TestStageOneParameters:
    def test_phase_lengths(self):
        stage1 = StageOneParameters(beta_s=100, beta=10, beta_f=200, num_intermediate_phases=3)
        assert stage1.num_phases == 5
        assert stage1.phase_length(0) == 100
        assert stage1.phase_length(1) == stage1.phase_length(3) == 10
        assert stage1.phase_length(4) == 200
        assert stage1.total_rounds == 100 + 3 * 10 + 200

    def test_phase_out_of_range(self):
        stage1 = StageOneParameters(beta_s=10, beta=5, beta_f=10, num_intermediate_phases=0)
        with pytest.raises(ParameterError):
            stage1.phase_length(2)

    def test_invalid_values_rejected(self):
        with pytest.raises(ParameterError):
            StageOneParameters(beta_s=0, beta=1, beta_f=1, num_intermediate_phases=0)
        with pytest.raises(ParameterError):
            StageOneParameters(beta_s=1, beta=1, beta_f=1, num_intermediate_phases=-1)


class TestStageTwoParameters:
    def test_derived_quantities(self):
        stage2 = StageTwoParameters(gamma=21, num_boost_phases=4, final_phase_rounds=100)
        assert stage2.r == 10
        assert stage2.boost_phase_rounds == 42
        assert stage2.num_phases == 5
        assert stage2.phase_length(1) == 42
        assert stage2.phase_length(5) == 100
        assert stage2.total_rounds == 4 * 42 + 100

    def test_gamma_must_be_odd(self):
        with pytest.raises(ParameterError):
            StageTwoParameters(gamma=20, num_boost_phases=1, final_phase_rounds=10)

    def test_phase_out_of_range(self):
        stage2 = StageTwoParameters(gamma=5, num_boost_phases=1, final_phase_rounds=10)
        with pytest.raises(ParameterError):
            stage2.phase_length(0)
        with pytest.raises(ParameterError):
            stage2.phase_length(3)


class TestCalibratedPreset:
    def test_functional_forms(self):
        params = ProtocolParameters.calibrated(4000, 0.2, s0=2.0, b0=3.0)
        assert params.stage1.beta_s == max(8, math.ceil(2.0 * math.log(4000) / 0.04))
        assert params.stage1.beta == math.ceil(3.0 / 0.04)
        assert params.stage2.gamma % 2 == 1

    def test_rounds_scale_with_inverse_eps_squared(self):
        low_noise = ProtocolParameters.calibrated(2000, 0.4)
        high_noise = ProtocolParameters.calibrated(2000, 0.1)
        ratio = high_noise.total_rounds / low_noise.total_rounds
        assert 8 <= ratio <= 24, "rounds should grow roughly like 1/eps^2 (16x from 0.4 to 0.1)"

    def test_rounds_scale_logarithmically_with_n(self):
        small = ProtocolParameters.calibrated(500, 0.25)
        large = ProtocolParameters.calibrated(50_000, 0.25)
        ratio = large.total_rounds / small.total_rounds
        assert ratio < 3.5, "a 100x larger population should cost well under 4x the rounds"

    def test_epsilon_bound_enforced(self):
        with pytest.raises(ParameterError):
            ProtocolParameters.calibrated(100, 0.01)
        # ... unless explicitly disabled.
        params = ProtocolParameters.calibrated(100, 0.01, enforce_epsilon_bound=False)
        assert params.epsilon == 0.01

    def test_beta_override(self):
        params = ProtocolParameters.calibrated(8000, 0.3, beta_override=8)
        assert params.stage1.beta == 8
        assert params.stage1.num_intermediate_phases >= 1

    def test_describe_is_serialisable(self):
        description = ProtocolParameters.calibrated(1000, 0.25).describe()
        assert description["n"] == 1000
        assert description["total_rounds"] == (
            description["stage1"]["rounds"] + description["stage2"]["rounds"]
        )


class TestPaperPreset:
    def test_paper_constants_are_much_larger(self):
        paper = ProtocolParameters.paper(10_000, 0.1)
        calibrated = ProtocolParameters.calibrated(10_000, 0.1)
        assert paper.stage2.gamma > 100 * calibrated.stage2.gamma
        assert paper.stage1.beta_s > 10 * calibrated.stage1.beta_s

    def test_paper_r_formula(self):
        paper = ProtocolParameters.paper(1000, 0.25)
        assert paper.stage2.r == math.ceil(2**22 / 0.0625)

    def test_invalid_n(self):
        with pytest.raises(ParameterError):
            ProtocolParameters.calibrated(2, 0.25)
