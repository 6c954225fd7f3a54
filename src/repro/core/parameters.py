"""Protocol parameters for the paper's two-stage algorithm.

Section 2 of the paper fixes the algorithm's shape but leaves its constants
as "sufficiently large": Stage I uses phase lengths ``beta_s = s log n``,
``beta`` and ``beta_f = f log n`` with ``f > c1 beta > c2 s > c3 / eps^2``;
Stage II uses ``gamma = 2r + 1`` samples per boosting phase with
``r = ceil(2^22 / eps^2)`` and ``k + 1 = O(log n)`` phases.

For simulation we keep every *functional form* intact but expose the
constants, via two presets:

* :meth:`ProtocolParameters.paper` — the literal constants from the text
  (enormous; useful only to document and unit-test the formulas);
* :meth:`ProtocolParameters.calibrated` — small constants that preserve all
  dependencies on ``n`` and ``epsilon`` and succeed with overwhelming
  empirical frequency at laptop scale (see the calibration notes below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import ParameterError
from ..substrate.noise import validate_epsilon

__all__ = [
    "StageOneParameters",
    "StageTwoParameters",
    "ProtocolParameters",
    "compute_num_intermediate_phases",
    "minimum_epsilon",
    "initial_bias_target",
]


def minimum_epsilon(n: int, eta: float = 0.05) -> float:
    """The paper's admissibility threshold ``epsilon > n**(-1/2 + eta)``."""
    if n < 2:
        raise ParameterError("n must be at least 2")
    if not 0 < eta < 0.5:
        raise ParameterError("eta must lie in (0, 1/2)")
    return float(n ** (-0.5 + eta))


def initial_bias_target(n: int) -> float:
    """The bias Stage I must deliver: ``Omega(sqrt(log n / n))`` (Lemma 2.3)."""
    if n < 2:
        raise ParameterError("n must be at least 2")
    return math.sqrt(math.log(n) / n)


def compute_num_intermediate_phases(n: int, beta_s: int, beta: int) -> int:
    """The paper's ``T = floor(log(n / (2 beta_s)) / log(beta + 1))``, clamped at 0.

    ``T`` is the number of intermediate Stage-I phases (phases ``1 .. T``);
    it satisfies ``beta_s (beta + 1)**T <= n / 2`` so that the dissemination
    tree never exhausts the dormant population prematurely.
    """
    if beta_s < 1 or beta < 1:
        raise ParameterError("beta_s and beta must be positive")
    ratio = n / (2.0 * beta_s)
    if ratio <= 1.0:
        return 0
    return max(0, int(math.floor(math.log(ratio) / math.log(beta + 1))))


@dataclass(frozen=True)
class StageOneParameters:
    """Round budget of Stage I (spreading).

    Attributes
    ----------
    beta_s:
        Length of phase 0 (only the source speaks); the paper's ``beta_s = s log n``.
    beta:
        Length of each intermediate phase ``1 .. T``.
    beta_f:
        Length of the final phase ``T + 1``; the paper's ``beta_f = f log n``.
    num_intermediate_phases:
        The paper's ``T``.
    """

    beta_s: int
    beta: int
    beta_f: int
    num_intermediate_phases: int

    def __post_init__(self) -> None:
        for name in ("beta_s", "beta", "beta_f"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be a positive number of rounds")
        if self.num_intermediate_phases < 0:
            raise ParameterError("num_intermediate_phases must be non-negative")

    @property
    def num_phases(self) -> int:
        """Total number of Stage-I phases (phase 0, ``T`` intermediate, final)."""
        return self.num_intermediate_phases + 2

    def phase_length(self, phase: int) -> int:
        """Length in rounds of Stage-I phase ``phase``."""
        if phase < 0 or phase >= self.num_phases:
            raise ParameterError(
                f"phase {phase} out of range for Stage I with {self.num_phases} phases"
            )
        if phase == 0:
            return self.beta_s
        if phase == self.num_phases - 1:
            return self.beta_f
        return self.beta

    @property
    def total_rounds(self) -> int:
        """Total Stage-I rounds: ``beta_s + T beta + beta_f``."""
        return self.beta_s + self.num_intermediate_phases * self.beta + self.beta_f


@dataclass(frozen=True)
class StageTwoParameters:
    """Round budget of Stage II (boosting).

    Attributes
    ----------
    gamma:
        Number of samples used in each majority vote; the paper's
        ``gamma = 2r + 1`` (always odd so votes cannot tie).
    num_boost_phases:
        The paper's ``k``: number of bias-doubling phases.
    final_phase_rounds:
        Length of the last phase (``k + 1``), ``O(log n / eps^2)`` rounds.
    """

    gamma: int
    num_boost_phases: int
    final_phase_rounds: int

    def __post_init__(self) -> None:
        if self.gamma < 1 or self.gamma % 2 == 0:
            raise ParameterError("gamma must be a positive odd integer")
        if self.num_boost_phases < 0:
            raise ParameterError("num_boost_phases must be non-negative")
        if self.final_phase_rounds < 1:
            raise ParameterError("final_phase_rounds must be positive")

    @property
    def r(self) -> int:
        """The paper's ``r`` with ``gamma = 2r + 1``."""
        return (self.gamma - 1) // 2

    @property
    def boost_phase_rounds(self) -> int:
        """Rounds per boosting phase: the paper's ``m_i = 2 gamma``."""
        return 2 * self.gamma

    @property
    def num_phases(self) -> int:
        """Total Stage-II phases (``k`` boosting phases plus the final one)."""
        return self.num_boost_phases + 1

    def phase_length(self, phase: int) -> int:
        """Length in rounds of Stage-II phase ``phase`` (1-based as in the paper)."""
        if phase < 1 or phase > self.num_phases:
            raise ParameterError(
                f"phase {phase} out of range for Stage II with {self.num_phases} phases"
            )
        if phase <= self.num_boost_phases:
            return self.boost_phase_rounds
        return self.final_phase_rounds

    @property
    def total_rounds(self) -> int:
        """Total Stage-II rounds."""
        return self.num_boost_phases * self.boost_phase_rounds + self.final_phase_rounds


@dataclass(frozen=True)
class ProtocolParameters:
    """Complete parameterisation of the two-stage protocol for one instance."""

    n: int
    epsilon: float
    stage1: StageOneParameters
    stage2: StageTwoParameters

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ParameterError("the protocol needs at least 4 agents")
        validate_epsilon(self.epsilon)

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def calibrated(
        cls,
        n: int,
        epsilon: float,
        *,
        s0: float = 2.0,
        b0: float = 3.0,
        f0: float = 2.0,
        r0: float = 1.0,
        g0: float = 2.0,
        extra_boost_phases: int = 2,
        beta_override: Optional[int] = None,
        enforce_epsilon_bound: bool = True,
    ) -> "ProtocolParameters":
        """Laptop-scale parameters preserving the paper's functional forms.

        Every quantity keeps its ``Theta(.)`` dependence on ``n`` and
        ``epsilon`` from Section 2; only the leading constants are reduced.

        Parameters
        ----------
        s0, b0, f0:
            Stage-I constants: ``beta_s = ceil(s0 ln n / eps^2)``,
            ``beta = ceil(b0 / eps^2)``, ``beta_f = ceil(f0 ln n / eps^2)``.
        r0, g0:
            Stage-II constants: ``r = ceil(r0 / eps^2)`` and final phase of
            ``ceil(g0 ln n / eps^2)`` rounds.
        extra_boost_phases:
            Safety margin added to ``k = ceil(log2(1 / delta_1))``.
        beta_override:
            Force a specific intermediate-phase length (used by experiments
            that want several intermediate layers at modest ``n``).
        enforce_epsilon_bound:
            Check the paper's requirement ``epsilon > n**(-1/2 + eta)``.
        """
        epsilon = validate_epsilon(epsilon)
        if enforce_epsilon_bound and epsilon <= minimum_epsilon(n):
            raise ParameterError(
                f"epsilon={epsilon} violates the paper's requirement "
                f"epsilon > n^(-1/2+eta) = {minimum_epsilon(n):.4g} for n={n}"
            )
        log_n = math.log(max(n, 2))
        inv_eps_sq = 1.0 / (epsilon * epsilon)

        beta_s = max(8, math.ceil(s0 * log_n * inv_eps_sq))
        beta = beta_override if beta_override is not None else max(2, math.ceil(b0 * inv_eps_sq))
        beta_f = max(beta_s, math.ceil(f0 * log_n * inv_eps_sq))
        num_intermediate = compute_num_intermediate_phases(n, beta_s, beta)
        stage1 = StageOneParameters(
            beta_s=beta_s,
            beta=beta,
            beta_f=beta_f,
            num_intermediate_phases=num_intermediate,
        )

        r = max(4, math.ceil(r0 * inv_eps_sq))
        gamma = 2 * r + 1
        delta_1 = initial_bias_target(n)
        k = max(1, math.ceil(math.log2(1.0 / delta_1))) + max(0, extra_boost_phases)
        final_rounds = max(2 * gamma, math.ceil(g0 * log_n * inv_eps_sq))
        stage2 = StageTwoParameters(
            gamma=gamma,
            num_boost_phases=k,
            final_phase_rounds=final_rounds,
        )
        return cls(n=n, epsilon=epsilon, stage1=stage1, stage2=stage2)

    @classmethod
    def paper(cls, n: int, epsilon: float) -> "ProtocolParameters":
        """The literal (asymptotically safe, astronomically large) constants.

        Stage II uses the paper's explicit ``r = ceil(2^22 / eps^2)``; Stage I
        constants are chosen to respect ``f > c1 beta > c2 s > c3 / eps^2``
        with generous factors.  This preset exists to document the formulas
        and unit-test their algebra; it is far too large to simulate.
        """
        epsilon = validate_epsilon(epsilon)
        log_n = math.log(max(n, 2))
        inv_eps_sq = 1.0 / (epsilon * epsilon)
        s = math.ceil(2**10 * inv_eps_sq)
        beta = math.ceil(2**12 * inv_eps_sq)
        f = math.ceil(2**14 * inv_eps_sq)
        beta_s = math.ceil(s * log_n)
        beta_f = math.ceil(f * log_n)
        stage1 = StageOneParameters(
            beta_s=beta_s,
            beta=beta,
            beta_f=beta_f,
            num_intermediate_phases=compute_num_intermediate_phases(n, beta_s, beta),
        )
        r = math.ceil(2**22 * inv_eps_sq)
        delta_1 = initial_bias_target(n)
        stage2 = StageTwoParameters(
            gamma=2 * r + 1,
            num_boost_phases=max(1, math.ceil(math.log2(1.0 / delta_1))),
            final_phase_rounds=math.ceil(2**10 * log_n * inv_eps_sq),
        )
        return cls(n=n, epsilon=epsilon, stage1=stage1, stage2=stage2)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def total_rounds(self) -> int:
        """Total rounds of Stage I plus Stage II."""
        return self.stage1.total_rounds + self.stage2.total_rounds

    def describe(self) -> dict:
        """Plain-dict description used by the CLI and experiment records."""
        return {
            "n": self.n,
            "epsilon": self.epsilon,
            "stage1": {
                "beta_s": self.stage1.beta_s,
                "beta": self.stage1.beta,
                "beta_f": self.stage1.beta_f,
                "T": self.stage1.num_intermediate_phases,
                "rounds": self.stage1.total_rounds,
            },
            "stage2": {
                "gamma": self.stage2.gamma,
                "k": self.stage2.num_boost_phases,
                "final_phase_rounds": self.stage2.final_phase_rounds,
                "rounds": self.stage2.total_rounds,
            },
            "total_rounds": self.total_rounds,
        }
