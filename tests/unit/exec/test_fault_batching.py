"""Differential pins for the E12 batch rules.

E12's paper-protocol column is ``run_broadcast_batch(model=...)``; its
comparator column is ``repro.exec.fault_batching``.  Three contracts:

* ``run_broadcast_batch`` with ``model=None`` or :class:`NoFaults` is
  **bit-identical** to a call without ``model`` (the fault stream is
  spawned separately from the main stream);
* with an active fault model, batch and serial runs of the paper's protocol
  agree **statistically** (the standard batch-vs-serial scope of
  ``docs/ARCHITECTURE.md``), and forced crashes do not shift the batch main
  stream's consumption;
* the phased approximate-consensus comparator's batch rule matches the
  serial :class:`~repro.protocols.fault_tolerant.PhasedApproximateConsensus`
  **exactly** on phase budgets and statistically on outcomes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.broadcast import solve_noisy_broadcast
from repro.core.parameters import ProtocolParameters
from repro.errors import ExperimentError
from repro.exec.batching import run_broadcast_batch
from repro.exec.fault_batching import run_consensus_comparator_batch
from repro.exec.stage_batching import run_stage1_batch, source_batch_state
from repro.protocols.fault_tolerant import (
    PhasedApproximateConsensus,
    declared_fault_tolerance,
)
from repro.substrate.faults import (
    BurstNoise,
    ByzantineSenders,
    CrashStop,
    NoFaults,
    build_injector,
)
from repro.substrate.network import PushGossipNetwork
from repro.substrate.noise import BinarySymmetricChannel
from repro.substrate.rng import spawn_generator
from repro.substrate.topology import ChurnTopology


class TestNoFaultsBitIdentity:
    """`NoFaults` must reproduce a fault-free `run_broadcast_batch` byte for byte."""

    @pytest.mark.parametrize("model", [None, NoFaults()], ids=["none", "NoFaults"])
    def test_bit_identical_to_plain_broadcast_batch(self, model):
        plain = run_broadcast_batch(150, 0.3, 5, base_seed=42)
        faulty = run_broadcast_batch(150, 0.3, 5, model=model, base_seed=42)
        assert np.array_equal(plain.success, faulty.success)
        assert np.array_equal(plain.final_correct_fraction, faulty.final_correct_fraction)
        assert np.array_equal(plain.messages_sent, faulty.messages_sent)
        assert np.array_equal(plain.stage1_bias, faulty.stage1_bias)
        assert plain.rounds == faulty.rounds
        assert (faulty.crashed == 0).all()
        assert np.array_equal(
            faulty.surviving_correct_fraction, plain.final_correct_fraction
        )

    def test_replicates_reproducible_from_base_seed(self):
        model = CrashStop(fraction=0.2, crash_probability=0.1, immune=(0,))
        first = run_broadcast_batch(120, 0.3, 4, model=model, base_seed=7)
        second = run_broadcast_batch(120, 0.3, 4, model=model, base_seed=7)
        assert np.array_equal(first.surviving_correct_fraction, second.surviving_correct_fraction)
        assert np.array_equal(first.crashed, second.crashed)

    def test_num_replicates_validated(self):
        with pytest.raises(ExperimentError):
            run_broadcast_batch(100, 0.3, 0, model=CrashStop(fraction=0.1))
        with pytest.raises(ExperimentError):
            run_consensus_comparator_batch(100, 0)


class TestBatchRngStability:
    """Forced crashes must not shift the batch main stream's consumption."""

    @staticmethod
    def _stage1_tail(model, n=40, num_replicates=3):
        network = PushGossipNetwork(size=n)
        channel = BinarySymmetricChannel(epsilon=0.3)
        rng = np.random.default_rng(11)
        injector = build_injector(model, n, np.random.default_rng(5), num_replicates=num_replicates)
        state = source_batch_state(n, num_replicates, 1)
        parameters = ProtocolParameters.calibrated(n, 0.3)
        run_stage1_batch(state, network, channel, rng, parameters.stage1, 1, faults=injector)
        return state, rng.random(16)

    def test_forced_crash_does_not_shift_main_stream(self):
        quiet_state, quiet_tail = self._stage1_tail(CrashStop(forced={}))
        crashed_state, crashed_tail = self._stage1_tail(CrashStop(forced={2: (1, 2, 3)}))
        assert np.array_equal(quiet_tail, crashed_tail)
        # The crashed run genuinely diverges in outcome, not in consumption.
        assert crashed_state.messages_sent.sum() < quiet_state.messages_sent.sum()

    def test_churn_topology_keeps_consumption_schedule_fixed(self):
        # Different churn rates change who participates, not how much the
        # *fault-free* main stream advances per round (positional draws).
        tails = []
        for probability in (0.05, 0.6):
            network = PushGossipNetwork(size=30)
            channel = BinarySymmetricChannel(epsilon=0.3)
            rng = np.random.default_rng(13)
            state = source_batch_state(30, 2, 1)
            parameters = ProtocolParameters.calibrated(30, 0.3)
            run_stage1_batch(
                state, network, channel, rng, parameters.stage1, 1,
                topology=ChurnTopology(offline_probability=probability),
            )
            tails.append(rng.random(8))
        assert np.array_equal(tails[0], tails[1])


class TestPaperProtocolDifferential:
    """Batch vs. serial statistical agreement per fault model."""

    N, EPSILON = 120, 0.3
    SERIAL_TRIALS, BATCH_REPLICATES = 6, 24

    def _serial_stats(self, model):
        fractions, successes = [], []
        for seed in range(self.SERIAL_TRIALS):
            result = solve_noisy_broadcast(self.N, self.EPSILON, seed=seed, faults=model)
            fractions.append(result.final_correct_fraction)
            successes.append(result.success)
        return np.mean(fractions), np.mean(successes)

    @pytest.mark.parametrize(
        "model",
        [
            CrashStop(fraction=0.2, crash_probability=0.05, immune=(0,)),
            ByzantineSenders(fraction=0.15, mode="random", immune=(0,)),
            BurstNoise(start_probability=0.1, stop_probability=0.3, flip_probability=0.5),
        ],
        ids=["crash", "byzantine", "burst"],
    )
    def test_batch_marginals_match_serial(self, model):
        serial_fraction, _ = self._serial_stats(model)
        batch = run_broadcast_batch(
            self.N, self.EPSILON, self.BATCH_REPLICATES, model=model, base_seed=17
        )
        assert batch.num_replicates == self.BATCH_REPLICATES
        assert abs(batch.final_correct_fraction.mean() - serial_fraction) < 0.15
        # Crash census matches the model's prone-set size bound.
        if isinstance(model, CrashStop):
            assert (batch.crashed <= int(model.fraction * self.N)).all()
        else:
            assert (batch.crashed == 0).all()

    def test_measurement_keys_superset_of_serial_trial(self):
        from repro.experiments.e12_faults import _paper_trial

        model = CrashStop(fraction=0.2, crash_probability=0.1, immune=(0,))
        serial_keys = set(_paper_trial(3, 0, n=self.N, epsilon=self.EPSILON, model=model))
        batch = run_broadcast_batch(self.N, self.EPSILON, 2, model=model, base_seed=3)
        assert serial_keys <= set(batch.measurements(0))


class TestConsensusComparatorDifferential:
    """The batched comparator versus the serial `PhasedApproximateConsensus`."""

    def test_phase_budget_matches_serial_exactly(self):
        algorithm = PhasedApproximateConsensus()
        for model in (
            None,
            CrashStop(fraction=0.1),
            ByzantineSenders(fraction=0.2),
            ByzantineSenders(fraction=0.45),
        ):
            batch = run_consensus_comparator_batch(100, 2, model=model, base_seed=1)
            assert batch.phases == algorithm.phase_budget(100, model)
            assert batch.num_faulty == declared_fault_tolerance(model, 100)

    def test_success_rate_matches_serial_statistically(self):
        model = ByzantineSenders(fraction=0.1)
        algorithm = PhasedApproximateConsensus()
        serial = [
            algorithm.run(
                80,
                model,
                spawn_generator(seed, "consensus", 80),
                spawn_generator(seed, "consensus-faults", 80),
            )
            for seed in range(30)
        ]
        batch = run_consensus_comparator_batch(80, 60, model=model, base_seed=9)
        serial_rate = np.mean([outcome.success for outcome in serial])
        assert abs(batch.success.mean() - serial_rate) < 0.25
        assert batch.phases == serial[0].phases

    def test_no_faults_reaches_agreement_in_one_phase(self):
        batch = run_consensus_comparator_batch(60, 8, model=None, base_seed=2)
        assert batch.phases == 1
        assert batch.success.all()
        assert (batch.spread <= 1e-9).all()

    def test_crash_model_tolerated_by_design(self):
        model = CrashStop(fraction=0.2, crash_probability=0.2)
        batch = run_consensus_comparator_batch(100, 10, model=model, base_seed=4)
        assert batch.success.mean() >= 0.8

    def test_measurements_shape(self):
        batch = run_consensus_comparator_batch(60, 3, model=ByzantineSenders(fraction=0.1), base_seed=6)
        measurement = batch.measurements(1)
        assert {"rounds", "success", "fraction", "spread", "num_faulty"} <= set(measurement)
        assert measurement["rounds"] == batch.phases
