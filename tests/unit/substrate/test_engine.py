"""Unit tests for repro.substrate.engine."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.substrate import (
    BinarySymmetricChannel,
    PerfectChannel,
    Population,
    PushGossipNetwork,
    RandomSource,
    SimulationEngine,
)


class TestCreation:
    def test_create_wires_consistent_components(self):
        engine = SimulationEngine.create(n=30, epsilon=0.3, seed=1)
        assert engine.n == 30
        assert engine.epsilon == 0.3
        assert engine.population.size == engine.network.size == 30
        assert engine.now == 0

    def test_create_without_source(self):
        engine = SimulationEngine.create(n=10, epsilon=0.3, seed=1, source=None)
        assert engine.population.source is None
        assert engine.population.num_activated() == 0

    def test_create_with_custom_channel(self):
        engine = SimulationEngine.create(n=10, epsilon=0.3, seed=1, channel=PerfectChannel())
        assert engine.epsilon == 0.5

    def test_mismatched_components_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationEngine(
                population=Population(size=5),
                network=PushGossipNetwork(size=6),
                channel=BinarySymmetricChannel(epsilon=0.2),
                random=RandomSource(seed=1),
            )

    def test_same_seed_reproduces_runs(self):
        def run(seed):
            engine = SimulationEngine.create(n=40, epsilon=0.25, seed=seed)
            senders = np.arange(10)
            bits = np.ones(10, dtype=np.int8)
            report = engine.gossip_round(senders, bits)
            return report.recipients.tolist(), report.bits.tolist()

        assert run(99) == run(99)
        assert run(99) != run(100)


class TestGossipRound:
    def test_round_advances_clock_and_metrics(self, small_engine):
        report = small_engine.gossip_round(np.asarray([0]), np.asarray([1], dtype=np.int8))
        assert small_engine.now == 1
        assert small_engine.metrics.rounds == 1
        assert small_engine.metrics.messages_sent == 1
        assert report.messages_sent == 1

    def test_idle_round(self, small_engine):
        small_engine.idle_round()
        assert small_engine.now == 1
        assert small_engine.metrics.messages_sent == 0

    def test_time_series_recording(self):
        engine = SimulationEngine.create(n=20, epsilon=0.3, seed=5, record_time_series=True)
        engine.population.set_source_opinion(1)
        engine.gossip_round(np.asarray([0]), np.asarray([1], dtype=np.int8), correct_opinion=1)
        assert len(engine.metrics.correct_fraction_series) == 1
        assert engine.metrics.correct_fraction_series[0] == pytest.approx(1 / 20)

    def test_trace_records_deliveries_when_enabled(self):
        engine = SimulationEngine.create(n=20, epsilon=0.3, seed=5, trace_events=True)
        engine.gossip_round(np.asarray([0, 1]), np.asarray([1, 0], dtype=np.int8))
        assert [event.kind for event in engine.trace] == ["deliver"]

    def test_protocol_rng_is_stable_stream(self, small_engine):
        assert small_engine.protocol_rng() is small_engine.protocol_rng()
