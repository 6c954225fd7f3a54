"""Unit tests for repro.substrate.metrics."""

from repro.substrate.metrics import MetricsCollector, PhaseRecord


def make_phase(stage="stage1", phase=0, messages=10):
    return PhaseRecord(
        stage=stage,
        phase=phase,
        start_round=0,
        end_round=5,
        activated_total=3,
        newly_activated=2,
        bias=0.1,
        correct_fraction=0.6,
        messages_sent=messages,
    )


class TestMetricsCollector:
    def test_observe_round_accumulates(self):
        metrics = MetricsCollector()
        metrics.observe_round(messages_sent=10, messages_delivered=8, messages_dropped=2)
        metrics.observe_round(messages_sent=5, messages_delivered=5, messages_dropped=0)
        assert metrics.rounds == 2
        assert metrics.messages_sent == 15
        assert metrics.messages_delivered == 13
        assert metrics.messages_dropped == 2

    def test_time_series_only_recorded_when_enabled(self):
        silent = MetricsCollector(record_time_series=False)
        silent.observe_round(1, 1, 0, correct_fraction=0.5, activated=3)
        assert silent.correct_fraction_series == []

        recording = MetricsCollector(record_time_series=True)
        recording.observe_round(1, 1, 0, correct_fraction=0.5, activated=3)
        assert recording.correct_fraction_series == [0.5]
        assert recording.activated_series == [3]

    def test_phase_record_duration(self):
        assert make_phase().duration == 5

    def test_summary(self):
        metrics = MetricsCollector()
        metrics.observe_round(4, 3, 1)
        metrics.observe_phase(make_phase())
        summary = metrics.summary()
        assert summary["rounds"] == 1
        assert summary["messages_sent"] == 4
        assert summary["phases"] == 1

    def test_merge(self):
        first = MetricsCollector(record_time_series=True)
        first.observe_round(2, 2, 0, correct_fraction=0.5)
        first.observe_phase(make_phase(phase=0))
        second = MetricsCollector(record_time_series=True)
        second.observe_round(3, 2, 1, correct_fraction=0.7)
        second.observe_phase(make_phase(phase=1))
        first.merge(second)
        assert first.rounds == 2
        assert first.messages_sent == 5
        assert len(first.phases) == 2
        assert first.correct_fraction_series == [0.5, 0.7]
