"""Unit tests for repro.substrate.trace."""

from repro.substrate.trace import EventTrace


class TestEventTrace:
    def test_disabled_trace_records_nothing(self):
        trace = EventTrace(enabled=False)
        trace.record(1, "deliver", count=3)
        assert len(trace) == 0

    def test_enabled_trace_records_events(self):
        trace = EventTrace(enabled=True)
        trace.record(1, "deliver", count=3)
        trace.record(2, "adopt", agent=7)
        assert len(trace) == 2
        assert trace.events[0].kind == "deliver"
        assert trace.events[0].payload == {"count": 3}
        assert trace.events[1].round_index == 2

    def test_cap_counts_dropped_events(self):
        trace = EventTrace(enabled=True, max_events=2)
        for index in range(5):
            trace.record(index, "spam")
        assert len(trace) == 2
        assert trace.dropped == 3

    def test_clear(self):
        trace = EventTrace(enabled=True)
        trace.record(1, "x")
        trace.clear()
        assert len(trace) == 0
        assert trace.dropped == 0

    def test_iteration(self):
        trace = EventTrace(enabled=True)
        trace.record(1, "x")
        trace.record(2, "y")
        assert [event.kind for event in trace] == ["x", "y"]
