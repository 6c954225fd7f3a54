"""Unit tests for repro.core.reception (the per-phase counts both stages read)."""

import numpy as np
import pytest

from repro.core.reception import PhaseCounts
from repro.substrate.network import DeliveryReport


def _round(heard, ones):
    """A one-round report: bool flags and int8 bits."""
    heard = np.asarray(heard, dtype=bool)
    return DeliveryReport(heard, np.asarray(ones, dtype=np.int8), int(heard.sum()))


class TestPhaseCounts:
    def test_adds_serial_round_reports(self):
        counts = PhaseCounts(5)
        counts.add(_round([0, 1, 1, 0, 0], [0, 1, 0, 0, 0]))
        counts.add(_round([0, 1, 0, 0, 1], [0, 0, 0, 0, 1]))
        assert counts.heard.tolist() == [0, 2, 1, 0, 1]
        assert counts.ones.tolist() == [0, 1, 0, 0, 1]
        assert counts.heard.dtype == counts.ones.dtype == np.int32

    def test_adds_batch_reports_of_one_and_several_rounds(self):
        counts = PhaseCounts((2, 3))
        counts.add(_round([[1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 0]]))
        totals = np.array([[2, 0, 1], [0, 3, 0]], dtype=np.int32)
        counts.add(DeliveryReport(totals, totals // 2, np.array([3, 3])))
        assert counts.heard.tolist() == [[3, 0, 1], [0, 3, 1]]
        assert counts.ones.tolist() == [[2, 0, 0], [0, 1, 0]]

    def test_an_empty_round_adds_nothing(self):
        counts = PhaseCounts(2)
        counts.add(_round([0, 0], [0, 0]))
        assert not counts.heard.any() and not counts.ones.any()

    def test_a_lone_message_forces_the_choice(self):
        counts = PhaseCounts(3)
        counts.add(_round([0, 1, 1], [0, 1, 0]))
        cells = np.array([1, 2])
        for uniform in (0.0, 0.5, 0.999):
            assert counts.choose(cells, np.full(2, uniform)).tolist() == [True, False]

    def test_choice_is_uniform_over_heard_messages(self, rng):
        """The phase-end choice picks each of k messages with probability 1/k."""
        counts = PhaseCounts(1)
        for bit in (1, 0, 0):
            counts.add(_round([1], [bit]))
        picks = counts.choose(np.zeros(4000, dtype=np.int64), rng.random(4000))
        assert picks.mean() == pytest.approx(1 / 3, abs=0.03)

    def test_reset_keeps_the_buffers(self):
        counts = PhaseCounts((2, 2))
        heard, ones = counts.heard, counts.ones
        counts.add(_round([[1, 1], [0, 1]], [[1, 0], [0, 1]]))
        counts.reset()
        assert counts.heard is heard and counts.ones is ones
        assert not heard.any() and not ones.any()
