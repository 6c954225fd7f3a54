"""Unit tests for repro.substrate.clocks."""

import pytest

from repro.errors import ParameterError
from repro.substrate.clocks import GlobalClock


class TestGlobalClock:
    def test_tick_and_reset(self):
        clock = GlobalClock()
        assert clock.now == 0
        assert clock.tick() == 1
        assert clock.tick(5) == 6
        clock.reset()
        assert clock.now == 0

    def test_negative_tick_rejected(self):
        with pytest.raises(ParameterError):
            GlobalClock().tick(-1)
