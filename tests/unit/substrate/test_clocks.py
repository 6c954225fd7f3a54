"""Unit tests for repro.substrate.clocks."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.substrate.clocks import GlobalClock, LocalClocks


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


class TestLocalClocks:
    def test_clocks_start_stopped(self):
        clocks = LocalClocks(size=5)
        assert not clocks.started().any()
        assert clocks.skew() == 0

    def test_start_is_idempotent(self):
        clocks = LocalClocks(size=5)
        clocks.start(np.asarray([1, 2]), global_time=3)
        clocks.start(np.asarray([2, 3]), global_time=7)
        # Agent 2 keeps its original start time.
        np.testing.assert_array_equal(clocks.offsets[[1, 2, 3]], [3, 3, 7])

    def test_reset_overrides(self):
        clocks = LocalClocks(size=5)
        clocks.start(np.asarray([1]), global_time=3)
        clocks.reset(np.asarray([1]), global_time=10)
        assert clocks.offsets[1] == 10

    def test_skew(self):
        clocks = LocalClocks(size=4)
        clocks.start(np.asarray([0, 1, 2]), global_time=0)
        clocks.reset(np.asarray([2]), global_time=6)
        assert clocks.skew() == 6

    def test_size_must_be_positive(self):
        with pytest.raises(ParameterError):
            LocalClocks(size=0)
