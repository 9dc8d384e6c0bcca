"""Unit tests for the simulated clock."""

import pytest

from repro.sim.clock import SimClock


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.5).now == 5.5

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_returns_new_time(self):
        assert SimClock().advance_to(3.0) == 3.0

    def test_advance_to_absolute_time(self):
        clock = SimClock()
        clock.advance_to(7.0)
        assert clock.now == 7.0

    def test_advance_to_rejects_past(self):
        clock = SimClock(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.9)

    def test_advance_to_same_time_is_noop(self):
        clock = SimClock(5.0)
        clock.advance_to(5.0)
        assert clock.now == 5.0
