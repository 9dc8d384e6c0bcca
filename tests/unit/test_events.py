"""Unit tests for the discrete-event loop."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.events import EventLoop, StopSimulation


class TestScheduling:
    def test_schedule_at_absolute(self):
        loop = EventLoop(SimClock(10.0))
        loop.schedule_at(12.0, lambda: None)
        assert loop.peek_time() == 12.0

    def test_schedule_in_past_rejected(self):
        loop = EventLoop(SimClock(10.0))
        with pytest.raises(ValueError):
            loop.schedule_at(9.0, lambda: None)

    def test_peek_empty_loop(self):
        assert EventLoop().peek_time() is None


class TestExecution:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule_at(2.0, order.append, "b")
        loop.schedule_at(1.0, order.append, "a")
        loop.schedule_at(3.0, order.append, "c")
        loop.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_equal_timestamps_run_fifo(self):
        loop = EventLoop()
        order = []
        for tag in ("first", "second", "third"):
            loop.schedule_at(1.0, order.append, tag)
        loop.run_until(10.0)
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        loop = EventLoop()
        loop.schedule_at(4.0, lambda: None)
        loop.step()
        assert loop.clock.now == 4.0

    def test_step_returns_false_when_empty(self):
        assert EventLoop().step() is False

    def test_processed_counts_executions(self):
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: None)
        loop.schedule_at(2.0, lambda: None)
        loop.run_until(10.0)
        assert loop.processed == 2

    def test_handler_can_schedule_more_events(self):
        loop = EventLoop()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                loop.schedule_at(loop.clock.now + 1.0, chain, n + 1)

        loop.schedule_at(1.0, chain, 1)
        loop.run_until(10.0)
        assert seen == [1, 2, 3]


class TestRunUntil:
    def test_runs_only_events_within_horizon(self):
        loop = EventLoop()
        order = []
        loop.schedule_at(1.0, order.append, "in")
        loop.schedule_at(5.0, order.append, "out")
        loop.run_until(2.0)
        assert order == ["in"]

    def test_clock_lands_on_horizon(self):
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: None)
        loop.run_until(3.0)
        assert loop.clock.now == 3.0

    def test_event_exactly_at_horizon_runs(self):
        loop = EventLoop()
        order = []
        loop.schedule_at(2.0, order.append, "edge")
        loop.run_until(2.0)
        assert order == ["edge"]


class TestStopSimulation:
    def test_stop_ends_run(self):
        loop = EventLoop()
        order = []

        def stopper():
            order.append("stop")
            raise StopSimulation

        loop.schedule_at(1.0, stopper)
        loop.schedule_at(2.0, order.append, "never")
        loop.run_until(10.0)
        assert order == ["stop"]

    def test_stop_ends_run_until(self):
        loop = EventLoop()

        def stopper():
            raise StopSimulation

        loop.schedule_at(1.0, stopper)
        loop.run_until(10.0)
        assert loop.clock.now == 1.0  # did not advance to the horizon
