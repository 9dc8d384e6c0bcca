"""A small discrete-event simulation kernel.

Client emulators schedule session events (issue a request, think, retry) on
this queue; the cluster harness drains events in timestamp order while the
harness slices the run into measurement intervals.

Events with equal timestamps are delivered in scheduling order (FIFO), which
keeps runs deterministic regardless of hash ordering.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from .clock import SimClock

__all__ = ["Event", "EventLoop", "StopSimulation"]


class StopSimulation(Exception):
    """Raised by a handler to end the event loop early."""


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordering: timestamp, then FIFO sequence."""

    timestamp: float
    sequence: int
    handler: Callable[..., Any] = field(compare=False)
    args: tuple = field(compare=False, default=())


class EventLoop:
    """Timestamp-ordered event queue driving a :class:`SimClock`."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._processed = 0

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule_at(self, timestamp: float, handler: Callable, *args) -> Event:
        """Schedule ``handler(*args)`` at absolute simulated ``timestamp``."""
        if timestamp < self.clock.now - 1e-12:
            raise ValueError(
                f"cannot schedule in the past: now={self.clock.now}, at={timestamp}"
            )
        event = Event(max(timestamp, self.clock.now), next(self._counter), handler, args)
        heapq.heappush(self._heap, event)
        return event

    def peek_time(self) -> float | None:
        """Timestamp of the next event, or ``None`` when drained."""
        return self._heap[0].timestamp if self._heap else None

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when the queue is empty."""
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        self.clock.advance_to(event.timestamp)
        event.handler(*event.args)
        self._processed += 1
        return True

    def run_until(self, end_time: float) -> None:
        """Run events up to and including ``end_time``, then advance the clock.

        Handlers may raise :class:`StopSimulation` to terminate early; the
        clock is left at the stopping event's timestamp in that case.
        """
        try:
            while True:
                upcoming = self.peek_time()
                if upcoming is None or upcoming > end_time:
                    break
                self.step()
        except StopSimulation:
            return
        if self.clock.now < end_time:
            self.clock.advance_to(end_time)
