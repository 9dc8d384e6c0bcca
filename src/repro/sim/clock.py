"""Simulated time for the cluster simulator.

The reproduction runs in *simulated* seconds so that every experiment is
deterministic and fast.  :class:`SimClock` is the one clock: the event loop
moves it forward to each event's timestamp.  Measurement intervals, the
paper's unit of SLA accounting, are the harness's fixed-length steps of that
clock (``ClusterHarness.interval_length``), not a separate timer.
"""

from __future__ import annotations


class SimClock:
    """A monotonically advancing simulated clock measured in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to an absolute ``timestamp``.

        Advancing to a timestamp in the past is an error: simulated time is
        monotonic by construction.
        """
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now}, target={timestamp}"
            )
        self._now = float(timestamp)
        return self._now
