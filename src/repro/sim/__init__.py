"""Deterministic simulation kernel: clock, events, seeded randomness, traces."""

from .clock import Interval, IntervalTimer, SimClock
from .events import Event, EventLoop, StopSimulation
from .rng import RandomStream, SeedSequenceFactory, ZipfGenerator
from .trace import AccessWindow

__all__ = [
    "AccessWindow",
    "Event",
    "EventLoop",
    "Interval",
    "IntervalTimer",
    "RandomStream",
    "SeedSequenceFactory",
    "SimClock",
    "StopSimulation",
    "ZipfGenerator",
]
