"""Deterministic simulation kernel: clock, events, seeded randomness, traces."""

from .clock import SimClock
from .events import Event, EventLoop, StopSimulation
from .rng import RandomStream, SeedSequenceFactory, ZipfGenerator
from .trace import AccessWindow

__all__ = [
    "AccessWindow",
    "Event",
    "EventLoop",
    "RandomStream",
    "SeedSequenceFactory",
    "SimClock",
    "StopSimulation",
    "ZipfGenerator",
]
