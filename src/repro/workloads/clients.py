"""Closed-loop client emulation.

Each emulated client runs the classic closed loop: draw a query from the
workload mix, submit it through the application's scheduler, observe its
latency, think for an exponentially distributed time, repeat.  A
:class:`ClosedLoopDriver` advances a whole client population through one
measurement interval at a time, which is the granularity the controller
operates at.

The closed loop produces the feedback the experiments rely on: when the
cluster slows down, each client issues fewer requests (throughput degrades
together with latency, as in the paper's tables), and when capacity is
added, throughput recovers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.scheduler import Scheduler
from ..sim.rng import RandomStream, SeedSequenceFactory
from .base import Workload
from .load import ConstantLoad, LoadFunction

__all__ = ["ClientSession", "ClosedLoopDriver"]


@dataclass
class ClientSession:
    """One emulated browser session's private state."""

    client_id: int
    next_submit: float
    queries_issued: int = 0


class ClosedLoopDriver:
    """Drives one application's client population, interval by interval."""

    def __init__(
        self,
        workload: Workload,
        scheduler: Scheduler,
        load: LoadFunction | None = None,
        think_time_mean: float = 1.0,
        seeds: SeedSequenceFactory | None = None,
    ) -> None:
        if not think_time_mean > 0:  # NaN fails this too
            raise ValueError(f"think time must be positive: {think_time_mean}")
        self.workload = workload
        self.scheduler = scheduler
        self.load = load if load is not None else ConstantLoad(10)
        self.think_time_mean = think_time_mean
        seeds = seeds if seeds is not None else workload.seeds
        self._mix_stream: RandomStream = seeds.stream(f"{workload.app}-mix")
        self._think_stream: RandomStream = seeds.stream(f"{workload.app}-think")
        self._sessions: dict[int, ClientSession] = {}
        self._next_client_id = 0
        self.total_queries = 0

    # ------------------------------------------------------------------ #
    # Population management                                              #
    # ------------------------------------------------------------------ #

    def _resize_population(self, target: int, now: float) -> None:
        while len(self._sessions) < target:
            client_id = self._next_client_id
            self._next_client_id += 1
            # Stagger arrivals across a think time so a population jump does
            # not submit a synchronised burst.
            offset = self._think_stream.uniform(0.0, self.think_time_mean)
            self._sessions[client_id] = ClientSession(
                client_id=client_id, next_submit=now + offset
            )
        while len(self._sessions) > target:
            # Retire the oldest session.
            oldest = min(self._sessions)
            del self._sessions[oldest]

    @property
    def active_clients(self) -> int:
        return len(self._sessions)

    # ------------------------------------------------------------------ #
    # Interval execution                                                 #
    # ------------------------------------------------------------------ #

    def run_interval(self, start: float, length: float) -> int:
        """Advance every client through ``[start, start + length)``.

        Returns the number of queries submitted.  Clients are processed in
        id order and each runs its closed loop until its next submission
        time leaves the interval; latency feedback shifts the loop, so slow
        intervals naturally carry fewer submissions.
        """
        if length <= 0:
            raise ValueError(f"interval length must be positive: {length}")
        end = start + length
        self._resize_population(self.load.clients_at(start), start)
        # Looked up once per interval, not once per query.
        sample_class = self.workload.sample_class
        mix_stream = self._mix_stream
        submit = self.scheduler.submit
        think = self._think_stream.exponential
        think_mean = self.think_time_mean
        sessions = self._sessions
        submitted = 0
        for client_id in sorted(sessions):
            session = sessions[client_id]
            next_submit = session.next_submit
            issued = 0
            while next_submit < end:
                timestamp = start if start > next_submit else next_submit
                record = submit(sample_class(mix_stream), timestamp)
                next_submit = timestamp + record.latency + think(think_mean)
                issued += 1
            session.next_submit = next_submit
            session.queries_issued += issued
            submitted += issued
        self.total_queries += submitted
        return submitted
