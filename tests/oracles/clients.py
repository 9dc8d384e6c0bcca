"""Oracle: the closed-loop driver as it drew, one numpy call per value.

``RandomStream.random`` (the mix draw) and ``RandomStream.exponential`` (the
think time) serve their values from a block drawn ahead on the stream, and
every other draw on that stream first rewinds the block to the values
already handed out (``repro.sim.rng``).  This is what they replaced: every
draw one scalar numpy call on the stream's generator, and a driver that
looked each collaborator up again for every query.

* :class:`ScalarStream` — a ``RandomStream`` whose ``random`` and
  ``exponential`` make one scalar numpy call each.  It never holds a block,
  so its other draws, the stock ones, find nothing to rewind.
* :class:`StreamsOf` — a ``SeedSequenceFactory`` that hands out streams of a
  given type under the same names and seeds (``ScalarStream`` for this
  oracle; the property tests pass mutants of ``RandomStream`` too).
* :class:`ScalarDrawDriver` — ``ClosedLoopDriver.run_interval`` as it was:
  ``max`` for the submit time, ``self.`` lookups and a session update per
  query.
"""

from __future__ import annotations

from repro.sim.rng import RandomStream, SeedSequenceFactory
from repro.workloads.clients import ClosedLoopDriver

__all__ = ["ScalarDrawDriver", "ScalarStream", "StreamsOf"]


class ScalarStream(RandomStream):
    """``RandomStream`` with one numpy call per mix and think draw."""

    def random(self) -> float:
        return self._rng.random()

    def exponential(self, mean: float) -> float:
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive: {mean}")
        return float(self._rng.exponential(mean))


class StreamsOf(SeedSequenceFactory):
    """A seed factory whose streams are ``stream_type`` instances."""

    def __init__(self, stream_type: type[RandomStream], root_seed: int = 0) -> None:
        super().__init__(root_seed)
        self.stream_type = stream_type

    def stream(self, name: str) -> RandomStream:
        if name not in self._streams:
            self._streams[name] = self.stream_type(self.root_seed, name)
        return self._streams[name]


class ScalarDrawDriver(ClosedLoopDriver):
    """``ClosedLoopDriver`` with the per-query loop of before."""

    def run_interval(self, start: float, length: float) -> int:
        if length <= 0:
            raise ValueError(f"interval length must be positive: {length}")
        end = start + length
        self._resize_population(self.load.clients_at(start), start)
        submitted = 0
        for client_id in sorted(self._sessions):
            session = self._sessions[client_id]
            while session.next_submit < end:
                timestamp = max(session.next_submit, start)
                query_class = self.workload.sample_class(self._mix_stream)
                record = self.scheduler.submit(query_class, timestamp)
                think = self._think_stream.exponential(self.think_time_mean)
                session.next_submit = timestamp + record.latency + think
                session.queries_issued += 1
                submitted += 1
        self.total_queries += submitted
        return submitted
