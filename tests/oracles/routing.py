"""Oracle: read routing that re-derives the replica list on every read.

``Scheduler`` keeps ``sorted(self.replicas)`` in a list that ``add_replica``
and ``remove_replica`` maintain, and ``_route_read`` filters that list in one
pass on the replication watermark and the health belief.  This is what it
replaced: the replica dict sorted per call, and one ``placement_of`` +
``is_current`` + ``is_up`` method call per replica per read, with the same
fail-over from a pinned placement to the full set.

:class:`PerReadRouting` is a scheduler that routes this way; it is driven
beside a stock :class:`~repro.cluster.scheduler.Scheduler` through the same
operations and must pick the same replica, advance the same round-robin
cursor and count the same fail-overs.
"""

from __future__ import annotations

from repro.cluster.scheduler import Scheduler

__all__ = ["PerReadRouting"]


class PerReadRouting(Scheduler):
    """``Scheduler`` with the name list and the routing of before."""

    def replica_names(self) -> list[str]:
        return sorted(self.replicas)

    def _route_read(self, key: str) -> str | None:
        eligible = [
            name
            for name in self.placement_of(key)
            if self.replication.is_current(name) and self.health.is_up(name)
        ]
        if not eligible and self._placement.get(key):
            eligible = [
                name
                for name in self.replica_names()
                if self.replication.is_current(name) and self.health.is_up(name)
            ]
            if eligible:
                registry = self.obs.registry
                if registry.enabled:
                    registry.counter(
                        "scheduler.failovers", app=self.app, context=key
                    ).inc()
        if not eligible:
            return None
        if self.read_policy == "least_loaded" and len(eligible) > 1:
            return min(eligible, key=self._host_load)
        cursor = self._round_robin.get(key, 0)
        target = eligible[cursor % len(eligible)]
        self._round_robin[key] = cursor + 1
        return target
