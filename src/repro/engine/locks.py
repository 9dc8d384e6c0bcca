"""Two-phase-locking substrate with per-class wait accounting.

The paper closes by naming lock contention and deadlocks as the next
anomalies its outlier detection should narrow down ("invoking a query with
the wrong arguments, lock contention or deadlock situations").  This module
provides the substrate that makes those anomalies observable:

* a :class:`LockManager` granting shared/exclusive locks on row groups,
  with lock holds bounded in *simulated time* — an execution at time ``t``
  holds its locks until ``t + latency``, so a later execution that touches
  the same rows inside that window genuinely waits;
* per-query-class counters (lock waits, total wait time, conflicts) that
  feed the same metric pipeline as the buffer-pool counters; and
* a class-level *waits-for graph* with cycle detection, which is how the
  diagnosis layer spots deadlock-prone class pairs.

Lock granularity is the *row group* (a contiguous range of row ids mapped
to a single lockable unit), which keeps the lock table small while
preserving the conflict structure: a class that locks broad ranges (the
"wrong arguments" scenario — e.g. an unqualified UPDATE) collides with
everything touching the same table.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

__all__ = [
    "LockMode",
    "LockRequest",
    "LockGrant",
    "LockStats",
    "LockManager",
    "RowGroupLockPattern",
    "WaitsForGraph",
]


class LockMode(str, Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def conflicts_with(self, other: "LockMode") -> bool:
        """S/S is the only compatible combination."""
        return not (self is LockMode.SHARED and other is LockMode.SHARED)


@dataclass(frozen=True)
class LockRequest:
    """One class's lock demand for one execution."""

    resource: tuple[str, int]  # (table name, row-group id)
    mode: LockMode


@dataclass(frozen=True)
class LockGrant:
    """The outcome of acquiring one execution's lock set."""

    wait_time: float
    conflicts: tuple[tuple[str, str], ...] = ()  # (blocked class, holder class)

    @property
    def waited(self) -> bool:
        return self.wait_time > 0.0


@dataclass
class LockStats:
    """Per-class lock accounting over one measurement interval."""

    acquisitions: int = 0
    waits: int = 0
    total_wait_time: float = 0.0
    conflicts: dict[str, int] = field(default_factory=dict)

    def record(self, grant: LockGrant) -> None:
        self.acquisitions += 1
        if grant.waited:
            self.waits += 1
            self.total_wait_time += grant.wait_time
        for _, holder in grant.conflicts:
            self.conflicts[holder] = self.conflicts.get(holder, 0) + 1


_UNCONTENDED = LockGrant(0.0)
"""The grant of every acquisition that found no conflict (a shared value)."""

_new_tuple = tuple.__new__


class _Hold(NamedTuple):
    """One installed lock, and its own entry on the expiry heap.

    Heap order is ``(release_time, sequence)``: the install sequence is
    unique, so ``heapq`` compares two holds in C and never reaches the third
    field.  For the same reason two holds are never equal, so removing one
    from its resource's list removes that very hold.
    """

    release_time: float
    sequence: int
    resource: tuple[str, int]
    mode: LockMode
    owner: str


class LockManager:
    """Grants lock sets against holds bounded in simulated time.

    ``acquire(owner, requests, now, hold_for)`` releases every hold that
    expired before ``now``, computes how long the new owner must wait for
    conflicting holds to drain (the max over its conflicting resources —
    waits overlap), then installs the new holds from the post-wait instant.
    """

    def __init__(self) -> None:
        self._holds: dict[tuple[str, int], list[_Hold]] = defaultdict(list)
        # Min-heap of the same holds, by release time then install sequence.
        self._expiry: list[_Hold] = []
        self._installed = 0
        self.stats: dict[str, LockStats] = defaultdict(LockStats)
        self.waits_for = WaitsForGraph()

    def _expire(self, now: float) -> None:
        expiry = self._expiry
        holds = self._holds
        while expiry and expiry[0][0] <= now:
            hold = heapq.heappop(expiry)
            # Every hold on the heap is in its resource's list exactly once
            # (acquire installs both together, only this loop removes either).
            holders = holds[hold.resource]
            holders.remove(hold)
            if not holders:
                del holds[hold.resource]

    def acquire(
        self,
        owner: str,
        requests: Sequence[LockRequest],
        now: float,
        hold_for: float,
    ) -> LockGrant:
        """Acquire ``requests`` for ``owner`` at simulated time ``now``.

        Returns the grant with the wait this execution incurred.  Holds are
        installed for ``hold_for`` simulated seconds *after* the wait — the
        strict-2PL "hold until commit" behaviour.
        """
        if hold_for < 0:
            raise ValueError(f"hold duration must be non-negative: {hold_for}")
        expiry = self._expiry
        if expiry and expiry[0][0] <= now:
            self._expire(now)
        holds = self._holds
        wait_until = now
        conflicts: list[tuple[str, str]] = []
        for request in requests:
            for hold in holds.get(request.resource, ()):
                if hold.owner == owner:
                    continue  # re-entrant: the class already holds it
                if request.mode.conflicts_with(hold.mode):
                    if hold.release_time > wait_until:
                        wait_until = hold.release_time
                    conflicts.append((owner, hold.owner))
                    self.waits_for.add_edge(owner, hold.owner)
        release_time = wait_until + hold_for
        sequence = self._installed
        for request in requests:
            sequence += 1
            resource = request.resource
            hold = _new_tuple(
                _Hold, (release_time, sequence, resource, request.mode, owner)
            )
            holds[resource].append(hold)
            heapq.heappush(expiry, hold)
        self._installed = sequence
        if conflicts:
            grant = LockGrant(wait_until - now, tuple(conflicts))
            self.stats[owner].record(grant)
            return grant
        # What LockStats.record does with a grant that did not wait.
        self.stats[owner].acquisitions += 1
        return _UNCONTENDED

    def interval_snapshot(self) -> dict[str, LockStats]:
        """Return and reset the per-class lock statistics."""
        snapshot = dict(self.stats)
        self.stats = defaultdict(LockStats)
        return snapshot

    def reset_waits_for(self) -> "WaitsForGraph":
        graph = self.waits_for
        self.waits_for = WaitsForGraph()
        return graph


class RowGroupLockPattern:
    """A query class's lock demand: which row groups, in which mode.

    ``groups_per_execution`` row groups are drawn Zipf-skewed from
    ``group_count`` (hot rows conflict more, like real OLTP traffic); each
    pick locks ``span`` consecutive groups.  The "wrong arguments" fault is
    expressed as ``span == group_count``: one execution locks the entire
    table, the behaviour of an UPDATE missing its WHERE clause.
    """

    def __init__(
        self,
        table: str,
        group_count: int,
        mode: LockMode,
        stream,
        groups_per_execution: int = 1,
        theta: float = 0.8,
        span: int = 1,
    ) -> None:
        if group_count <= 0:
            raise ValueError(f"group count must be positive: {group_count}")
        if groups_per_execution <= 0:
            raise ValueError("groups per execution must be positive")
        if not 1 <= span <= group_count:
            raise ValueError(f"span must be in [1, {group_count}]: {span}")
        from ..sim.rng import ZipfGenerator

        self.table = table
        self.group_count = group_count
        self.mode = mode
        self.groups_per_execution = groups_per_execution
        self.span = span
        self._zipf = ZipfGenerator(group_count, theta, stream)
        # A request is a frozen value, and a lock set a tuple of them: one
        # 1-tuple per row group, made on first use.
        self._interned: dict[int, tuple[LockRequest]] = {}
        self._one_group = groups_per_execution == 1 and span == 1

    def _single(self, group: int) -> tuple[LockRequest]:
        lock_set = self._interned.get(group)
        if lock_set is None:
            lock_set = self._interned[group] = (
                LockRequest((self.table, group), self.mode),
            )
        return lock_set

    def requests(self) -> tuple[LockRequest, ...]:
        """The lock set of one execution."""
        if self._one_group:
            group = self._zipf.sample()
            lock_set = self._interned.get(group)
            return lock_set if lock_set is not None else self._single(group)
        wanted: set[int] = set()
        for _ in range(self.groups_per_execution):
            start = self._zipf.sample()
            for offset in range(self.span):
                wanted.add((start + offset) % self.group_count)
        return tuple(self._single(group)[0] for group in sorted(wanted))


class WaitsForGraph:
    """Class-level waits-for edges with cycle detection.

    Nodes are query-context keys; an edge ``a -> b`` means an execution of
    ``a`` waited for locks held by ``b`` at least once this interval.  A
    cycle marks a deadlock-prone class pair — the anomaly the paper's
    future work wants to surface.
    """

    def __init__(self) -> None:
        self._edges: dict[str, set[str]] = defaultdict(set)
        self._weights: dict[tuple[str, str], int] = defaultdict(int)

    def add_edge(self, waiter: str, holder: str) -> None:
        if waiter == holder:
            return
        self._edges[waiter].add(holder)
        self._weights[(waiter, holder)] += 1

    def edges(self) -> list[tuple[str, str, int]]:
        return sorted(
            (waiter, holder, weight)
            for (waiter, holder), weight in self._weights.items()
        )

    def find_cycles(self) -> list[list[str]]:
        """All elementary cycles, each rotated to start at its min node."""
        cycles: set[tuple[str, ...]] = set()
        nodes = sorted(self._edges)

        def walk(start: str, node: str, path: list[str], seen: set[str]) -> None:
            for nxt in sorted(self._edges.get(node, ())):
                if nxt == start:
                    cycle = path[:]
                    pivot = cycle.index(min(cycle))
                    cycles.add(tuple(cycle[pivot:] + cycle[:pivot]))
                elif nxt not in seen and nxt > start:
                    # Only explore nodes ordered after `start`: each cycle is
                    # found exactly once, rooted at its minimum node.
                    walk(start, nxt, path + [nxt], seen | {nxt})

        for node in nodes:
            walk(node, node, [node], {node})
        return sorted(list(cycle) for cycle in cycles)
