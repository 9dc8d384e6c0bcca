"""Oracles: a lock set built from fresh values, and two lock managers.

``RowGroupLockPattern.requests`` hands out one interned 1-tuple per row
group and skips the set and the sort when one execution locks one group;
``LockManager`` keeps each hold as one ``NamedTuple`` that is at once its
resource's list entry and its own expiry-heap entry, expires only when the
heap's top is due, and counts an uncontended acquisition without building or
recording a grant.  These are the formulations they replaced:

* :func:`requests_per_execution` — a new ``LockRequest`` per group per
  execution, through a set and a sort whatever the shape;
* :class:`TupleHeapManager` — the manager of before: holds as objects with
  identity equality, heap entries ``(release time, install sequence, hold)``,
  ``_expire`` on every call, ``LockStats.record`` on every grant;
* :class:`PerHoldHeapManager` — the manager before that: holds that order
  themselves by release time on the heap, one new grant per acquisition.

All are specifications of *what* comes out — the same lock sets, grants,
statistics, waits-for edges and live holds — and the baselines the
query-path micro-benchmark measures against.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass

from repro.engine.locks import (
    LockGrant,
    LockManager,
    LockMode,
    LockRequest,
    LockStats,
    RowGroupLockPattern,
    WaitsForGraph,
)

__all__ = [
    "requests_per_execution",
    "TupleHeapManager",
    "PerHoldHeapManager",
    "live_holds",
    "held_resources",
]

_UNCONTENDED = LockGrant(0.0)


def requests_per_execution(
    pattern: RowGroupLockPattern, zipf=None
) -> tuple[LockRequest, ...]:
    """One execution's lock set, drawn from ``zipf`` (default: the pattern's
    own generator) and built from new ``LockRequest`` values."""
    zipf = pattern._zipf if zipf is None else zipf
    wanted: set[int] = set()
    for _ in range(pattern.groups_per_execution):
        start = zipf.sample()
        for offset in range(pattern.span):
            wanted.add((start + offset) % pattern.group_count)
    return tuple(
        LockRequest(resource=(pattern.table, group), mode=pattern.mode)
        for group in sorted(wanted)
    )


@dataclass(eq=False)
class _Hold:
    """One installed lock, equal only to itself."""

    release_time: float
    resource: tuple[str, int]
    mode: LockMode
    owner: str


class TupleHeapManager:
    """``LockManager`` with ``(release time, sequence, hold)`` heap entries."""

    def __init__(self) -> None:
        self._holds: dict[tuple[str, int], list[_Hold]] = defaultdict(list)
        self._expiry: list[tuple[float, int, _Hold]] = []
        self._installed = 0
        self.stats: dict[str, LockStats] = defaultdict(LockStats)
        self.waits_for = WaitsForGraph()

    def _expire(self, now: float) -> None:
        expiry = self._expiry
        while expiry and expiry[0][0] <= now:
            hold = heapq.heappop(expiry)[2]
            holders = self._holds[hold.resource]
            holders.remove(hold)
            if not holders:
                del self._holds[hold.resource]

    def acquire(
        self, owner: str, requests: Sequence[LockRequest], now: float, hold_for: float
    ) -> LockGrant:
        if hold_for < 0:
            raise ValueError(f"hold duration must be non-negative: {hold_for}")
        self._expire(now)
        holds = self._holds
        wait_until = now
        conflicts: list[tuple[str, str]] = []
        for request in requests:
            for hold in holds.get(request.resource, ()):
                if hold.owner == owner:
                    continue
                if request.mode.conflicts_with(hold.mode):
                    if hold.release_time > wait_until:
                        wait_until = hold.release_time
                    conflicts.append((owner, hold.owner))
                    self.waits_for.add_edge(owner, hold.owner)
        release_time = wait_until + hold_for
        expiry = self._expiry
        sequence = self._installed
        for request in requests:
            resource = request.resource
            hold = _Hold(release_time, resource, request.mode, owner)
            holds[resource].append(hold)
            sequence += 1
            heapq.heappush(expiry, (release_time, sequence, hold))
        self._installed = sequence
        grant = (
            LockGrant(wait_until - now, tuple(conflicts)) if conflicts else _UNCONTENDED
        )
        self.stats[owner].record(grant)
        return grant


class _OrderedHold(_Hold):
    """A hold the heap orders by calling back into Python."""

    def __lt__(self, other: "_OrderedHold") -> bool:
        return self.release_time < other.release_time


class PerHoldHeapManager(TupleHeapManager):
    """A manager with the holds themselves on the expiry heap."""

    def _expire(self, now: float) -> None:
        while self._expiry and self._expiry[0].release_time <= now:
            hold = heapq.heappop(self._expiry)
            holders = self._holds[hold.resource]
            holders.remove(hold)
            if not holders:
                del self._holds[hold.resource]

    def acquire(
        self, owner: str, requests: Sequence[LockRequest], now: float, hold_for: float
    ) -> LockGrant:
        if hold_for < 0:
            raise ValueError(f"hold duration must be non-negative: {hold_for}")
        self._expire(now)
        wait_until = now
        conflicts: list[tuple[str, str]] = []
        for request in requests:
            for hold in self._holds.get(request.resource, ()):
                if hold.owner == owner:
                    continue
                if request.mode.conflicts_with(hold.mode):
                    if hold.release_time > wait_until:
                        wait_until = hold.release_time
                    conflicts.append((owner, hold.owner))
                    self.waits_for.add_edge(owner, hold.owner)
        wait_time = wait_until - now
        release_time = wait_until + hold_for
        for request in requests:
            hold = _OrderedHold(
                release_time=release_time,
                resource=request.resource,
                mode=request.mode,
                owner=owner,
            )
            self._holds[request.resource].append(hold)
            heapq.heappush(self._expiry, hold)
        grant = LockGrant(wait_time=wait_time, conflicts=tuple(conflicts))
        self.stats[owner].record(grant)
        return grant


def held_resources(manager: LockManager | TupleHeapManager, now: float) -> int:
    """Number of resources with at least one hold still live at ``now``."""
    manager._expire(now)
    return len(manager._holds)


def live_holds(manager: LockManager | TupleHeapManager) -> dict:
    """``manager``'s lock table as plain values, in installation order."""
    return {
        resource: [(hold.release_time, hold.mode, hold.owner) for hold in holders]
        for resource, holders in manager._holds.items()
    }
