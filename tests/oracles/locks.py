"""Oracles: a lock set built from fresh values, and a heap of holds.

``RowGroupLockPattern.requests`` hands out one interned ``LockRequest`` per
row group and skips the set and the sort when one execution locks one
group; ``LockManager`` keeps its expiry heap as ``(release time, install
sequence, hold)`` tuples that compare in C, builds holds positionally and
returns one shared grant when nothing conflicted.  These are the
formulations they replaced: a new request per group per execution, through a
set and a sort whatever the shape; holds that order themselves by release
time on the heap; one new grant per acquisition.

Both are specifications of *what* comes out — the same lock sets, grants,
statistics, waits-for edges and live holds — and the baseline the query-path
micro-benchmark measures against.
"""

from __future__ import annotations

import heapq

from repro.engine.locks import (
    LockGrant,
    LockManager,
    LockRequest,
    RowGroupLockPattern,
    _Hold,
)

__all__ = ["requests_per_execution", "PerHoldHeapManager", "live_holds", "held_resources"]


def requests_per_execution(pattern: RowGroupLockPattern, zipf=None) -> list[LockRequest]:
    """One execution's lock set, drawn from ``zipf`` (default: the pattern's
    own generator) and built from new ``LockRequest`` values."""
    zipf = pattern._zipf if zipf is None else zipf
    wanted: set[int] = set()
    for _ in range(pattern.groups_per_execution):
        start = zipf.sample()
        for offset in range(pattern.span):
            wanted.add((start + offset) % pattern.group_count)
    return [
        LockRequest(resource=(pattern.table, group), mode=pattern.mode)
        for group in sorted(wanted)
    ]


class _OrderedHold(_Hold):
    """A hold the heap orders by calling back into Python."""

    def __lt__(self, other: "_OrderedHold") -> bool:
        return self.release_time < other.release_time


class PerHoldHeapManager(LockManager):
    """``LockManager`` with the holds themselves on the expiry heap."""

    def _expire(self, now: float) -> None:
        while self._expiry and self._expiry[0].release_time <= now:
            hold = heapq.heappop(self._expiry)
            holders = self._holds[hold.resource]
            holders.remove(hold)
            if not holders:
                del self._holds[hold.resource]

    def acquire(
        self, owner: str, requests: list[LockRequest], now: float, hold_for: float
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


def held_resources(manager: LockManager, now: float) -> int:
    """Number of resources with at least one hold still live at ``now``."""
    manager._expire(now)
    return len(manager._holds)


def live_holds(manager: LockManager) -> dict:
    """``manager``'s lock table as plain values, in installation order."""
    return {
        resource: [(hold.release_time, hold.mode, hold.owner) for hold in holders]
        for resource, holders in manager._holds.items()
    }
