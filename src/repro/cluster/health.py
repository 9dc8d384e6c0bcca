"""Replica health as the scheduler *believes* it, not as it is.

Failures in the simulated cluster are silent — a crashed replica does not
announce itself; the scheduler discovers it when a routed execution fails.
:class:`ReplicaHealth` is the scheduler's belief state: replicas start UP,
are marked DOWN when an execution against them fails (or a write finds
them offline), and are marked UP again only after recovery *and* write-log
catch-up.  Routing consults this belief, so a single failed attempt takes
a replica out of the read set for every class at once — the mark-down is
the cluster-level reaction the fault injector exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["HealthTransition", "ReplicaHealth"]


@dataclass(frozen=True)
class HealthTransition:
    """One mark-down or mark-up, for post-mortem timelines."""

    replica: str
    up: bool
    at: float
    reason: str = ""


@dataclass
class ReplicaHealth:
    """Belief-state registry for one scheduler's replica set.

    ``down`` maps each replica believed down to the transition that took it
    down; routing tests membership in it directly, once per replica per
    read.  Only :meth:`mark_down`, :meth:`mark_up` and :meth:`forget` change
    it.
    """

    down: dict[str, HealthTransition] = field(default_factory=dict)
    transitions: list[HealthTransition] = field(default_factory=list)

    def is_up(self, replica: str) -> bool:
        """Whether the scheduler currently believes the replica serves."""
        return replica not in self.down

    def mark_down(self, replica: str, at: float, reason: str = "") -> bool:
        """Record a failure; returns ``True`` on an UP → DOWN transition."""
        if replica in self.down:
            return False
        transition = HealthTransition(replica, up=False, at=at, reason=reason)
        self.down[replica] = transition
        self.transitions.append(transition)
        return True

    def mark_up(self, replica: str, at: float, reason: str = "") -> bool:
        """Re-admit a replica; returns ``True`` on a DOWN → UP transition."""
        if replica not in self.down:
            return False
        del self.down[replica]
        self.transitions.append(
            HealthTransition(replica, up=True, at=at, reason=reason)
        )
        return True

    def forget(self, replica: str) -> None:
        """Drop all state for a replica leaving the set."""
        self.down.pop(replica, None)

    def down_replicas(self) -> list[str]:
        return sorted(self.down)

    def down_since(self, replica: str) -> float | None:
        transition = self.down.get(replica)
        return transition.at if transition is not None else None

    @property
    def any_down(self) -> bool:
        return bool(self.down)
