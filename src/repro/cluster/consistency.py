"""Read-one-write-all replication with scheduler-enforced consistency.

The prototype in the paper builds on the authors' scheduler-based
asynchronous replication with strong consistency: each application's
scheduler serialises writes, sends every write to *all* replicas of the
application, and load-balances each read-only query to *one* replica that
has applied every preceding write.

:class:`ReplicationState` is that bookkeeping: a global write sequence per
application and the applied-sequence watermark of each replica.  Reads may
only be routed to *current* replicas; the invariant tests assert that a
replica never applies writes out of order and that one-copy serialisability
(every read sees all completed writes) holds throughout a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["WriteToken", "ReplicationState"]

_new_tuple = tuple.__new__


class WriteToken(NamedTuple):
    """A serialised write: its application and global sequence number.

    One is built per write, as :class:`~repro.engine.statslog.ExecutionRecord`
    is per query: a tuple, made positionally through ``tuple.__new__``.
    """

    app: str
    sequence: int


@dataclass
class ReplicationState:
    """Consistency bookkeeping for one application's replica set."""

    app: str
    committed: int = 0
    watermarks: dict[str, int] = field(default_factory=dict)

    def add_replica(self, replica_name: str, synced: bool = True) -> None:
        """Register a replica; ``synced`` replicas join at the current
        sequence (a fresh copy created from a snapshot), unsynced at zero
        (they must catch up before serving reads)."""
        if replica_name in self.watermarks:
            raise ValueError(f"replica {replica_name!r} already registered")
        self.watermarks[replica_name] = self.committed if synced else 0

    def remove_replica(self, replica_name: str) -> None:
        if replica_name not in self.watermarks:
            raise KeyError(f"unknown replica {replica_name!r}")
        del self.watermarks[replica_name]

    def begin_write(self) -> WriteToken:
        """Serialise the next write and return its token."""
        self.committed += 1
        return _new_tuple(WriteToken, (self.app, self.committed))

    def acknowledge(self, replica_name: str, token: WriteToken) -> None:
        """A replica reports having applied ``token`` (in order)."""
        if token.app != self.app:
            raise ValueError(
                f"token for app {token.app!r} sent to state of {self.app!r}"
            )
        if replica_name not in self.watermarks:
            raise KeyError(f"unknown replica {replica_name!r}")
        expected = self.watermarks[replica_name] + 1
        if token.sequence != expected:
            raise ValueError(
                f"replica {replica_name!r} acknowledged write "
                f"#{token.sequence} but expected #{expected}"
            )
        self.watermarks[replica_name] = token.sequence

    def has_applied(self, replica_name: str, sequence: int) -> bool:
        """Whether the replica has already applied write ``sequence``.

        Used to detect *stale* propagation-queue entries: a replica that
        failed and was caught up from the write log has applied writes that
        may still sit in the scheduler's pending queue, and re-executing
        them would break the in-order invariant.
        """
        if replica_name not in self.watermarks:
            raise KeyError(f"unknown replica {replica_name!r}")
        return self.watermarks[replica_name] >= sequence

    def is_current(self, replica_name: str) -> bool:
        """Whether the replica has applied every committed write."""
        if replica_name not in self.watermarks:
            raise KeyError(f"unknown replica {replica_name!r}")
        return self.watermarks[replica_name] == self.committed

    def current_replicas(self) -> list[str]:
        """Replicas eligible to serve reads (read-one target set)."""
        return sorted(
            name for name in self.watermarks if self.watermarks[name] == self.committed
        )

    def lag_of(self, replica_name: str) -> int:
        if replica_name not in self.watermarks:
            raise KeyError(f"unknown replica {replica_name!r}")
        return self.committed - self.watermarks[replica_name]

    @property
    def fully_consistent(self) -> bool:
        return all(mark == self.committed for mark in self.watermarks.values())
