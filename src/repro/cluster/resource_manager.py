"""Global replica allocation across the shared server pool.

The resource manager (paper §3.1) makes the *coarse-grained* decisions: it
owns the pool of physical servers and dynamically provisions replicas for
applications on them — the fallback (and the CPU-saturation reaction) that
the fine-grained techniques try to avoid invoking.

Servers can host replicas of several applications simultaneously (shared
hosting); ``allocate_replica`` prefers an idle server but will co-locate
when the pool is exhausted unless ``exclusive`` is requested.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..engine.executor import CostModel
from .replica import Replica
from .scheduler import Scheduler
from .server import PhysicalServer

__all__ = ["AllocationEvent", "ResourceManager", "allocation_records"]


@dataclass(frozen=True)
class AllocationEvent:
    """One provisioning decision, for the machine-allocation timeline."""

    timestamp: float
    app: str
    action: str  # "allocate" | "release"
    server: str
    replica: str
    replica_count: int


def allocation_records(manager: "ResourceManager") -> list[dict]:
    """The allocation timeline as ``{"record": "allocation", ...}`` dicts.

    One per :class:`AllocationEvent`, in order: the machine-allocation
    history the paper plots in Figure 3.
    """
    return [
        {"record": "allocation", **asdict(event)} for event in manager.history
    ]


class ResourceManager:
    """Owns the server pool and provisions replicas on it."""

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self._servers: dict[str, PhysicalServer] = {}
        self._hosted: dict[str, set[str]] = {}  # server -> apps hosted
        self._replica_seq: dict[str, int] = {}
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.history: list[AllocationEvent] = []
        # Epoch fence shared with the controller when recovery is enabled;
        # None keeps provisioning unconstrained (the default path).
        self.fence = None

    # ------------------------------------------------------------------ #
    # Pool management                                                    #
    # ------------------------------------------------------------------ #

    def add_server(self, server: PhysicalServer) -> None:
        if server.name in self._servers:
            raise ValueError(f"server {server.name!r} already pooled")
        self._servers[server.name] = server
        self._hosted[server.name] = set()

    def server(self, name: str) -> PhysicalServer:
        try:
            return self._servers[name]
        except KeyError:
            raise KeyError(f"no pooled server named {name!r}") from None

    def servers(self) -> list[PhysicalServer]:
        return [self._servers[name] for name in sorted(self._servers)]

    def idle_servers(self) -> list[str]:
        return sorted(name for name, apps in self._hosted.items() if not apps)

    # ------------------------------------------------------------------ #
    # Provisioning                                                       #
    # ------------------------------------------------------------------ #

    def allocate_replica(
        self,
        scheduler: Scheduler,
        timestamp: float,
        pool_pages: int = 8192,
        exclusive: bool = False,
        server: str | None = None,
        epoch: int | None = None,
    ) -> Replica:
        """Provision one more replica for ``scheduler``'s application.

        Server choice: an idle server if available; otherwise (and only when
        ``exclusive`` is not required) the least-loaded server not already
        running this application.  The capacity planner can pin the choice
        with ``server`` (its plans name concrete servers); a pinned server
        must be pooled and not already run the application.  Raises
        ``RuntimeError`` when the pool cannot satisfy the request.

        ``epoch`` declares the controller incarnation provisioning acts
        for; with a fence installed, a stale epoch raises
        :class:`~repro.recovery.fence.StaleEpochError` before any server
        is taken.  ``None`` (the default) is not epoch-checked.
        """
        app = scheduler.app
        if self.fence is not None:
            self.fence.check(epoch, f"replica provisioning for {app!r}")
        if server is not None:
            if server not in self._servers:
                raise KeyError(f"no pooled server named {server!r}")
            if app in self._hosted[server]:
                raise RuntimeError(
                    f"server {server!r} already hosts a replica of {app!r}"
                )
            candidates = [server]
        else:
            candidates = [name for name in self.idle_servers()]
            if not candidates and not exclusive:
                candidates = sorted(
                    (
                        name
                        for name, apps in self._hosted.items()
                        if app not in apps
                    ),
                    key=lambda name: (len(self._hosted[name]), name),
                )
        if not candidates:
            raise RuntimeError(
                f"server pool exhausted: cannot provision a replica for {app!r}"
            )
        server_name = candidates[0]
        seq = self._replica_seq.get(app, 0) + 1
        self._replica_seq[app] = seq
        replica = Replica.create(
            name=f"{app}-r{seq}",
            app=app,
            host=self._servers[server_name],
            pool_pages=pool_pages,
            cost_model=self.cost_model,
        )
        scheduler.add_replica(replica, synced=True)
        self._hosted[server_name].add(app)
        self.history.append(
            AllocationEvent(
                timestamp=timestamp,
                app=app,
                action="allocate",
                server=server_name,
                replica=replica.name,
                replica_count=len(scheduler.replicas),
            )
        )
        return replica

    def release_replica(
        self, scheduler: Scheduler, replica_name: str, timestamp: float
    ) -> None:
        """Return a replica's server share to the pool."""
        replica = scheduler.remove_replica(replica_name)
        server_name = replica.host.name
        app = scheduler.app
        if server_name in self._hosted:
            still_hosted = any(
                r.host.name == server_name for r in scheduler.replicas.values()
            )
            if not still_hosted:
                self._hosted[server_name].discard(app)
        self.history.append(
            AllocationEvent(
                timestamp=timestamp,
                app=app,
                action="release",
                server=server_name,
                replica=replica_name,
                replica_count=len(scheduler.replicas),
            )
        )

    def register_existing(self, replica: Replica) -> None:
        """Track a replica created outside ``allocate_replica`` (e.g. the
        initial deployment or a VM-hosted replica)."""
        server_name = replica.host.name
        if server_name in self._hosted:
            self._hosted[server_name].add(replica.app)
        # Keep the name sequence ahead of externally named replicas so a
        # later allocate_replica never recreates an existing "<app>-rN".
        prefix = f"{replica.app}-r"
        if replica.name.startswith(prefix) and replica.name[len(prefix):].isdigit():
            seq = int(replica.name[len(prefix):])
            if seq > self._replica_seq.get(replica.app, 0):
                self._replica_seq[replica.app] = seq

    @property
    def pool_size(self) -> int:
        return len(self._servers)
