"""Unit tests for the global resource manager."""

import pytest

from repro.cluster.replica import Replica
from repro.cluster.resource_manager import ResourceManager
from repro.cluster.scheduler import Scheduler
from repro.cluster.server import PhysicalServer


def make_manager(servers=3):
    manager = ResourceManager()
    for index in range(servers):
        manager.add_server(PhysicalServer(f"s{index}"))
    return manager


class TestPool:
    def test_add_and_lookup(self):
        manager = make_manager(2)
        assert manager.server("s0").name == "s0"
        assert manager.pool_size == 2

    def test_duplicate_server_rejected(self):
        manager = make_manager(1)
        with pytest.raises(ValueError):
            manager.add_server(PhysicalServer("s0"))

    def test_unknown_server_raises(self):
        with pytest.raises(KeyError):
            make_manager(0).server("ghost")

    def test_idle_servers_initially_all(self):
        assert make_manager(2).idle_servers() == ["s0", "s1"]


class TestAllocation:
    def test_allocation_prefers_idle_server(self):
        manager = make_manager(2)
        scheduler = Scheduler("app")
        replica = manager.allocate_replica(scheduler, timestamp=0.0)
        assert replica.host.name in ("s0", "s1")
        assert replica.name == "app-r1"
        assert scheduler.replica_names() == ["app-r1"]

    def test_sequential_names(self):
        manager = make_manager(3)
        scheduler = Scheduler("app")
        manager.allocate_replica(scheduler, 0.0)
        replica = manager.allocate_replica(scheduler, 1.0)
        assert replica.name == "app-r2"

    def test_never_two_replicas_of_one_app_on_one_server(self):
        manager = make_manager(2)
        scheduler = Scheduler("app")
        a = manager.allocate_replica(scheduler, 0.0)
        b = manager.allocate_replica(scheduler, 1.0)
        assert a.host.name != b.host.name

    def test_pool_exhaustion_raises(self):
        manager = make_manager(1)
        scheduler = Scheduler("app")
        manager.allocate_replica(scheduler, 0.0)
        with pytest.raises(RuntimeError):
            manager.allocate_replica(scheduler, 1.0)

    def test_colocation_when_no_idle_server(self):
        manager = make_manager(1)
        tpcw = Scheduler("tpcw")
        rubis = Scheduler("rubis")
        manager.allocate_replica(tpcw, 0.0)
        replica = manager.allocate_replica(rubis, 1.0)
        assert replica.host.name == "s0"  # co-located

    def test_exclusive_requires_idle_server(self):
        manager = make_manager(1)
        manager.allocate_replica(Scheduler("tpcw"), 0.0)
        with pytest.raises(RuntimeError):
            manager.allocate_replica(Scheduler("rubis"), 1.0, exclusive=True)

    def test_pinned_server_is_honoured(self):
        # The capacity planner names concrete servers in its ADD_REPLICA
        # steps; the pin must override the idle-first preference.
        manager = make_manager(3)
        scheduler = Scheduler("app")
        replica = manager.allocate_replica(scheduler, 0.0, server="s2")
        assert replica.host.name == "s2"
        assert "s2" not in manager.idle_servers()

    def test_pinned_server_must_be_pooled(self):
        manager = make_manager(1)
        with pytest.raises(KeyError):
            manager.allocate_replica(Scheduler("app"), 0.0, server="ghost")

    def test_pinned_server_must_not_already_host_the_app(self):
        manager = make_manager(2)
        scheduler = Scheduler("app")
        manager.allocate_replica(scheduler, 0.0, server="s0")
        with pytest.raises(RuntimeError):
            manager.allocate_replica(scheduler, 1.0, server="s0")

    def test_pinned_server_may_co_host_other_apps(self):
        manager = make_manager(2)
        manager.allocate_replica(Scheduler("tpcw"), 0.0, server="s0")
        replica = manager.allocate_replica(Scheduler("rubis"), 1.0, server="s0")
        assert replica.host.name == "s0"


class TestHistoryAndRelease:
    def test_history_records_allocations(self):
        manager = make_manager(2)
        scheduler = Scheduler("app")
        manager.allocate_replica(scheduler, 5.0)
        event = manager.history[0]
        assert event.action == "allocate"
        assert event.timestamp == 5.0
        assert event.replica_count == 1

    def test_release_returns_server_to_pool(self):
        manager = make_manager(2)
        scheduler = Scheduler("app")
        manager.allocate_replica(scheduler, 0.0)
        second = manager.allocate_replica(scheduler, 1.0)
        manager.release_replica(scheduler, second.name, 2.0)
        assert second.host.name in manager.idle_servers()
        assert manager.history[-1].action == "release"

    def test_register_existing_bumps_sequence(self):
        manager = make_manager(2)
        scheduler = Scheduler("app")
        external = Replica.create("app-r7", "app", manager.server("s0"))
        scheduler.add_replica(external)
        manager.register_existing(external)
        replica = manager.allocate_replica(scheduler, 0.0)
        assert replica.name == "app-r8"

    def test_register_existing_marks_server_busy(self):
        manager = make_manager(1)
        external = Replica.create("app-r1", "app", manager.server("s0"))
        manager.register_existing(external)
        assert manager.idle_servers() == []
