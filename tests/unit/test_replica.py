"""Unit tests for replicas."""

import pytest

from repro.cluster.replica import Replica
from repro.cluster.server import PhysicalServer
from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.query import QueryClass


class _ScriptedPattern(AccessPattern):
    def pages_for_execution(self):
        return ExecutionAccess(demand=[1, 2, 3])


def make_class(app="app"):
    return QueryClass("q", app, 1, "select 1", _ScriptedPattern(), cpu_cost=0.01)


class TestReplicaCreate:
    def test_creates_private_engine(self):
        server = PhysicalServer("s")
        a = Replica.create("r1", "app", server)
        b = Replica.create("r2", "app", server)
        assert a.engine is not b.engine

    def test_shared_engine_accepted(self):
        server = PhysicalServer("s")
        a = Replica.create("r1", "tpcw", server)
        b = Replica.create("r2", "rubis", server, engine=a.engine)
        assert b.engine is a.engine

    def test_pool_pages_honoured(self):
        replica = Replica.create("r1", "app", PhysicalServer("s"), pool_pages=123)
        assert replica.engine.pool_pages == 123


class TestExecution:
    def test_execute_charges_host(self):
        server = PhysicalServer("s")
        replica = Replica.create("r1", "app", server)
        record = replica.execute(make_class(), timestamp=1.0)
        closed = server.close_interval(10.0)
        assert closed.cpu_seconds == pytest.approx(0.01)
        assert closed.io_pages == record.io_block_requests

    def test_execute_uses_host_factors(self):
        server = PhysicalServer("s")
        replica = Replica.create("r1", "app", server)
        cold = replica.execute(make_class(), 0.0)
        # Saturate the host, then re-execute: latency must inflate.
        for _ in range(10):
            server.note_demand(cpu_seconds=0.0, io_pages=1e6)
            server.close_interval(10.0)
        replica2 = Replica.create("r2", "app", server)
        hot = replica2.execute(make_class(), 0.0)
        assert hot.latency > cold.latency

    def test_offline_replica_refuses(self):
        replica = Replica.create("r1", "app", PhysicalServer("s"))
        replica.fail()
        with pytest.raises(RuntimeError):
            replica.execute(make_class(), 0.0)

    def test_recover_restores_service(self):
        replica = Replica.create("r1", "app", PhysicalServer("s"))
        replica.fail()
        replica.recover()
        assert replica.execute(make_class(), 0.0).page_accesses == 3


class TestWrites:
    def test_apply_write_in_order(self):
        replica = Replica.create("r1", "app", PhysicalServer("s"))
        replica.apply_write(1)
        replica.apply_write(2)
        assert replica.applied_writes == 2

    def test_out_of_order_write_rejected(self):
        replica = Replica.create("r1", "app", PhysicalServer("s"))
        replica.apply_write(1)
        with pytest.raises(ValueError):
            replica.apply_write(3)
