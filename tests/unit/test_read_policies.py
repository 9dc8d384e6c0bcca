"""Unit tests for the read-routing policies."""

import pytest

from repro.cluster.replica import Replica
from repro.cluster.scheduler import Scheduler
from repro.cluster.server import PhysicalServer, ServerSpec
from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.query import QueryClass


class _ScriptedPattern(AccessPattern):
    def pages_for_execution(self):
        return ExecutionAccess(demand=[1])


def make_class():
    return QueryClass("q", "app", 1, "select q", _ScriptedPattern())


def make_scheduler(policy, replicas=2):
    scheduler = Scheduler("app", read_policy=policy)
    servers = []
    for index in range(replicas):
        server = PhysicalServer(f"s{index}", ServerSpec(cores=2))
        servers.append(server)
        scheduler.add_replica(Replica.create(f"r{index}", "app", server))
    return scheduler, servers


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Scheduler("app", read_policy="random")

    def test_round_robin_is_default(self):
        assert Scheduler("app").read_policy == "round_robin"


class TestLeastLoaded:
    def test_avoids_the_busy_host(self):
        scheduler, servers = make_scheduler("least_loaded")
        # Load server 0 heavily; its smoothed utilisation rises.
        for _ in range(5):
            servers[0].note_demand(cpu_seconds=100.0, io_pages=0.0)
            servers[0].close_interval(10.0)
            servers[1].close_interval(10.0)
        qc = make_class()
        for _ in range(6):
            scheduler.submit(qc, 0.0)
        assert scheduler.replicas["r1"].engine.executor.executions == 6
        assert scheduler.replicas["r0"].engine.executor.executions == 0

    def test_equal_load_breaks_ties_deterministically(self):
        scheduler, _ = make_scheduler("least_loaded")
        qc = make_class()
        for _ in range(4):
            scheduler.submit(qc, 0.0)
        # All load equal -> always the lexicographically first replica.
        assert scheduler.replicas["r0"].engine.executor.executions == 4

    def test_respects_placement(self):
        scheduler, servers = make_scheduler("least_loaded", replicas=3)
        qc = make_class()
        scheduler.place_class(qc.context_key, ["r1", "r2"])
        for _ in range(5):
            scheduler.submit(qc, 0.0)
        assert scheduler.replicas["r0"].engine.executor.executions == 0

    def test_single_replica_short_circuits(self):
        scheduler, _ = make_scheduler("least_loaded", replicas=1)
        qc = make_class()
        scheduler.submit(qc, 0.0)
        assert scheduler.replicas["r0"].engine.executor.executions == 1


class TestRoundRobinStillWorks:
    def test_even_spread(self):
        scheduler, _ = make_scheduler("round_robin")
        qc = make_class()
        for _ in range(6):
            scheduler.submit(qc, 0.0)
        assert scheduler.replicas["r0"].engine.executor.executions == 3
        assert scheduler.replicas["r1"].engine.executor.executions == 3
