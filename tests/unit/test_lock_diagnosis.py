"""Unit tests for the lock-contention diagnosis step."""

import pytest

from repro.cluster.replica import Replica
from repro.cluster.scheduler import Scheduler
from repro.cluster.server import PhysicalServer
from repro.core.analyzer import LogAnalyzer
from repro.core.diagnosis import ActionKind, DiagnosisConfig, ReplicaView, diagnose
from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.engine import DatabaseEngine, EngineConfig
from repro.engine.locks import LockMode, RowGroupLockPattern
from repro.engine.query import QueryClass
from repro.sim.rng import SeedSequenceFactory


class _FewPages(AccessPattern):
    def pages_for_execution(self):
        return ExecutionAccess(demand=[1])


def make_world():
    engine = DatabaseEngine(EngineConfig(name="e", pool_pages=128))
    analyzer = LogAnalyzer(engine, "s1")
    scheduler = Scheduler("app")
    scheduler.add_replica(Replica("r1", "app", PhysicalServer("s1"), engine))
    view = ReplicaView(
        replica_name="r1",
        analyzer=analyzer,
        cpu_saturated=False,
        io_saturated=False,
        pool_pages=128,
    )
    return engine, analyzer, scheduler, view


def locked_class(name, mode, span, hold_cpu, seeds, stream):
    return QueryClass(
        name,
        "app",
        1,
        f"sql {name}",
        _FewPages(),
        cpu_cost=hold_cpu,
        is_write=(mode is LockMode.EXCLUSIVE),
        lock_pattern=RowGroupLockPattern(
            "t", 4, mode, seeds.stream(stream), span=span
        ),
    )


def run_contended_interval(engine, analyzer, sla_met=False):
    seeds = SeedSequenceFactory(1)
    hog = locked_class("hog", LockMode.EXCLUSIVE, span=4, hold_cpu=1.0,
                       seeds=seeds, stream="hog")
    reader = locked_class("reader", LockMode.SHARED, span=1, hold_cpu=0.001,
                          seeds=seeds, stream="reader")
    timestamp = 0.0
    for _ in range(30):
        engine.execute(hog, timestamp=timestamp)
        engine.execute(reader, timestamp=timestamp + 0.1)
        engine.execute(reader, timestamp=timestamp + 0.2)
        timestamp += 0.3
    analyzer.close_interval(10.0, {"app": sla_met})


class TestLockDiagnosis:
    def test_lock_dominated_violation_reported(self):
        engine, analyzer, scheduler, view = make_world()
        run_contended_interval(engine, analyzer)
        diagnosis = diagnose("app", scheduler, [view])
        action = diagnosis.primary
        assert action.kind is ActionKind.REPORT_LOCK_CONTENTION
        assert action.context_key == "app/hog"
        assert "lock waits" in action.reason

    def test_threshold_configurable(self):
        engine, analyzer, scheduler, view = make_world()
        run_contended_interval(engine, analyzer)
        diagnosis = diagnose(
            "app",
            scheduler,
            [view],
            DiagnosisConfig(lock_wait_share_threshold=0.999),
        )
        assert diagnosis.primary.kind is not ActionKind.REPORT_LOCK_CONTENTION

    def test_quiet_locks_fall_through(self):
        engine, analyzer, scheduler, view = make_world()
        seeds = SeedSequenceFactory(2)
        loner = locked_class("loner", LockMode.EXCLUSIVE, span=1, hold_cpu=0.001,
                             seeds=seeds, stream="x")
        timestamp = 0.0
        for _ in range(20):
            engine.execute(loner, timestamp=timestamp)
            timestamp += 1.0  # holds expire long before the next arrival
        analyzer.close_interval(10.0, {"app": False})
        diagnosis = diagnose("app", scheduler, [view])
        assert diagnosis.primary.kind is not ActionKind.REPORT_LOCK_CONTENTION

    def test_cpu_saturation_preempts_lock_report(self):
        engine, analyzer, scheduler, view = make_world()
        run_contended_interval(engine, analyzer)
        view.cpu_saturated = True
        diagnosis = diagnose("app", scheduler, [view])
        assert diagnosis.primary.kind is ActionKind.PROVISION_REPLICA

    def test_io_saturation_preempts_lock_report(self):
        engine, analyzer, scheduler, view = make_world()
        run_contended_interval(engine, analyzer)
        view.io_saturated = True
        diagnosis = diagnose("app", scheduler, [view])
        assert diagnosis.primary.kind is ActionKind.REMOVE_CLASS_FOR_IO

    def test_report_names_cycles_when_present(self):
        engine, analyzer, scheduler, view = make_world()
        seeds = SeedSequenceFactory(3)
        a = locked_class("a", LockMode.EXCLUSIVE, span=4, hold_cpu=0.5,
                         seeds=seeds, stream="a")
        b = locked_class("b", LockMode.EXCLUSIVE, span=4, hold_cpu=0.5,
                         seeds=seeds, stream="b")
        timestamp = 0.0
        for _ in range(20):
            engine.execute(a, timestamp=timestamp)
            engine.execute(b, timestamp=timestamp + 0.1)
            timestamp += 0.3
        analyzer.close_interval(10.0, {"app": False})
        diagnosis = diagnose("app", scheduler, [view])
        action = diagnosis.primary
        assert action.kind is ActionKind.REPORT_LOCK_CONTENTION
        assert "cycles" in action.reason
