"""Unit tests for the selective-retuning decision procedure."""

import pytest

from repro.cluster.replica import Replica
from repro.cluster.scheduler import Scheduler
from repro.cluster.server import PhysicalServer
from repro.core.analyzer import LogAnalyzer
from repro.core.diagnosis import (
    Action,
    ActionKind,
    Diagnosis,
    DiagnosisConfig,
    ReplicaView,
    diagnose,
)
from repro.engine.access import ZipfWorkingSet, SequentialChunkScan
from repro.engine.engine import DatabaseEngine, EngineConfig
from repro.engine.pages import PageSpaceAllocator
from repro.engine.query import QueryClass
from repro.engine.tables import Table
from repro.sim.rng import SeedSequenceFactory


def make_world(pool=8192):
    engine = DatabaseEngine(EngineConfig(name="e", pool_pages=pool))
    analyzer = LogAnalyzer(engine, "s1")
    server = PhysicalServer("s1")
    scheduler = Scheduler("app")
    replica = Replica("r1", "app", server, engine)
    scheduler.add_replica(replica)
    return engine, analyzer, scheduler


def make_view(analyzer, cpu=False, io=False, pool=8192):
    return ReplicaView(
        replica_name="r1",
        analyzer=analyzer,
        cpu_saturated=cpu,
        io_saturated=io,
        pool_pages=pool,
    )


def zipf_class(name, pages, working_set, seed=1):
    allocator = PageSpaceAllocator()
    table = Table.create(allocator, f"t-{name}", row_count=200_000, row_bytes=1024)
    seeds = SeedSequenceFactory(seed)
    return QueryClass(
        name,
        "app",
        1,
        f"select {name}",
        ZipfWorkingSet(table.pages, working_set, 0.4, pages, seeds.stream(name)),
    )


def run_interval(engine, analyzer, classes, executions, sla_met):
    for _ in range(executions):
        for qc in classes:
            engine.execute(qc)
    analyzer.close_interval(10.0, sla_met)


class TestCpuPath:
    def test_cpu_saturation_provisions(self):
        engine, analyzer, scheduler = make_world()
        diagnosis = diagnose("app", scheduler, [make_view(analyzer, cpu=True)])
        assert diagnosis.primary.kind is ActionKind.PROVISION_REPLICA

    def test_cpu_preempts_io(self):
        engine, analyzer, scheduler = make_world()
        view = make_view(analyzer, cpu=True, io=True)
        diagnosis = diagnose("app", scheduler, [view])
        assert diagnosis.primary.kind is ActionKind.PROVISION_REPLICA


class TestIoPath:
    def test_io_saturation_sheds_heaviest_context(self):
        engine, analyzer, scheduler = make_world()
        light = zipf_class("light", pages=2, working_set=10)
        heavy = zipf_class("heavy", pages=200, working_set=8000)
        run_interval(engine, analyzer, [light, heavy], 10, {"app": False})
        diagnosis = diagnose("app", scheduler, [make_view(analyzer, io=True)])
        action = diagnosis.primary
        assert action.kind is ActionKind.REMOVE_CLASS_FOR_IO
        assert action.context_key == "app/heavy"

    def test_io_with_no_traffic_falls_through(self):
        engine, analyzer, scheduler = make_world()
        diagnosis = diagnose("app", scheduler, [make_view(analyzer, io=True)])
        assert diagnosis.primary.kind is ActionKind.NO_ACTION


class TestMemoryPath:
    def test_new_hog_triggers_quota_or_reschedule(self):
        engine, analyzer, scheduler = make_world(pool=2048)
        hog = zipf_class("hog", pages=300, working_set=8000)
        run_interval(engine, analyzer, [hog], 40, {"app": False})
        diagnosis = diagnose(
            "app",
            scheduler,
            [make_view(analyzer, pool=2048)],
            DiagnosisConfig(min_window_accesses=1000),
        )
        assert diagnosis.primary.kind in (
            ActionKind.APPLY_QUOTAS,
            ActionKind.RESCHEDULE_CLASS,
        )

    def test_quota_when_feasible(self):
        engine, analyzer, scheduler = make_world(pool=8192)
        # A flat-curve scanner plus a small stable class: quotas fit.
        allocator = PageSpaceAllocator()
        table = Table.create(allocator, "big", row_count=1_000_000, row_bytes=1024)
        scanner = QueryClass(
            "scan",
            "app",
            1,
            "select scan",
            SequentialChunkScan(table.pages, chunk=400, readahead=0, region=30_000),
        )
        small = zipf_class("small", pages=30, working_set=100)
        run_interval(engine, analyzer, [scanner, small], 30, {"app": False})
        diagnosis = diagnose(
            "app",
            scheduler,
            [make_view(analyzer)],
            DiagnosisConfig(min_window_accesses=1000),
        )
        action = diagnosis.primary
        assert action.kind is ActionKind.APPLY_QUOTAS
        assert "app/scan" in action.quota_map()

    def test_everything_fits_no_action(self):
        engine, analyzer, scheduler = make_world(pool=8192)
        small = zipf_class("small", pages=50, working_set=200)
        run_interval(engine, analyzer, [small], 40, {"app": False})
        diagnosis = diagnose(
            "app",
            scheduler,
            [make_view(analyzer)],
            DiagnosisConfig(min_window_accesses=1000),
        )
        assert diagnosis.primary.kind is ActionKind.NO_ACTION

    def test_suspects_recorded(self):
        engine, analyzer, scheduler = make_world(pool=2048)
        hog = zipf_class("hog", pages=300, working_set=8000)
        run_interval(engine, analyzer, [hog], 40, {"app": False})
        diagnosis = diagnose(
            "app",
            scheduler,
            [make_view(analyzer, pool=2048)],
            DiagnosisConfig(min_window_accesses=1000),
        )
        assert "app/hog" in diagnosis.suspects.get("r1", [])


class TestFallThrough:
    def test_quiet_system_yields_no_action(self):
        engine, analyzer, scheduler = make_world()
        diagnosis = diagnose("app", scheduler, [make_view(analyzer)])
        assert diagnosis.primary.kind is ActionKind.NO_ACTION

    def test_primary_of_empty_diagnosis(self):
        diagnosis = Diagnosis(app="app")
        assert diagnosis.primary.kind is ActionKind.NO_ACTION


class TestConfig:
    def test_rejects_bad_top_k(self):
        with pytest.raises(ValueError):
            DiagnosisConfig(top_k=0)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            DiagnosisConfig(mrc_change_threshold=-0.1)

    def test_action_quota_map(self):
        action = Action(
            kind=ActionKind.APPLY_QUOTAS,
            app="app",
            reason="r",
            quotas=(("a", 1), ("b", 2)),
        )
        assert action.quota_map() == {"a": 1, "b": 2}
