"""Integration test: deadlock-prone class pairs surface in the waits-for graph.

Two multi-table write transactions lock the same pair of tables; under
concurrent (time-overlapping) execution each repeatedly waits on locks the
other holds, producing the classic cycle the engine's waits-for graph must
catch — the "deadlock situations" of the paper's future work.
"""

from repro.core.analyzer import LogAnalyzer
from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.engine import DatabaseEngine, EngineConfig
from repro.engine.locks import (
    CompositeLockPattern,
    LockMode,
    RowGroupLockPattern,
)
from repro.engine.query import QueryClass
from repro.sim.rng import SeedSequenceFactory


class _FewPages(AccessPattern):
    def pages_for_execution(self):
        return ExecutionAccess(demand=[1, 2])

    def footprint_pages(self):
        return 2


def make_transfer_classes():
    """Two transactions over the same two tables (few row groups, so their
    executions collide constantly)."""
    seeds = SeedSequenceFactory(3)

    def xfer(name, first, second, stream_suffix):
        return QueryClass(
            name,
            "bank",
            1,
            f"update {first}, {second}",
            _FewPages(),
            cpu_cost=0.3,  # long enough that holds overlap across arrivals
            is_write=True,
            lock_pattern=CompositeLockPattern(
                [
                    RowGroupLockPattern(
                        first, 2, LockMode.EXCLUSIVE,
                        seeds.stream(f"{stream_suffix}-1"),
                    ),
                    RowGroupLockPattern(
                        second, 2, LockMode.EXCLUSIVE,
                        seeds.stream(f"{stream_suffix}-2"),
                    ),
                ]
            ),
        )

    return (
        xfer("debit_credit", "accounts", "ledger", "dc"),
        xfer("credit_debit", "ledger", "accounts", "cd"),
    )


class TestDeadlockDetection:
    def run_interleaved(self):
        engine = DatabaseEngine(EngineConfig(name="bank", pool_pages=64))
        analyzer = LogAnalyzer(engine, "s1")
        a, b = make_transfer_classes()
        timestamp = 0.0
        for _ in range(40):
            engine.execute(a, timestamp=timestamp)
            engine.execute(b, timestamp=timestamp + 0.05)
            timestamp += 0.2
        analyzer.close_interval(10.0, {"bank": False})
        return engine, analyzer

    def test_mutual_waits_recorded(self):
        _, analyzer = self.run_interleaved()
        graph = analyzer.last_waits_for
        edges = {(w, h) for w, h, _ in graph.edges()}
        assert ("bank/debit_credit", "bank/credit_debit") in edges
        assert ("bank/credit_debit", "bank/debit_credit") in edges

    def test_cycle_detected(self):
        _, analyzer = self.run_interleaved()
        graph = analyzer.last_waits_for
        assert ["bank/credit_debit", "bank/debit_credit"] in graph.find_cycles()

    def test_lock_waits_in_metric_pipeline(self):
        from repro.core.metrics import Metric

        _, analyzer = self.run_interleaved()
        vectors = analyzer.current_vectors("bank")
        total_waits = sum(v.get(Metric.LOCK_WAITS) for v in vectors.values())
        assert total_waits > 10

    def test_composite_pattern_unions_tables(self):
        a, _ = make_transfer_classes()
        requests = a.lock_pattern.requests()
        assert {req.resource[0] for req in requests} == {"accounts", "ledger"}
