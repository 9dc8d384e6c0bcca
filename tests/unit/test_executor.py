"""Unit tests for the query executor and its cost model."""

from math import nan

import pytest

from repro.engine.access import AccessPattern, ExecutionAccess
from repro.engine.bufferpool import LRUBufferPool
from repro.engine.executor import CostModel, QueryExecutor
from repro.engine.query import QueryClass
from repro.engine.statslog import EngineLog


class _ScriptedPattern(AccessPattern):
    def __init__(self, demand, prefetch=()):
        self.demand = list(demand)
        self.prefetch = list(prefetch)

    def pages_for_execution(self):
        return ExecutionAccess(demand=list(self.demand), prefetch=list(self.prefetch))


def make_class(demand, prefetch=(), cpu=0.01):
    return QueryClass(
        "q", "app", 1, "select 1", _ScriptedPattern(demand, prefetch), cpu_cost=cpu
    )


class TestCostModel:
    def test_pure_cpu(self):
        model = CostModel(io_time_per_page=0.0, hit_time_per_page=0.0)
        assert model.latency(0.5, hits=0, misses=0, readahead_fetches=0) == 0.5

    def test_misses_cost_io_time(self):
        model = CostModel(io_time_per_page=0.01, hit_time_per_page=0.0)
        assert model.latency(0.0, hits=0, misses=10, readahead_fetches=0) == pytest.approx(0.1)

    def test_readahead_discounted(self):
        model = CostModel(io_time_per_page=0.01, readahead_overlap=0.5)
        only_miss = model.latency(0.0, 0, 10, 0)
        only_ra = model.latency(0.0, 0, 0, 10)
        assert only_ra == pytest.approx(only_miss * 0.5)

    def test_factors_scale_components(self):
        model = CostModel(io_time_per_page=0.01, hit_time_per_page=0.0)
        base = model.latency(0.1, 0, 10, 0)
        inflated = model.latency(0.1, 0, 10, 0, cpu_factor=2.0, io_factor=3.0)
        assert inflated == pytest.approx(0.1 * 2.0 + 0.1 * 3.0)
        assert inflated > base

    def test_rejects_factors_below_one(self):
        with pytest.raises(ValueError):
            CostModel().latency(0.1, 0, 0, 0, cpu_factor=0.5)

    def test_rejects_bad_overlap(self):
        with pytest.raises(ValueError):
            CostModel(readahead_overlap=1.5)

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            CostModel(io_time_per_page=-0.1)

    @pytest.mark.parametrize("field", ["io_time_per_page", "hit_time_per_page"])
    def test_rejects_nan_times(self, field):
        with pytest.raises(ValueError):
            CostModel(**{field: nan})

    @pytest.mark.parametrize("factor", ["cpu_factor", "io_factor"])
    def test_rejects_nan_factors(self, factor):
        with pytest.raises(ValueError):
            CostModel().latency(0.1, 3, 2, 1, **{factor: nan})


class TestQueryExecutor:
    def test_cold_execution_all_misses(self):
        executor = QueryExecutor(LRUBufferPool(10), EngineLog())
        record = executor.execute(make_class([1, 2, 3]))
        assert record.misses == 3
        assert record.page_accesses == 3

    def test_warm_execution_hits(self):
        executor = QueryExecutor(LRUBufferPool(10), EngineLog())
        executor.execute(make_class([1, 2, 3]))
        record = executor.execute(make_class([1, 2, 3]))
        assert record.misses == 0

    def test_prefetch_precedes_demand(self):
        # Demand pages covered by this execution's own prefetch must hit.
        executor = QueryExecutor(LRUBufferPool(10), EngineLog())
        record = executor.execute(make_class([5, 6], prefetch=[5, 6]))
        assert record.misses == 0
        assert record.readaheads == 2

    def test_io_block_requests_sum_misses_and_readahead(self):
        executor = QueryExecutor(LRUBufferPool(10), EngineLog())
        record = executor.execute(make_class([1, 2], prefetch=[3]))
        assert record.io_block_requests == record.misses + record.readaheads

    def test_latency_reflects_contention_factors(self):
        executor = QueryExecutor(LRUBufferPool(10), EngineLog())
        quiet = executor.execute(make_class([1, 2, 3]))
        executor2 = QueryExecutor(LRUBufferPool(10), EngineLog())
        loaded = executor2.execute(make_class([1, 2, 3]), io_factor=5.0)
        assert loaded.latency > quiet.latency

    @pytest.mark.parametrize(
        "cpu_factor,io_factor", [(1.0, 1.0), (1.7, 1.0), (1.3, 4.1)]
    )
    def test_latency_is_the_cost_models_to_the_bit(self, cpu_factor, io_factor):
        """The executor computes ``CostModel.latency`` inline: same check,
        same association order, hence the same double."""
        model = CostModel(io_time_per_page=0.0031, hit_time_per_page=0.00007)
        pool = LRUBufferPool(4)
        executor = QueryExecutor(pool, EngineLog(), model)
        executor.execute(make_class([1, 2]))
        query = make_class([1, 2, 3, 4, 5, 6], prefetch=[7, 8, 9], cpu=0.013)
        record = executor.execute(query, cpu_factor=cpu_factor, io_factor=io_factor)
        hits = record.page_accesses - record.misses
        expected = model.latency(
            0.013, hits, record.misses, record.readaheads, cpu_factor, io_factor
        )
        assert record.latency == expected

    @pytest.mark.parametrize("factors", [{"cpu_factor": 0.5}, {"io_factor": nan}])
    def test_execute_rejects_what_the_cost_model_rejects(self, factors):
        executor = QueryExecutor(LRUBufferPool(4), EngineLog())
        with pytest.raises(ValueError, match="contention factors"):
            executor.execute(make_class([1]), **factors)

    def test_demand_pages_reach_the_log_window(self):
        # The demand vector goes to the class's window at execution, in
        # execution order; the record carries counters only.
        log = EngineLog()
        executor = QueryExecutor(LRUBufferPool(10), log)
        record = executor.execute(make_class([1, 2]))
        executor.execute(make_class([3]))
        assert log.window_for("app/q").snapshot().tolist() == [1, 2, 3]
        assert "pages" not in record._fields

    def test_execution_counter(self):
        executor = QueryExecutor(LRUBufferPool(10), EngineLog())
        executor.execute(make_class([1]))
        executor.execute(make_class([1]))
        assert executor.executions == 2

    def test_context_key_on_record(self):
        executor = QueryExecutor(LRUBufferPool(10), EngineLog())
        assert executor.execute(make_class([1])).context_key == "app/q"
