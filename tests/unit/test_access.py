"""Unit tests for the access-pattern generators."""

import pytest

from repro.engine.access import (
    NO_PAGES,
    CompositePattern,
    ExecutionAccess,
    IndexLookup,
    IndexRangeScan,
    PlanSwitchingPattern,
    SequentialChunkScan,
    UniformWorkingSet,
    ZipfWorkingSet,
)
from repro.engine.indexes import BTreeIndex, IndexCatalog
from repro.engine.pages import PageSpaceAllocator
from repro.engine.tables import Table
from repro.experiments.runner import ClusterHarness
from repro.sim.rng import SeedSequenceFactory
from repro.workloads.tpcw import build_tpcw


@pytest.fixture
def setup():
    allocator = PageSpaceAllocator()
    table = Table.create(allocator, "t", row_count=100_000, row_bytes=1024)
    index = BTreeIndex.create(allocator, "idx", table)
    seeds = SeedSequenceFactory(42)
    return allocator, table, index, seeds


class TestExecutionAccess:
    def test_total_pages(self):
        assert ExecutionAccess(demand=[1, 2], prefetch=[3]).total_pages == 3

    def test_equal_by_value_and_unhashable(self):
        assert ExecutionAccess([1, 2]) == ExecutionAccess([1, 2], [])
        assert ExecutionAccess([1, 2]) != ExecutionAccess([1, 2], [3])
        assert ExecutionAccess() == ExecutionAccess([], [])
        assert ExecutionAccess([1]) != ([1], [])
        assert repr(ExecutionAccess([1])) == "ExecutionAccess(demand=[1], prefetch=[])"
        with pytest.raises(TypeError):
            hash(ExecutionAccess([1]))

    def test_a_missing_list_is_the_shared_empty_one(self):
        access = ExecutionAccess([4])
        assert access.prefetch is NO_PAGES and ExecutionAccess().demand is NO_PAGES
        with pytest.raises(AttributeError):
            access.pages = [1]  # slotted: no other attributes

    def test_no_run_appends_to_the_shared_empty_list(self):
        harness = ClusterHarness.single_app(build_tpcw(5), servers=1, clients=20)
        harness.run(intervals=3)
        assert NO_PAGES == []


class TestZipfWorkingSet:
    def test_demand_count_fixed(self, setup):
        _, table, _, seeds = setup
        pattern = ZipfWorkingSet(table.pages, 100, 0.8, 25, seeds.stream("z"))
        assert len(pattern.pages_for_execution().demand) == 25

    def test_pages_within_working_set_layout(self, setup):
        _, table, _, seeds = setup
        pattern = ZipfWorkingSet(table.pages, 50, 0.8, 200, seeds.stream("z"))
        pages = set()
        for _ in range(20):
            pages.update(pattern.pages_for_execution().demand)
        assert len(pages) <= 50
        assert all(table.pages.contains(p) for p in pages)

    def test_rejects_oversized_working_set(self, setup):
        _, table, _, seeds = setup
        with pytest.raises(ValueError):
            ZipfWorkingSet(table.pages, table.page_count + 1, 0.8, 10, seeds.stream("z"))

    def test_two_patterns_on_one_stream_are_an_error(self, setup):
        """Both read ahead, so they would reorder each other's draws."""
        _, table, _, seeds = setup
        first = ZipfWorkingSet(table.pages, 100, 0.8, 25, seeds.stream("same-name"))
        second = ZipfWorkingSet(table.pages, 100, 0.8, 25, seeds.stream("same-name"))
        with pytest.raises(RuntimeError, match="exactly one consumer"):
            for _ in range(200):
                first.pages_for_execution()
                second.pages_for_execution()

    def test_no_prefetch(self, setup):
        _, table, _, seeds = setup
        pattern = ZipfWorkingSet(table.pages, 100, 0.8, 10, seeds.stream("z"))
        assert pattern.pages_for_execution().prefetch == []


class TestUniformWorkingSet:
    def test_near_uniform_coverage(self, setup):
        _, table, _, seeds = setup
        pattern = UniformWorkingSet(table.pages, 20, 10, seeds.stream("u"))
        pages = set()
        for _ in range(100):
            pages.update(pattern.pages_for_execution().demand)
        assert len(pages) == 20  # every page of a tiny set eventually touched

    @pytest.mark.parametrize("pages_per_execution", [0, -3])
    def test_rejects_non_positive_pages_per_execution(self, setup, pages_per_execution):
        """At construction, with ``ZipfPages``' error — not at the first draw."""
        _, table, _, seeds = setup
        stream = seeds.stream("u")
        with pytest.raises(ValueError, match="pages per execution must be positive"):
            UniformWorkingSet(table.pages, 20, pages_per_execution, stream)
        with pytest.raises(ValueError, match="pages per execution must be positive"):
            ZipfWorkingSet(table.pages, 20, 0.8, pages_per_execution, stream)


class TestSequentialChunkScan:
    def test_consecutive_executions_advance(self, setup):
        _, table, _, _ = setup
        scan = SequentialChunkScan(table.pages, chunk=10, readahead=0, region=100)
        first = scan.pages_for_execution().demand
        second = scan.pages_for_execution().demand
        assert first[-1] + 1 == second[0]

    def test_wraps_at_region_end(self, setup):
        _, table, _, _ = setup
        scan = SequentialChunkScan(table.pages, chunk=60, readahead=0, region=100)
        scan.pages_for_execution()
        second = scan.pages_for_execution().demand
        assert table.pages.page(0) in second  # wrapped back to region start

    def test_prefetch_covers_chunk(self, setup):
        _, table, _, _ = setup
        scan = SequentialChunkScan(table.pages, chunk=10, readahead=4, region=100)
        access = scan.pages_for_execution()
        assert set(access.demand).issubset(set(access.prefetch))
        assert len(access.prefetch) == 14  # chunk + lookahead

    def test_region_clips_to_range(self, setup):
        _, table, _, _ = setup
        scan = SequentialChunkScan(table.pages, chunk=10, region=10**9)
        assert scan.region == table.page_count

    def test_zero_region_is_rejected_not_read_as_whole_range(self, setup):
        _, table, _, _ = setup
        with pytest.raises(ValueError, match="region must be positive"):
            SequentialChunkScan(table.pages, chunk=10, region=0)

    def test_rejects_bad_chunk(self, setup):
        _, table, _, _ = setup
        with pytest.raises(ValueError):
            SequentialChunkScan(table.pages, chunk=0)


class TestIndexLookup:
    def test_demand_includes_index_path_and_data(self, setup):
        _, table, index, seeds = setup
        pattern = IndexLookup(index, seeds.stream("l"), lookups_per_execution=1)
        demand = pattern.pages_for_execution().demand
        assert demand[-1] in range(table.pages.start, table.pages.end)
        assert any(
            index.internal_pages.contains(p) or index.leaf_pages.contains(p)
            for p in demand
        )

    def test_multiple_lookups_scale_demand(self, setup):
        _, _, index, seeds = setup
        single = IndexLookup(index, seeds.stream("a"), lookups_per_execution=1)
        triple = IndexLookup(index, seeds.stream("b"), lookups_per_execution=3)
        assert (
            len(triple.pages_for_execution().demand)
            == 3 * len(single.pages_for_execution().demand)
        )

    def test_key_space_caps_row_domain(self, setup):
        _, table, index, seeds = setup
        pattern = IndexLookup(
            index, seeds.stream("k"), key_space=10, key_theta=0.0
        )
        leaves = set()
        for _ in range(50):
            demand = pattern.pages_for_execution().demand
            leaves.update(p for p in demand if index.leaf_pages.contains(p))
        assert len(leaves) <= 10

    def test_zero_key_space_is_rejected_not_read_as_whole_table(self, setup):
        _, _, index, seeds = setup
        with pytest.raises(ValueError, match="must be positive"):
            IndexLookup(index, seeds.stream("l"), key_space=0)

    def test_rejects_zero_lookups(self, setup):
        _, _, index, seeds = setup
        with pytest.raises(ValueError):
            IndexLookup(index, seeds.stream("l"), lookups_per_execution=0)


class TestIndexRangeScan:
    def test_touches_multiple_leaves_for_wide_span(self, setup):
        _, _, index, seeds = setup
        pattern = IndexRangeScan(index, seeds.stream("r"), row_span=2000)
        demand = pattern.pages_for_execution().demand
        leaves = [p for p in demand if index.leaf_pages.contains(p)]
        assert len(leaves) >= 2000 // index.leaf_entries

    def test_data_fraction_bounds_data_pages(self, setup):
        _, table, index, seeds = setup
        pattern = IndexRangeScan(
            index, seeds.stream("r"), row_span=1600, data_page_fraction=0.5
        )
        demand = pattern.pages_for_execution().demand
        data = [p for p in demand if table.pages.contains(p)]
        matched_pages = 1600 // table.rows_per_page
        assert len(data) <= max(1, matched_pages)

    def test_rejects_bad_fraction(self, setup):
        _, _, index, seeds = setup
        with pytest.raises(ValueError):
            IndexRangeScan(index, seeds.stream("r"), row_span=10, data_page_fraction=2.0)


class TestPlanSwitchingPattern:
    def test_uses_indexed_plan_when_available(self, setup):
        allocator, table, index, seeds = setup
        catalog = IndexCatalog()
        catalog.add(index)
        indexed = ZipfWorkingSet(table.pages, 10, 0.5, 5, seeds.stream("i"))
        fallback = SequentialChunkScan(table.pages, chunk=50, region=100)
        pattern = PlanSwitchingPattern(catalog, "idx", indexed, fallback)
        assert pattern.using_index
        assert len(pattern.pages_for_execution().demand) == 5

    def test_switches_to_fallback_on_drop(self, setup):
        allocator, table, index, seeds = setup
        catalog = IndexCatalog()
        catalog.add(index)
        indexed = ZipfWorkingSet(table.pages, 10, 0.5, 5, seeds.stream("i"))
        fallback = SequentialChunkScan(table.pages, chunk=50, region=100)
        pattern = PlanSwitchingPattern(catalog, "idx", indexed, fallback)
        catalog.drop("idx")
        assert not pattern.using_index
        assert len(pattern.pages_for_execution().demand) == 50


class TestCompositePattern:
    def test_concatenates_parts(self, setup):
        _, table, _, seeds = setup
        pattern = CompositePattern(
            [
                ZipfWorkingSet(table.pages, 10, 0.5, 3, seeds.stream("a")),
                SequentialChunkScan(table.pages, chunk=4, readahead=0, region=50),
            ]
        )
        access = pattern.pages_for_execution()
        assert len(access.demand) == 7

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CompositePattern([])


class _FusedComposite(CompositePattern):
    """Mutant: draws a block of executions from its parts at once and serves
    them one by one — draw-ahead on behalf of other pattern objects."""

    def pages_for_execution(self) -> ExecutionAccess:
        if not getattr(self, "_ahead", None):
            draw = super().pages_for_execution
            self._ahead = [draw() for _ in range(64)][::-1]
        return self._ahead.pop()


class TestPatternSwap:
    """A class's pattern wrapped in a composite mid-block for a few
    executions, then restored, as zoo ``write_burst``'s hook does.  No pattern
    draws ahead on behalf of another pattern object, so the wrapped pattern's
    own sequence goes on where the wrapper left it."""

    BEFORE, DURING, AFTER = 37, 5, 300

    def run(self, class_name: str, wrapper) -> list[list[int]]:
        workload = build_tpcw(seed=7)
        query_class = workload.class_named(class_name)
        saved = query_class.pattern
        steps = [query_class.execute_pages().demand for _ in range(self.BEFORE)]
        query_class.pattern = wrapper([saved, self.scan(workload)])
        steps += [query_class.execute_pages().demand for _ in range(self.DURING)]
        query_class.pattern = saved
        steps += [query_class.execute_pages().demand for _ in range(self.AFTER)]
        return steps

    @staticmethod
    def scan(workload) -> SequentialChunkScan:
        return SequentialChunkScan(
            workload.schema.table("cc_xacts").pages, chunk=40, readahead=0, region=2000
        )

    def uninterrupted(self, class_name: str) -> list[list[int]]:
        workload = build_tpcw(seed=7)
        pattern = workload.class_named(class_name).pattern
        scan = self.scan(workload)
        steps = [
            pattern.pages_for_execution().demand
            for _ in range(self.BEFORE + self.DURING + self.AFTER)
        ]
        for step in range(self.BEFORE, self.BEFORE + self.DURING):
            steps[step] = steps[step] + scan.pages_for_execution().demand
        return steps

    @pytest.mark.parametrize("class_name", ["buy_confirm", "search_title"])
    def test_the_restored_pattern_goes_on_where_it_stopped(self, class_name):
        assert self.run(class_name, CompositePattern) == self.uninterrupted(class_name)

    @pytest.mark.parametrize("class_name", ["buy_confirm", "search_title"])
    def test_a_composite_drawing_ahead_for_its_parts_loses_their_draws(
        self, class_name
    ):
        assert self.run(class_name, _FusedComposite) != self.uninterrupted(class_name)
