"""Unit tests for the per-class MRC store's lookup.

Each class has one slot, and the lookup's contract is *never serve a stale
curve*: a hit is only legal when the page-access window has not advanced
since the curve was taken of the same slice.  The evidence throughout is the
observability registry — ``mrc.recomputations`` counts curves taken,
``mrc.cache.hits`` / ``mrc.cache.misses`` count the lookup's answers — so
staleness would show up as a hit without a matching recomputation.
"""

from repro.core.analyzer import LogAnalyzer
from repro.core.mrc import MRCCache, MRCCacheKey
from repro.engine.access import ZipfWorkingSet
from repro.engine.engine import DatabaseEngine, EngineConfig
from repro.engine.pages import PageSpaceAllocator
from repro.engine.query import QueryClass
from repro.engine.tables import Table
from repro.obs import Observability
from repro.sim.rng import SeedSequenceFactory
from repro.sim.trace import AccessWindow


def make_engine(pool=256, window=50_000):
    return DatabaseEngine(
        EngineConfig(name="e", pool_pages=pool, window_capacity=window)
    )


def zipf_class(name="q", app="app", working_set=50, pages=20):
    allocator = PageSpaceAllocator()
    table = Table.create(allocator, f"t-{name}", row_count=160_000, row_bytes=1024)
    seeds = SeedSequenceFactory(99)
    pattern = ZipfWorkingSet(table.pages, working_set, 0.5, pages, seeds.stream(name))
    return QueryClass(name, app, 1, f"select {name}", pattern)


def run_interval(engine, analyzer, classes, executions, sla_met):
    for _ in range(executions):
        for qc in classes:
            engine.execute(qc)
    return analyzer.close_interval(10.0, sla_met)


def take(cache, context_key, key, trace=(1, 2, 1)):
    """Record ``trace`` for ``context_key`` under ``key``."""
    window = AccessWindow(len(trace))
    window.record_many(list(trace))
    return cache.record(
        context_key, key, window.slice_ending_at(len(trace), len(trace))
    )


class TestMRCCacheUnit:
    def test_get_on_empty_is_miss(self):
        obs = Observability()
        cache = MRCCache(server_memory_pages=256, registry=obs.registry)
        assert cache.get("app/q", MRCCacheKey(10)) is None
        assert cache.hits == 0 and cache.recomputations == 0
        assert obs.registry.value("mrc.cache.misses") == 1.0

    def test_hit_on_exact_key(self):
        cache = MRCCache(server_memory_pages=256)
        key = MRCCacheKey(window_version=10)
        slot = take(cache, "app/q", key)
        assert cache.get("app/q", key) is slot
        assert cache.hits == 1 and cache.recomputations == 1

    def test_window_advance_is_miss_and_keeps_the_slot(self):
        cache = MRCCache(server_memory_pages=256)
        slot = take(cache, "app/q", MRCCacheKey(10))
        assert cache.get("app/q", MRCCacheKey(11)) is None
        # The class keeps its curve until a new one is recorded.
        assert cache.slot("app/q") is slot and len(cache) == 1
        assert cache.get("app/q", MRCCacheKey(10)) is slot
        replaced = take(cache, "app/q", MRCCacheKey(11))
        assert cache.slot("app/q") is replaced and len(cache) == 1

    def test_variant_mismatch_is_miss(self):
        cache = MRCCache(server_memory_pages=256)
        take(cache, "app/q", MRCCacheKey(10, "full"))
        assert cache.get("app/q", MRCCacheKey(10, "recent:2000:5")) is None

    def test_contexts_are_independent(self):
        cache = MRCCache(server_memory_pages=256)
        key = MRCCacheKey(10)
        a = take(cache, "app/a", key)
        b = take(cache, "app/b", key)
        assert cache.get("app/a", key) is a
        take(cache, "app/a", MRCCacheKey(12))
        assert cache.get("app/a", key) is None
        assert cache.get("app/b", key) is b

    def test_counters_reach_registry(self):
        obs = Observability()
        cache = MRCCache(server_memory_pages=64, registry=obs.registry)
        key = MRCCacheKey(1)
        cache.get("c", key)
        take(cache, "c", key)
        cache.get("c", key)
        assert obs.registry.value("mrc.cache.hits") == 1.0
        assert obs.registry.value("mrc.cache.misses") == 1.0

    def test_reset_forgets_entries_and_tallies_without_telemetry(self):
        obs = Observability()
        cache = MRCCache(server_memory_pages=64, registry=obs.registry)
        key = MRCCacheKey(1)
        cache.get("c", key)
        take(cache, "c", key)
        cache.get("c", key)
        cache.reset()
        assert (len(cache), cache.hits, cache.recomputations) == (0, 0, 0)
        # the registry keeps what was published; reset itself publishes nothing
        assert obs.registry.value("mrc.cache.hits") == 1.0
        assert obs.registry.value("mrc.cache.misses") == 1.0


class TestAnalyzerCaching:
    def _warm_analyzer(self):
        obs = Observability()
        engine = make_engine()
        analyzer = LogAnalyzer(engine, "s1", obs=obs)
        qc = zipf_class(pages=50)
        run_interval(engine, analyzer, [qc], 50, {"app": True})
        assert analyzer.mrc.has("app/q")
        return obs, engine, analyzer, qc

    def test_hit_when_window_unchanged(self):
        obs, engine, analyzer, qc = self._warm_analyzer()
        recomputes = analyzer.mrc.recomputations
        before = analyzer.stored_mrc("app/q")
        params = analyzer.recompute_mrc("app/q").parameters
        # Same window: served from the slot — no new analysis.
        assert analyzer.mrc.recomputations == recomputes
        assert obs.registry.value("mrc.cache.hits") >= 1.0
        assert params == before

    def test_miss_after_window_advance(self):
        obs, engine, analyzer, qc = self._warm_analyzer()
        analyzer.recompute_mrc("app/q")  # prime the cache
        recomputes = analyzer.mrc.recomputations
        for _ in range(3):
            engine.execute(qc)  # the access window advances
        analyzer.recompute_mrc("app/q")
        assert analyzer.mrc.recomputations == recomputes + 1

    def test_cached_curve_is_identical(self):
        obs, engine, analyzer, qc = self._warm_analyzer()
        fresh = analyzer.recompute_mrc("app/q").parameters
        analyzer.mrc.reset()
        recomputed = analyzer.recompute_mrc("app/q").parameters
        assert fresh == recomputed

    def test_recent_slice_does_not_reuse_full_curve(self):
        obs, engine, analyzer, qc = self._warm_analyzer()
        analyzer.recompute_mrc("app/q")
        recomputes = analyzer.mrc.recomputations
        analyzer.recompute_mrc("app/q", recent_only=True, min_tail=500)
        # Different slice of the window: a cached full curve must not
        # answer for the recent-only variant.
        assert analyzer.mrc.recomputations == recomputes + 1

    def test_a_hit_reads_nothing_from_the_window(self, monkeypatch):
        # The cache key needs only the window's total_seen: a hit takes no
        # slice and copies nothing.
        obs, engine, analyzer, qc = self._warm_analyzer()
        window = engine.log.window_for("app/q")

        def untouchable(*args, **kwargs):
            raise AssertionError("a cache hit read the access window")

        def served_twice(read):
            read()
            with monkeypatch.context() as patch:
                for name in ("slice_ending_at", "ending_at", "snapshot"):
                    patch.setattr(window, name, untouchable)
                return read()

        served_twice(lambda: analyzer.recompute_mrc("app/q"))
        served_twice(
            lambda: analyzer.assess_recent_behaviour("app/q", 0.25, min_tail=500)
        )
        assert obs.registry.value("mrc.cache.hits") >= 2.0
