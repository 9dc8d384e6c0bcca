"""Unit tests for the per-class MRC cache.

The cache's contract is *never serve a stale curve*: a hit is only legal
when the page-access window has not advanced and the buffer pool has not
been resized since the curve was computed.  The evidence throughout is the
observability registry — ``mrc.recomputations`` counts real
stack-distance work, ``mrc.cache.hits`` / ``mrc.cache.misses`` count the
cache's answers — so staleness would show up as a hit without a matching
recomputation.
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


def make_engine(pool=256, window=50_000):
    return DatabaseEngine(
        EngineConfig(
            name="e", pool_pages=pool, log_buffer_capacity=4, window_capacity=window
        )
    )


def zipf_class(name="q", app="app", working_set=50, pages=20):
    allocator = PageSpaceAllocator()
    table = Table.create(allocator, f"t-{name}", row_count=160_000, row_bytes=1024)
    seeds = SeedSequenceFactory(99)
    pattern = ZipfWorkingSet(table.pages, working_set, 0.5, pages, seeds.stream(name))
    return QueryClass(name, app, 1, f"select {name}", pattern)


def run_interval(engine, analyzer, classes, executions, sla_met, timestamp=10.0):
    for _ in range(executions):
        for qc in classes:
            engine.execute(qc)
    return analyzer.close_interval(10.0, sla_met, timestamp)


class TestMRCCacheUnit:
    def test_get_on_empty_is_miss(self):
        cache = MRCCache()
        assert cache.get("app/q", MRCCacheKey(10, 256)) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_hit_on_exact_key(self):
        cache = MRCCache()
        key = MRCCacheKey(window_version=10, pool_pages=256)
        cache.put("app/q", key, "value")
        assert cache.get("app/q", key) == "value"
        assert cache.hits == 1 and cache.misses == 0

    def test_window_advance_is_miss_and_evicts(self):
        cache = MRCCache()
        cache.put("app/q", MRCCacheKey(10, 256), "stale")
        assert cache.get("app/q", MRCCacheKey(11, 256)) is None
        # The stale entry must be gone — not even its own key finds it.
        assert cache.get("app/q", MRCCacheKey(10, 256)) is None
        assert len(cache) == 0

    def test_pool_resize_is_miss(self):
        cache = MRCCache()
        cache.put("app/q", MRCCacheKey(10, 256), "stale")
        assert cache.get("app/q", MRCCacheKey(10, 512)) is None

    def test_variant_mismatch_is_miss(self):
        cache = MRCCache()
        cache.put("app/q", MRCCacheKey(10, 256, "full"), "full-curve")
        assert cache.get("app/q", MRCCacheKey(10, 256, "recent:2000:5")) is None

    def test_contexts_are_independent(self):
        cache = MRCCache()
        key = MRCCacheKey(10, 256)
        cache.put("app/a", key, "a")
        cache.put("app/b", key, "b")
        assert cache.get("app/a", key) == "a"
        cache.invalidate("app/a")
        assert cache.get("app/a", key) is None
        assert cache.get("app/b", key) == "b"

    def test_counters_reach_registry(self):
        obs = Observability()
        cache = MRCCache(registry=obs.registry)
        key = MRCCacheKey(1, 64)
        cache.get("c", key)
        cache.put("c", key, "v")
        cache.get("c", key)
        assert obs.registry.value("mrc.cache.hits") == 1.0
        assert obs.registry.value("mrc.cache.misses") == 1.0

    def test_reset_forgets_entries_and_tallies_without_telemetry(self):
        obs = Observability()
        cache = MRCCache(registry=obs.registry)
        key = MRCCacheKey(1, 64)
        cache.get("c", key)
        cache.put("c", key, "v")
        cache.get("c", key)
        cache.reset()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
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
        # Same window, same pool: served from cache — no new analysis.
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

    def test_miss_after_pool_resize(self, monkeypatch):
        obs, engine, analyzer, qc = self._warm_analyzer()
        analyzer.recompute_mrc("app/q")
        recomputes = analyzer.mrc.recomputations
        # Same window but a resized pool: the cached parameters were
        # extracted against the old size, so the curve must be rebuilt.
        monkeypatch.setattr(
            type(engine), "pool_pages", property(lambda self: 4096)
        )
        analyzer.recompute_mrc("app/q")
        assert analyzer.mrc.recomputations == recomputes + 1

    def test_cached_curve_is_identical(self):
        obs, engine, analyzer, qc = self._warm_analyzer()
        fresh = analyzer.recompute_mrc("app/q").parameters
        analyzer.mrc_cache.clear()
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
