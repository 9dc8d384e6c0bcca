"""Unit tests for the standard TPC-W / RUBiS interaction mixes."""

import pytest

from repro.engine.query import QueryClass
from repro.sim.rng import SeedSequenceFactory
from repro.workloads.base import MixEntry, Workload
from repro.workloads.rubis import RUBIS_MIXES, build_rubis
from repro.workloads.tpcw import TPCW_MIXES, build_tpcw


class TestTpcwMixes:
    def test_shopping_is_default(self):
        assert build_tpcw().write_fraction == pytest.approx(
            build_tpcw(mix="shopping").write_fraction
        )

    def test_shopping_write_fraction(self):
        # TPC-W spec: the shopping mix carries 20% writes.
        assert build_tpcw(mix="shopping").write_fraction == pytest.approx(0.20)

    def test_browsing_write_fraction(self):
        # TPC-W spec: ~5% writes in the browsing mix.
        assert build_tpcw(mix="browsing").write_fraction < 0.08

    def test_ordering_write_fraction(self):
        # TPC-W spec: ~50% writes in the ordering mix.
        assert 0.40 < build_tpcw(mix="ordering").write_fraction < 0.60

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            build_tpcw(mix="chaos")

    def test_all_mixes_keep_every_class(self):
        for mix in TPCW_MIXES:
            assert len(build_tpcw(mix=mix).classes()) == 14

    def test_browsing_favours_reads(self):
        shopping = build_tpcw(mix="shopping")
        browsing = build_tpcw(mix="browsing")

        def weight(workload, name):
            for entry in workload.mix:
                if entry.query_class.name == name:
                    return entry.weight
            raise KeyError(name)

        total_s = sum(e.weight for e in shopping.mix)
        total_b = sum(e.weight for e in browsing.mix)
        assert weight(browsing, "best_seller") / total_b > weight(
            shopping, "best_seller"
        ) / total_s

    def test_mixes_share_page_spaces(self):
        # The mix only reweights; the schema and classes are identical.
        a = build_tpcw(mix="shopping").class_named("home")
        b = build_tpcw(mix="ordering").class_named("home")
        assert a.execute_pages().demand == b.execute_pages().demand


class TestRubisMixes:
    def test_bidding_is_default(self):
        assert build_rubis().write_fraction == pytest.approx(0.15)

    def test_browsing_is_read_only(self):
        assert build_rubis(mix="browsing").write_fraction == 0.0

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            build_rubis(mix="chaos")

    def test_browsing_write_classes_never_sampled(self):
        workload = build_rubis(mix="browsing")
        stream = SeedSequenceFactory(77).stream("mix")
        for _ in range(500):
            assert not workload.sample_class(stream).is_write

    def test_all_mix_names_documented(self):
        assert set(RUBIS_MIXES) == {"bidding", "browsing"}
        assert set(TPCW_MIXES) == {"shopping", "browsing", "ordering"}


class TestMixNormalization:
    """Explicit pins on normalised weights and the zoo's mix mutators."""

    # The TPC-W shopping mix, normalised — the exact per-class frequencies
    # every closed-loop driver samples from.
    SHOPPING_WEIGHTS = {
        "home": 0.16,
        "search_title": 0.11,
        "search_subject": 0.07,
        "search_author": 0.06,
        "product_detail": 0.18,
        "order_inquiry": 0.05,
        "order_display": 0.06,
        "best_seller": 0.05,
        "new_products": 0.06,
        "shopping_cart": 0.08,
        "customer_registration": 0.04,
        "buy_request": 0.04,
        "buy_confirm": 0.03,
        "admin_update": 0.01,
    }

    def test_shopping_mix_normalized_weights_pinned(self):
        weights = build_tpcw().normalized_weights()
        assert set(weights) == set(self.SHOPPING_WEIGHTS)
        for name, expected in self.SHOPPING_WEIGHTS.items():
            assert weights[name] == pytest.approx(expected), name

    def test_normalized_weights_sum_to_one(self):
        for build, mixes in ((build_tpcw, TPCW_MIXES), (build_rubis, RUBIS_MIXES)):
            for mix in mixes:
                weights = build(mix=mix).normalized_weights()
                assert sum(weights.values()) == pytest.approx(1.0)
                assert all(w >= 0 for w in weights.values())

    def test_scale_weights_renormalizes_proportionally(self):
        workload = build_tpcw()
        workload.scale_weights({"best_seller": 8.0})
        weights = workload.normalized_weights()
        # 0.05 * 8 / (1 - 0.05 + 0.40)
        assert weights["best_seller"] == pytest.approx(0.40 / 1.35)
        # untouched classes keep their relative proportions
        assert weights["home"] == pytest.approx(0.16 / 1.35)

    def test_scale_weights_unknown_class_rejected(self):
        with pytest.raises(KeyError):
            build_tpcw().scale_weights({"nonexistent": 2.0})

    def test_zoo_mutation_leaves_fresh_builds_untouched(self):
        # The zoo mutates workload mixes in place mid-run; a fresh build
        # must never observe those mutations.
        mutated = build_tpcw()
        mutated.scale_weights({"best_seller": 8.0})
        fresh = build_tpcw()
        for name, expected in self.SHOPPING_WEIGHTS.items():
            assert fresh.normalized_weights()[name] == pytest.approx(
                expected
            ), name

    def test_add_class_joins_mix_and_registry(self):
        workload = build_tpcw()
        base = workload.class_named("best_seller")
        import dataclasses

        new_class = dataclasses.replace(
            base,
            name="olap_report",
            query_id=90,
            template="select sum(ol_qty) from order_line group by ol_i_id",
        )
        workload.add_class(new_class, weight=0.10)
        assert workload.class_named("olap_report") is new_class
        assert workload.normalized_weights()["olap_report"] == pytest.approx(
            0.10 / 1.10
        )

    def test_default_think_time_pinned(self):
        # Closed-loop drivers default to a 1-second mean think time; the
        # zoo's latency plateaus (and the pinned SLA levels) assume it.
        import inspect

        from repro.workloads.clients import ClosedLoopDriver

        signature = inspect.signature(ClosedLoopDriver.__init__)
        assert signature.parameters["think_time_mean"].default == 1.0


class TestSampleClassFollowsTheLiveMix:
    """``sample_class`` caches its sampler; ``Workload.mix`` is a public
    list that callers rebind and mutate in place.  After every kind of
    change the next draws must be those of a fresh workload holding the
    same mix, driven by an equally seeded stream."""

    DRAWS = 60

    @staticmethod
    def stream(name="mix"):
        return SeedSequenceFactory(41).stream(name)

    def warm(self, workload):
        """Populate the cache from the mix as built."""
        stream = self.stream("warm")
        return [workload.sample_class(stream).name for _ in range(self.DRAWS)]

    def assert_follows(self, workload):
        fresh = Workload(
            app=workload.app,
            schema=workload.schema,
            catalog=workload.catalog,
            mix=list(workload.mix),
        )
        a, b = self.stream(), self.stream()
        drawn = [workload.sample_class(a) for _ in range(self.DRAWS)]
        expected = [fresh.sample_class(b) for _ in range(self.DRAWS)]
        assert [c.name for c in drawn] == [c.name for c in expected]
        assert all(x is y for x, y in zip(drawn, expected))
        assert a.generator.random() == b.generator.random()
        return [c.name for c in drawn]

    def test_scale_weights(self):
        workload = build_tpcw(seed=3)
        self.warm(workload)
        workload.scale_weights({"best_seller": 1e6})
        assert set(self.assert_follows(workload)) == {"best_seller"}

    def test_add_class(self):
        workload = build_tpcw(seed=3)
        self.warm(workload)
        newcomer = QueryClass(
            name="report", app=workload.app, query_id=99,
            template="select report", pattern=workload.class_named("home").pattern,
        )
        workload.add_class(newcomer, weight=1e6)
        assert set(self.assert_follows(workload)) == {"report"}

    def test_rebinding_the_mix(self):
        workload = build_tpcw(seed=3)
        self.warm(workload)
        workload.mix = [e for e in workload.mix if e.query_class.is_write]
        names = self.assert_follows(workload)
        assert all(workload.class_named(n).is_write for n in names)

    def test_in_place_item_assignment(self):
        workload = build_tpcw(seed=3)
        self.warm(workload)
        for i, entry in enumerate(workload.mix):
            workload.mix[i] = MixEntry(entry.query_class, 1.0 if i == 4 else 0.0)
        assert set(self.assert_follows(workload)) == {
            workload.mix[4].query_class.name
        }

    def test_in_place_pop(self):
        workload = build_tpcw(seed=3)
        self.warm(workload)
        while len(workload.mix) > 1:
            workload.mix.pop()
        assert set(self.assert_follows(workload)) == {
            workload.mix[0].query_class.name
        }

    def test_emptied_mix_raises(self):
        workload = build_tpcw(seed=3)
        self.warm(workload)
        workload.mix.clear()
        with pytest.raises(ValueError, match="empty mix"):
            workload.sample_class(self.stream())

    def test_all_zero_weights_raise_every_time(self):
        workload = build_tpcw(seed=3)
        self.warm(workload)
        workload.mix = [MixEntry(e.query_class, 0.0) for e in workload.mix]
        stream = self.stream()
        for _ in range(2):
            with pytest.raises(ValueError, match="positive sum"):
                workload.sample_class(stream)

    def test_without_class_copy_has_its_own_cache(self):
        workload = build_tpcw(seed=3)
        before = self.warm(workload)
        copy = workload.without_class("best_seller")
        assert "best_seller" not in self.assert_follows(copy)
        copy.scale_weights({"home": 0.0})
        assert "home" not in self.assert_follows(copy)
        # The original still draws from its own, unchanged mix.
        assert self.warm(workload) == before
