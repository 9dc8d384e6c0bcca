"""Unit tests for the TPC-W and RUBiS workload models."""

import pytest

from repro.sim.rng import SeedSequenceFactory
from repro.workloads.rubis import SEARCH_ITEMS_BY_REGION, build_rubis
from repro.workloads.tpcw import (
    BEST_SELLER,
    NEW_PRODUCTS,
    O_DATE_INDEX,
    build_tpcw,
)


class TestTpcw:
    def test_fourteen_query_classes(self):
        assert len(build_tpcw().classes()) == 14

    def test_shopping_mix_write_fraction(self):
        # The paper uses the shopping mix with 20% writes.
        assert build_tpcw().write_fraction == pytest.approx(0.20)

    def test_best_seller_is_query_eight(self):
        qc = build_tpcw().class_named(BEST_SELLER)
        assert qc.query_id == 8

    def test_new_products_is_query_nine(self):
        qc = build_tpcw().class_named(NEW_PRODUCTS)
        assert qc.query_id == 9

    def test_query_ids_unique(self):
        ids = [qc.query_id for qc in build_tpcw().classes()]
        assert len(set(ids)) == len(ids)

    def test_templates_unique(self):
        templates = [qc.template for qc in build_tpcw().classes()]
        assert len(set(templates)) == len(templates)

    def test_o_date_index_registered(self):
        assert build_tpcw().catalog.available(O_DATE_INDEX)

    def test_best_seller_plan_switches_on_drop(self):
        workload = build_tpcw()
        best_seller = workload.class_named(BEST_SELLER)
        assert best_seller.pattern.using_index
        workload.catalog.drop(O_DATE_INDEX)
        assert not best_seller.pattern.using_index

    def test_drop_only_changes_best_seller_demand_scale(self):
        workload = build_tpcw()
        workload.catalog.drop(O_DATE_INDEX)
        degraded = workload.class_named(BEST_SELLER).execute_pages()
        assert len(degraded.demand) > 1000  # the scan plan

    def test_deterministic_across_builds(self):
        a = build_tpcw(seed=5).class_named("home").execute_pages().demand
        b = build_tpcw(seed=5).class_named("home").execute_pages().demand
        assert a == b

    def test_page_base_offsets_pages(self):
        base = build_tpcw(seed=5)
        shifted = build_tpcw(seed=5, page_base=10_000_000)
        a = base.class_named("home").execute_pages().demand
        b = shifted.class_named("home").execute_pages().demand
        assert all(pb - pa == 10_000_000 for pa, pb in zip(a, b))

    def test_database_scale_plausible(self):
        # ~4 GB of data pages at 16 KiB/page is ~260k pages; ours is the
        # same order of magnitude.
        assert build_tpcw().schema.total_pages > 100_000


class TestRubis:
    def test_bidding_mix_write_fraction(self):
        # The default bidding mix has 15% writes.
        assert build_rubis().write_fraction == pytest.approx(0.15)

    def test_search_by_region_exists(self):
        qc = build_rubis().class_named(SEARCH_ITEMS_BY_REGION)
        assert qc.cpu_cost > 0

    def test_search_by_region_is_io_heavy(self):
        workload = build_rubis()
        sibr = workload.class_named(SEARCH_ITEMS_BY_REGION)
        others_max = max(
            len(qc.execute_pages().demand)
            for qc in workload.classes()
            if qc.name != SEARCH_ITEMS_BY_REGION
        )
        assert len(sibr.execute_pages().demand) > 5 * others_max

    def test_custom_app_name_rekeys_contexts(self):
        workload = build_rubis(app="rubis2")
        assert all(qc.app == "rubis2" for qc in workload.classes())

    def test_two_instances_have_disjoint_pages(self):
        one = build_rubis(app="r1", page_base=0)
        two = build_rubis(app="r2", page_base=5_000_000)
        pages_one = set(one.class_named("view_item").execute_pages().demand)
        pages_two = set(two.class_named("view_item").execute_pages().demand)
        assert pages_one.isdisjoint(pages_two)


class TestWorkloadApi:
    def test_sample_class_follows_weights(self):
        workload = build_tpcw()
        seeds = SeedSequenceFactory(123)
        stream = seeds.stream("mix")
        counts = {}
        for _ in range(3000):
            qc = workload.sample_class(stream)
            counts[qc.name] = counts.get(qc.name, 0) + 1
        # product_detail (weight .18) should be drawn far more than
        # admin_update (weight .01).
        assert counts.get("product_detail", 0) > 5 * counts.get("admin_update", 1)

    def test_without_class_removes_from_mix(self):
        workload = build_rubis()
        reduced = workload.without_class(SEARCH_ITEMS_BY_REGION)
        names = [qc.name for qc in reduced.classes()]
        assert SEARCH_ITEMS_BY_REGION not in names
        assert len(names) == len(workload.classes()) - 1

    def test_without_unknown_class_raises(self):
        with pytest.raises(KeyError):
            build_rubis().without_class("ghost")

    def test_class_named_unknown_raises(self):
        with pytest.raises(KeyError):
            build_tpcw().class_named("ghost")
