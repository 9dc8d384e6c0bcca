"""Unit tests for the workload fault injectors."""

from repro.engine.locks import LockMode
from repro.workloads.tpcw import (
    ITEM_LOCK_GROUPS,
    O_DATE_INDEX,
    build_tpcw,
    inject_unqualified_admin_update,
)


class TestUnqualifiedAdminUpdate:
    def test_pattern_becomes_full_scan(self):
        workload = build_tpcw(seed=4)
        item_pages = workload.schema.table("item").page_count
        inject_unqualified_admin_update(workload)
        admin = workload.class_named("admin_update")
        access = admin.execute_pages()
        assert len(access.demand) == item_pages

    def test_locks_become_table_wide(self):
        workload = build_tpcw(seed=4)
        inject_unqualified_admin_update(workload)
        admin = workload.class_named("admin_update")
        requests = admin.lock_pattern.requests()
        assert len(requests) == ITEM_LOCK_GROUPS
        assert all(r.mode is LockMode.EXCLUSIVE for r in requests)
        assert all(r.resource[0] == "item" for r in requests)

    def test_other_classes_untouched(self):
        workload = build_tpcw(seed=4)
        before = workload.class_named("product_detail").lock_pattern
        inject_unqualified_admin_update(workload)
        assert workload.class_named("product_detail").lock_pattern is before

    def test_baseline_admin_update_is_narrow(self):
        workload = build_tpcw(seed=4)
        admin = workload.class_named("admin_update")
        assert len(admin.lock_pattern.requests()) == 1
        assert len(admin.execute_pages().demand) < 50


class TestIndexDropFault:
    def test_drop_is_reversible(self):
        workload = build_tpcw(seed=4)
        best_seller = workload.class_named("best_seller")
        assert best_seller.pattern.using_index
        workload.catalog.drop(O_DATE_INDEX)
        assert not best_seller.pattern.using_index
        workload.catalog.restore(O_DATE_INDEX)
        assert best_seller.pattern.using_index

    def test_drop_only_affects_best_seller(self):
        workload = build_tpcw(seed=4)
        patterns_before = {qc.name: qc.pattern for qc in workload.classes()}
        workload.catalog.drop(O_DATE_INDEX)
        # Only best_seller switches plan: no other class's pattern changes
        # or falls back from an index.
        assert {qc.name: qc.pattern for qc in workload.classes()} == patterns_before
        assert [
            qc.name
            for qc in workload.classes()
            if getattr(qc.pattern, "using_index", True) is False
        ] == ["best_seller"]
