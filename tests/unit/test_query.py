"""Unit tests for query templates, classes and the registry."""

import pytest

from repro.engine.access import ExecutionAccess
from repro.engine.query import (
    QueryClass,
    QueryClassRegistry,
    QueryInstance,
    app_of,
    make_context_key,
    normalize_template,
)


class _FixedPattern:
    def pages_for_execution(self):
        return ExecutionAccess(demand=[1, 2, 3])

    def footprint_pages(self):
        return 3


class TestNormalizeTemplate:
    def test_numbers_become_placeholders(self):
        assert (
            normalize_template("SELECT * FROM item WHERE i_id = 42")
            == "select * from item where i_id = ?"
        )

    def test_strings_become_placeholders(self):
        assert (
            normalize_template("SELECT * FROM item WHERE title = 'Moby Dick'")
            == "select * from item where title = ?"
        )

    def test_string_with_escaped_quote(self):
        out = normalize_template(r"SELECT 1 FROM t WHERE a = 'O\'Brien'")
        assert "?" in out and "Brien" not in out

    def test_in_lists_collapse(self):
        a = normalize_template("SELECT 1 FROM t WHERE id IN (1, 2, 3)")
        b = normalize_template("SELECT 1 FROM t WHERE id IN (4, 5)")
        assert a == b

    def test_whitespace_canonicalised(self):
        assert (
            normalize_template("SELECT  1\n  FROM   t")
            == normalize_template("select 1 from t")
        )

    def test_idempotent(self):
        sql = "SELECT * FROM item WHERE i_id = 42 AND title = 'x'"
        once = normalize_template(sql)
        assert normalize_template(once) == once

    def test_different_args_same_template(self):
        a = QueryInstance("app", "SELECT * FROM t WHERE id = 1")
        b = QueryInstance("app", "SELECT * FROM t WHERE id = 999")
        assert a.template == b.template


class TestQueryClass:
    def test_context_key_combines_app_and_name(self):
        qc = QueryClass("q", "app", 1, "select 1", _FixedPattern())
        assert qc.context_key == "app/q"

    def test_app_of_inverts_the_key(self):
        qc = QueryClass("search/by_region", "rubis", 1, "select 1", _FixedPattern())
        assert qc.context_key == make_context_key("rubis", "search/by_region")
        assert app_of(qc.context_key) == "rubis"

    def test_execute_pages_delegates(self):
        qc = QueryClass("q", "app", 1, "select 1", _FixedPattern())
        assert qc.execute_pages().demand == [1, 2, 3]

    def test_footprint_delegates(self):
        qc = QueryClass("q", "app", 1, "select 1", _FixedPattern())
        assert qc.footprint_pages() == 3

    def test_rejects_negative_cpu_cost(self):
        with pytest.raises(ValueError):
            QueryClass("q", "app", 1, "select 1", _FixedPattern(), cpu_cost=-1.0)


class TestQueryClassRegistry:
    def make_class(self, name="q1", template="select ? from t"):
        return QueryClass(name, "app", 1, template, _FixedPattern())

    def test_register_and_classify(self):
        registry = QueryClassRegistry("app")
        qc = self.make_class(template="select * from t where id = ?")
        registry.register(qc)
        instance = QueryInstance("app", "SELECT * FROM t WHERE id = 7")
        assert registry.classify(instance) is qc

    def test_rejects_wrong_app(self):
        registry = QueryClassRegistry("app")
        other = QueryClass("q", "other", 1, "select 1", _FixedPattern())
        with pytest.raises(ValueError):
            registry.register(other)

    def test_rejects_duplicate_name(self):
        registry = QueryClassRegistry("app")
        registry.register(self.make_class(template="select a from t"))
        with pytest.raises(ValueError):
            registry.register(self.make_class(template="select b from t"))

    def test_rejects_duplicate_template(self):
        registry = QueryClassRegistry("app")
        registry.register(self.make_class("a", template="select x from t"))
        with pytest.raises(ValueError):
            registry.register(self.make_class("b", template="select x from t"))

    def test_unknown_template_is_discovered(self):
        registry = QueryClassRegistry("app")
        instance = QueryInstance("app", "SELECT weird FROM nowhere")
        discovered = registry.classify(instance)
        assert discovered.name.startswith("discovered_")

    def test_rediscovery_returns_same_class(self):
        registry = QueryClassRegistry("app")
        a = registry.classify(QueryInstance("app", "SELECT weird FROM x WHERE k = 1"))
        b = registry.classify(QueryInstance("app", "SELECT weird FROM x WHERE k = 2"))
        assert a is b

    def test_discovered_class_has_empty_pattern(self):
        registry = QueryClassRegistry("app")
        discovered = registry.classify(QueryInstance("app", "SELECT ghost FROM g"))
        assert discovered.execute_pages().demand == []
        assert discovered.footprint_pages() == 0

    def test_by_name(self):
        registry = QueryClassRegistry("app")
        qc = self.make_class()
        registry.register(qc)
        assert registry.by_name("q1") is qc

    def test_by_name_unknown_raises(self):
        with pytest.raises(KeyError):
            QueryClassRegistry("app").by_name("nope")

    def test_classes_sorted_by_query_id(self):
        registry = QueryClassRegistry("app")
        second = QueryClass("b", "app", 2, "select b from t", _FixedPattern())
        first = QueryClass("a", "app", 1, "select a from t", _FixedPattern())
        registry.register(second)
        registry.register(first)
        assert [qc.name for qc in registry.classes()] == ["a", "b"]

    def test_contains_and_len(self):
        registry = QueryClassRegistry("app")
        registry.register(self.make_class())
        assert "q1" in registry
        assert len(registry) == 1
