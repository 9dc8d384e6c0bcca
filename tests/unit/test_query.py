"""Unit tests for query classes and the registry."""

import pytest

from repro.engine.access import ExecutionAccess
from repro.engine.query import QueryClass, QueryClassRegistry, app_of, make_context_key


class _FixedPattern:
    def pages_for_execution(self):
        return ExecutionAccess(demand=[1, 2, 3])


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

    def test_rejects_negative_cpu_cost(self):
        with pytest.raises(ValueError):
            QueryClass("q", "app", 1, "select 1", _FixedPattern(), cpu_cost=-1.0)


class TestQueryClassRegistry:
    def make_class(self, name="q1", template="select ? from t"):
        return QueryClass(name, "app", 1, template, _FixedPattern())

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

    def test_by_name(self):
        registry = QueryClassRegistry("app")
        qc = self.make_class()
        registry.register(qc)
        assert registry.by_name("q1") is qc

    def test_by_name_unknown_raises(self):
        with pytest.raises(KeyError):
            QueryClassRegistry("app").by_name("nope")
