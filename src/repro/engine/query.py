"""Query classes, templates and instances.

The paper's scheduling unit is the *query class*: "all query instances of an
application with the same query template but different arguments", with the
scheduler determining templates on the fly.  This module provides

* template normalisation (literal stripping) so instances map to classes,
* :class:`QueryClass` — the unit the whole system schedules, monitors and
  retunes, bundling an access pattern with a CPU cost model, and
* :class:`QueryClassRegistry` — the scheduler-side on-the-fly template
  catalogue.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .access import AccessPattern, ExecutionAccess

__all__ = [
    "normalize_template",
    "make_context_key",
    "app_of",
    "QueryClass",
    "QueryInstance",
    "QueryClassRegistry",
]

_STRING_LITERAL = re.compile(r"'(?:[^'\\]|\\.)*'")
_NUMBER_LITERAL = re.compile(r"\b\d+(?:\.\d+)?\b")
_IN_LIST = re.compile(r"\(\s*\?(?:\s*,\s*\?)+\s*\)")
_WHITESPACE = re.compile(r"\s+")


def normalize_template(sql: str) -> str:
    """Reduce a SQL statement to its template.

    String and numeric literals become ``?`` placeholders, ``IN`` lists of
    placeholders collapse to ``(?)`` (so varying list lengths share one
    class), and whitespace/case are canonicalised.

    >>> normalize_template("SELECT * FROM item WHERE i_id = 42")
    'select * from item where i_id = ?'
    """
    template = _STRING_LITERAL.sub("?", sql)
    template = _NUMBER_LITERAL.sub("?", template)
    template = _IN_LIST.sub("(?)", template)
    template = _WHITESPACE.sub(" ", template).strip()
    return template.lower()


@dataclass
class QueryClass:
    """One query template of one application, with its execution behaviour.

    ``cpu_cost`` is the CPU-seconds one execution consumes on an unloaded
    core; per-page I/O costs come from the buffer pool and the server's I/O
    model, not from here.
    """

    name: str
    app: str
    query_id: int
    template: str
    pattern: AccessPattern
    cpu_cost: float = 0.004
    is_write: bool = False
    lock_pattern: object | None = None  # a locks.RowGroupLockPattern

    def __post_init__(self) -> None:
        if self.cpu_cost < 0:
            raise ValueError(f"cpu cost must be non-negative: {self.cpu_cost}")

    @cached_property
    def context_key(self) -> str:
        """Globally unique identifier of this query context (``app`` and
        ``name`` are never reassigned, so it is formatted once)."""
        return make_context_key(self.app, self.name)

    def execute_pages(self) -> ExecutionAccess:
        """Page references of one execution (delegates to the pattern)."""
        return self.pattern.pages_for_execution()

    def footprint_pages(self) -> int:
        return self.pattern.footprint_pages()


def make_context_key(app: str, name: str) -> str:
    """The key of query class ``name`` of ``app``: ``app/name``."""
    return f"{app}/{name}"


def app_of(context_key: str) -> str:
    """The application an ``app/name`` context key belongs to."""
    return context_key.split("/", 1)[0]


@dataclass
class QueryInstance:
    """One concrete query: an application name, SQL text and arrival time."""

    app: str
    sql: str
    arrival: float = 0.0
    template: str = field(init=False)

    def __post_init__(self) -> None:
        self.template = normalize_template(self.sql)


class QueryClassRegistry:
    """Maps templates to query classes, one registry per application.

    Pre-registered classes (the workload definitions) are matched by
    template.  Unknown templates are *discovered*: a fresh class is minted on
    first sight, mirroring the paper's scheduler which "determines the query
    templates of each application on the fly".  Discovered classes get a
    do-nothing access pattern until the caller binds one.
    """

    def __init__(self, app: str) -> None:
        self.app = app
        self._by_template: dict[str, QueryClass] = {}
        self._by_name: dict[str, QueryClass] = {}
        self._next_discovered_id = 1000

    def register(self, query_class: QueryClass) -> None:
        if query_class.app != self.app:
            raise ValueError(
                f"class {query_class.name!r} belongs to app {query_class.app!r}, "
                f"not {self.app!r}"
            )
        if query_class.name in self._by_name:
            raise ValueError(f"query class {query_class.name!r} already registered")
        if query_class.template in self._by_template:
            raise ValueError(
                f"template already registered: {query_class.template!r}"
            )
        self._by_template[query_class.template] = query_class
        self._by_name[query_class.name] = query_class

    def classify(self, instance: QueryInstance) -> QueryClass:
        """Resolve an instance to its class, discovering new templates."""
        known = self._by_template.get(instance.template)
        if known is not None:
            return known
        return self._discover(instance.template)

    def _discover(self, template: str) -> QueryClass:
        name = f"discovered_{self._next_discovered_id}"
        query_class = QueryClass(
            name=name,
            app=self.app,
            query_id=self._next_discovered_id,
            template=template,
            pattern=_NullPattern(),
        )
        self._next_discovered_id += 1
        self._by_template[template] = query_class
        self._by_name[name] = query_class
        return query_class

    def by_name(self, name: str) -> QueryClass:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"app {self.app!r} has no query class {name!r}") from None

    def classes(self) -> list[QueryClass]:
        """All classes ordered by query id (stable across runs)."""
        return sorted(self._by_name.values(), key=lambda c: c.query_id)

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


class _NullPattern(AccessPattern):
    """Placeholder pattern for classes discovered before being bound."""

    def pages_for_execution(self) -> ExecutionAccess:
        return ExecutionAccess()

    def footprint_pages(self) -> int:
        return 0
