"""Query classes and the per-application class registry.

The paper's scheduling unit is the *query class*: "all query instances of an
application with the same query template but different arguments", with the
scheduler determining templates on the fly.  Here every workload declares
its classes up front (on-the-fly template discovery is not reproduced; see
DESIGN.md), so this module provides

* :class:`QueryClass` — the unit the whole system schedules, monitors and
  retunes, bundling an access pattern with a CPU cost model, and
* :class:`QueryClassRegistry` — an application's classes by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .access import AccessPattern, ExecutionAccess

__all__ = [
    "make_context_key",
    "app_of",
    "QueryClass",
    "QueryClassRegistry",
]

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
        if not self.cpu_cost >= 0:  # NaN fails this too
            raise ValueError(f"cpu cost must be non-negative: {self.cpu_cost}")

    @cached_property
    def context_key(self) -> str:
        """Globally unique identifier of this query context (``app`` and
        ``name`` are never reassigned, so it is formatted once)."""
        return make_context_key(self.app, self.name)

    def execute_pages(self) -> ExecutionAccess:
        """Page references of one execution (delegates to the pattern)."""
        return self.pattern.pages_for_execution()


def make_context_key(app: str, name: str) -> str:
    """The key of query class ``name`` of ``app``: ``app/name``.

    >>> make_context_key("tpcw", "best_seller")
    'tpcw/best_seller'
    """
    return f"{app}/{name}"


def app_of(context_key: str) -> str:
    """The application an ``app/name`` context key belongs to.

    >>> app_of("rubis/search/by_region")
    'rubis'
    """
    return context_key.split("/", 1)[0]


class QueryClassRegistry:
    """An application's query classes by name; names and templates are
    unique within the application."""

    def __init__(self, app: str) -> None:
        self.app = app
        self._templates: set[str] = set()
        self._by_name: dict[str, QueryClass] = {}

    def register(self, query_class: QueryClass) -> None:
        if query_class.app != self.app:
            raise ValueError(
                f"class {query_class.name!r} belongs to app {query_class.app!r}, "
                f"not {self.app!r}"
            )
        if query_class.name in self._by_name:
            raise ValueError(f"query class {query_class.name!r} already registered")
        if query_class.template in self._templates:
            raise ValueError(
                f"template already registered: {query_class.template!r}"
            )
        self._templates.add(query_class.template)
        self._by_name[query_class.name] = query_class

    def by_name(self, name: str) -> QueryClass:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"app {self.app!r} has no query class {name!r}") from None
