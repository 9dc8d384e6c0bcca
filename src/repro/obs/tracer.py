"""Sim-clock-aware span tracing for the retuning pipeline.

A :class:`Span` is a named, attributed slice of work; spans nest through a
stack the :class:`Tracer` maintains, so instrumented callees land under
whatever span their caller opened (``controller.interval`` →
``analyzer.drain`` / ``diagnosis.run`` → ``mrc.recompute``).

Timestamps come from the *simulated* clock, never the wall clock — much of
the control loop runs at an interval boundary where simulated time stands
still, so spans additionally carry a deterministic **cost** in work units
(trace accesses analysed, records drained, actions applied).  Both are
reproducible run-to-run, which is what makes the trace a regression-testable
artefact rather than a profile.
"""

from __future__ import annotations

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One timed, attributed unit of pipeline work (a context manager)."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "start", "end",
                 "attrs", "cost")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        start: float,
        attrs: dict | None = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.attrs: dict[str, object] = dict(attrs) if attrs else {}
        self.cost = 0.0

    @property
    def duration(self) -> float:
        """Simulated seconds covered; 0.0 while the span is still open."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set_attr(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def add_cost(self, units: float) -> None:
        """Accumulate deterministic work units (never wall time)."""
        if units < 0:
            raise ValueError(f"span cost cannot decrease: {units}")
        self.cost += units

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._finish(self)
        return False  # never swallow the exception

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"end={self.end}" if self.finished else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class Tracer:
    """Produces nested spans stamped with simulated time.

    ``clock`` is anything with a ``now`` attribute (a
    :class:`~repro.sim.clock.SimClock`); without one, spans are stamped 0.0
    and only their costs carry information.  Span ids are assigned
    sequentially and spans are recorded in *completion* order, so the
    export is deterministic whenever the simulation is.
    """

    enabled = True

    def __init__(self, clock=None) -> None:
        self._clock = clock
        self._stack: list[Span] = []
        self._finished: list[Span] = []
        self._next_id = 1

    def bind_clock(self, clock) -> None:
        """Late-bind the simulation clock (harnesses create it last)."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def span(
        self,
        name: str,
        attrs: dict | None = None,
        start: float | None = None,
    ) -> Span:
        """Open a span under the current one; use as a context manager.

        ``start`` overrides the clock reading — the controller uses it to
        stretch ``controller.interval`` back over the measurement interval
        it is closing (all its work happens at the boundary instant).
        """
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            tracer=self,
            name=name,
            span_id=self._next_id,
            parent_id=parent,
            start=self.now if start is None else float(start),
            attrs=attrs,
        )
        self._next_id += 1
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of LIFO order "
                f"(open stack: {[s.name for s in self._stack]})"
            )
        self._stack.pop()
        span.end = max(self.now, span.start)
        self._finished.append(span)

    def finished_spans(self) -> list[Span]:
        """Completed spans in completion order (children before parents)."""
        return list(self._finished)

    @property
    def open_depth(self) -> int:
        return len(self._stack)


class _NullSpan(Span):
    """A reusable, stateless stand-in for disabled tracing."""

    __slots__ = ()

    def set_attr(self, key: str, value: object) -> None:
        pass

    def add_cost(self, units: float) -> None:
        pass

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullTracer(Tracer):
    """The zero-overhead default: every span is the same no-op object."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_span = _NullSpan(
            tracer=self, name="null", span_id=0, parent_id=None, start=0.0
        )

    def span(
        self,
        name: str,
        attrs: dict | None = None,
        start: float | None = None,
    ) -> Span:
        return self._null_span

    def finished_spans(self) -> list[Span]:
        return []


NULL_TRACER = NullTracer()
"""Shared no-op tracer; safe to use as a default everywhere."""
