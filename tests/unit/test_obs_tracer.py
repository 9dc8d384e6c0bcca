"""Unit tests for span tracing under the simulated clock."""

import pytest

from repro.obs import NULL_TRACER, NullTracer, Span, Tracer
from repro.sim.clock import SimClock


class TestSpanLifecycle:
    def test_span_is_context_manager(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            assert isinstance(span, Span)
            assert not span.finished
        assert span.finished

    def test_ids_sequential_from_one(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert (a.span_id, b.span_id) == (1, 2)

    def test_nesting_records_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_completion_order_children_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["inner", "outer"]

    def test_lifo_close_enforced(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        tracer.span("inner")
        with pytest.raises(RuntimeError, match="LIFO"):
            tracer._finish(outer)

    def test_open_depth_tracks_stack(self):
        tracer = Tracer()
        assert tracer.open_depth == 0
        with tracer.span("a"):
            with tracer.span("b"):
                assert tracer.open_depth == 2
            assert tracer.open_depth == 1
        assert tracer.open_depth == 0


class TestSimClockTiming:
    def test_durations_read_sim_clock(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("interval") as span:
            clock.advance_to(clock.now + 10.0)
        assert span.start == 0.0
        assert span.end == 10.0
        assert span.duration == 10.0

    def test_child_durations_sum_within_parent(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("parent") as parent:
            for _ in range(3):
                with tracer.span("child") as child:
                    clock.advance_to(clock.now + 2.0)
                assert child.duration == 2.0
            clock.advance_to(clock.now + 1.0)
        children = [s for s in tracer.finished_spans() if s.name == "child"]
        assert sum(c.duration for c in children) <= parent.duration
        for child in children:
            assert parent.start <= child.start
            assert child.end <= parent.end

    def test_explicit_start_stretches_back(self):
        clock = SimClock()
        clock.advance_to(clock.now + 10.0)
        tracer = Tracer(clock)
        with tracer.span("interval", start=0.0) as span:
            pass
        assert span.start == 0.0
        assert span.duration == 10.0

    def test_end_never_precedes_start(self):
        clock = SimClock()
        clock.advance_to(clock.now + 5.0)
        tracer = Tracer(clock)
        with tracer.span("future", start=8.0) as span:
            pass
        assert span.end == 8.0
        assert span.duration == 0.0

    def test_clock_late_binding(self):
        tracer = Tracer()
        with tracer.span("before") as before:
            pass
        clock = SimClock()
        clock.advance_to(clock.now + 3.0)
        tracer.bind_clock(clock)
        with tracer.span("after") as after:
            pass
        assert before.start == 0.0
        assert after.start == 3.0


class TestAttributesAndCost:
    def test_attrs_from_open_and_set(self):
        tracer = Tracer()
        with tracer.span("s", attrs={"app": "tpcw"}) as span:
            span.set_attr("action", "apply_quotas")
        assert span.attrs == {"app": "tpcw", "action": "apply_quotas"}

    def test_cost_accumulates(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.add_cost(3)
            span.add_cost(4.5)
        assert span.cost == 7.5

    def test_negative_cost_rejected(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            with pytest.raises(ValueError):
                span.add_cost(-1)


class TestExceptionSafety:
    def test_span_closes_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("risky") as span:
                raise ValueError("boom")
        assert span.finished
        assert span.attrs["error"] == "ValueError"
        assert tracer.open_depth == 0

    def test_nested_exception_unwinds_whole_stack(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("deep failure")
        assert tracer.open_depth == 0
        names = [s.name for s in tracer.finished_spans()]
        assert names == ["inner", "outer"]
        assert all(s.attrs["error"] == "RuntimeError"
                   for s in tracer.finished_spans())

    def test_explicit_error_attr_not_overwritten(self):
        tracer = Tracer()
        with pytest.raises(KeyError):
            with tracer.span("s") as span:
                span.set_attr("error", "custom-label")
                raise KeyError("x")
        assert span.attrs["error"] == "custom-label"

    def test_tracer_usable_after_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failed"):
                raise ValueError
        with tracer.span("next") as span:
            pass
        assert span.parent_id is None
        assert span.finished


class TestNullTracer:
    def test_spans_are_shared_noop(self):
        tracer = NullTracer()
        first = tracer.span("a")
        second = tracer.span("b")
        assert first is second

    def test_null_span_survives_exception(self):
        with pytest.raises(ValueError):
            with NULL_TRACER.span("s"):
                raise ValueError

    def test_nothing_recorded(self):
        tracer = NullTracer()
        with tracer.span("s") as span:
            span.add_cost(10)
            span.set_attr("k", "v")
        assert span.cost == 0.0
        assert span.attrs == {}
        assert tracer.finished_spans() == []

    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True
