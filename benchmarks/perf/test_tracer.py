"""The tracer's arithmetic and patching, on synthetic code with a fake clock.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/test_tracer.py``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


class FakeClock:
    """Time passes only when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def tracer(clock: FakeClock) -> Tracer:
    tracer = Tracer(clock=clock)
    tracer.current_interval = 0
    yield tracer
    tracer.uninstall()


def test_self_time_is_duration_minus_child_spans(tracer, clock):
    def leaf():
        clock.spend(2.0)

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.spend(0.5)
        leaf()
        clock.spend(0.25)

    middle = tracer.wrap("middle", middle)

    def outer():
        clock.spend(1.0)
        middle()
        leaf()
        clock.spend(1.0)

    tracer.wrap("outer", outer)()

    assert tracer.ledger() == {
        "leaf": (4.0, 2),
        "middle": (0.75, 1),
        "outer": (2.0, 1),
    }
    # Self times add up to the root span: nothing is counted twice.
    assert sum(seconds for seconds, _ in tracer.ledger().values()) == clock.now


def test_spans_keep_parent_and_interval(tracer, clock):
    inner = tracer.wrap("inner", lambda: clock.spend(1.0))
    outer = tracer.wrap("outer", lambda: inner())
    tracer.current_interval = 5
    outer()
    spans = tracer.columns()
    assert spans["parent"].tolist() == [-1, 0]
    assert spans["interval"].tolist() == [5, 5]
    assert spans["start"].tolist() == [0.0, 0.0]
    assert spans["end"].tolist() == [1.0, 1.0]


def test_spans_outside_an_interval_are_not_in_the_ledger(tracer, clock):
    work = tracer.wrap(
        "work", lambda: clock.spend(1.0), ("units",), lambda args, result: (3,)
    )
    tracer.current_interval = -1
    work()  # set-up
    tracer.current_interval = 0
    work()
    assert len(tracer) == 2
    assert tracer.ledger() == {"work": (1.0, 1)}
    assert tracer.counts == {"work.units": 3}


def test_same_layer_reentry_counts_once(tracer, clock):
    class Child:
        def access_many(self, pages):
            clock.spend(1.0)
            return len(pages)

    class Facade:
        def __init__(self):
            self.child = Child()

        def access_many(self, pages):
            clock.spend(0.5)
            return self.child.access_many(pages)

    def count(args, hits):
        return len(args[1]), hits

    tracer.patch("pool", Child, "access_many", ("pages", "hits"), count)
    tracer.patch("pool", Facade, "access_many", ("pages", "hits"), count)

    assert Facade().access_many([1, 2, 3]) == 3
    assert tracer.ledger() == {"pool": (1.5, 1)}
    assert tracer.counts == {"pool.pages": 3, "pool.hits": 3}

    # A direct call to the child is still its own span.
    Child().access_many([4])
    assert tracer.ledger() == {"pool": (2.5, 2)}


def test_the_same_layer_under_another_layer_is_a_new_span(tracer, clock):
    a_inner = tracer.wrap("a", lambda: clock.spend(1.0))
    b = tracer.wrap("b", lambda: a_inner())
    a_outer = tracer.wrap("a", lambda: b())
    a_outer()
    assert tracer.ledger() == {"a": (1.0, 2), "b": (0.0, 1)}


def test_exceptions_close_the_span(tracer, clock):
    def boom():
        clock.spend(1.0)
        raise RuntimeError("boom")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(RuntimeError):
        traced()
    after = tracer.wrap("after", lambda: clock.spend(2.0))
    after()
    assert tracer.ledger() == {"boom": (1.0, 1), "after": (2.0, 1)}
    assert tracer.columns()["parent"].tolist() == [-1, -1]


def test_classmethod_and_staticmethod_are_rewrapped(tracer, clock):
    class Curve:
        def __init__(self, trace):
            self.trace = trace

        @classmethod
        def from_trace(cls, trace):
            clock.spend(1.0)
            return cls(trace)

        @staticmethod
        def depth(trace):
            clock.spend(0.5)
            return len(trace)

    original_class = vars(Curve)["from_trace"]
    original_static = vars(Curve)["depth"]
    tracer.patch("curve.from_trace", Curve, "from_trace")
    tracer.patch("curve.depth", Curve, "depth")

    assert isinstance(vars(Curve)["from_trace"], classmethod)
    assert isinstance(vars(Curve)["depth"], staticmethod)
    curve = Curve.from_trace([1, 2])
    assert isinstance(curve, Curve) and curve.trace == [1, 2]
    assert curve.from_trace([3]).trace == [3]
    assert Curve.depth([1, 2, 3]) == 3 and curve.depth([1]) == 1
    assert tracer.ledger() == {
        "curve.from_trace": (2.0, 2),
        "curve.depth": (1.0, 2),
    }

    tracer.uninstall()
    assert vars(Curve)["from_trace"] is original_class
    assert vars(Curve)["depth"] is original_static


@pytest.fixture
def fake_package(clock):
    """``fakepkg.search`` defines ``search_plan``; the package re-exports it;
    ``fakepkg.controller`` imported it by name and also imports it lazily
    from the package, as ``repro.core.controller`` does with the planner."""
    search = types.ModuleType("fakepkg.search")

    def search_plan(snapshot):
        clock.spend(1.0)
        return f"plan:{snapshot}"

    search.search_plan = search_plan
    package = types.ModuleType("fakepkg")
    package.search = search
    package.search_plan = search_plan
    controller = types.ModuleType("fakepkg.controller")
    controller.search_plan = search_plan
    controller.renamed = search_plan

    def react_lazily(snapshot):
        from fakepkg import search_plan as lazily_imported

        return lazily_imported(snapshot)

    controller.react_lazily = react_lazily
    other = types.ModuleType("otherpkg")
    other.search_plan = search_plan
    modules = {
        "fakepkg": package,
        "fakepkg.search": search,
        "fakepkg.controller": controller,
        "otherpkg": other,
    }
    sys.modules.update(modules)
    yield types.SimpleNamespace(
        original=search_plan, search=search, package=package,
        controller=controller, other=other,
    )
    for name in modules:
        del sys.modules[name]


def test_a_function_is_patched_at_every_binding(tracer, fake_package):
    fake = fake_package
    patched = tracer.patch("planner.search", fake.search, "search_plan")
    assert patched == 4  # definition, re-export, by-name import, alias

    assert fake.search.search_plan("a") == "plan:a"
    assert fake.package.search_plan("b") == "plan:b"
    assert fake.controller.search_plan("c") == "plan:c"
    assert fake.controller.renamed("d") == "plan:d"
    assert fake.controller.react_lazily("e") == "plan:e"
    assert tracer.ledger() == {"planner.search": (5.0, 5)}
    # Another top-level package is not ours to patch.
    assert fake.other.search_plan is fake.original


def test_uninstall_restores_the_original_objects(tracer, fake_package):
    fake = fake_package

    class Engine:
        def execute(self):
            return 1

    original_method = vars(Engine)["execute"]
    tracer.patch("planner.search", fake.search, "search_plan")
    tracer.patch("engine.execute", Engine, "execute")
    assert vars(Engine)["execute"] is not original_method
    assert fake.package.search_plan is not fake.original

    tracer.uninstall()
    assert vars(Engine)["execute"] is original_method
    for holder, attr in (
        (fake.search, "search_plan"),
        (fake.package, "search_plan"),
        (fake.controller, "search_plan"),
        (fake.controller, "renamed"),
    ):
        assert getattr(holder, attr) is fake.original


def test_patching_a_name_the_owner_does_not_define_fails(tracer):
    class Base:
        def run(self):
            return 1

    class Derived(Base):
        pass

    with pytest.raises(KeyError):
        tracer.patch("derived.run", Derived, "run")
    with pytest.raises(KeyError):
        tracer.patch("base.renamed", Base, "renamed")


def test_benchmark_json_lists_exactly_the_metrics_the_benchmark_reports():
    root = Path(__file__).resolve().parents[2]
    sys.path.insert(0, str(root / "src"))
    import layers
    import numpy as np
    from recorder import Recorder
    from workloads import WORKLOADS

    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["per_layer"] == layers.per_layer_schema()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    recorder = Recorder()
    # Two passes of one interval of two pieces, the second inside the
    # control plane; each pass is disturbed in another piece.
    for pieces in ([0.5, 0.1], [0.25, 0.2]):
        recorder.begin_pass()
        done = recorder.current
        done.setup_s, done.pieces = [1.0], [np.array(pieces)]
        done.in_control = [np.array([False, True])]
        done.queries, done.pages, done.closed = [10], [100], [True]
        done.app_intervals = done.sla_met = 1
        done.sim_latency_s = [0.02]
    values = recorder.end_to_end()
    assert list(values) == [m["name"] for m in spec["end_to_end"]]
    assert values["run_wall_s"] == pytest.approx(0.25 + 0.1)
    assert values["control_ms_mean"] == pytest.approx(100.0)
    known = {point.layer for point in layers.TRACE_POINTS}
    for workload in WORKLOADS.values():
        assert set(workload.must_record) | set(workload.must_idle) <= known
