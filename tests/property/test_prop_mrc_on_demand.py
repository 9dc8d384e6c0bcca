"""Property: curves analysed on demand read exactly like curves analysed at once.

``LogAnalyzer`` records every curve as a pending ``MRCEntry`` that references
its slice of the access window, and runs Mattson's pass on the first read;
``tests/oracles/eager_mrc.py`` analyses each curve where it is taken, and
``tests/oracles/eager_window.py`` copies each slice where it is taken instead
of just before the window overwrites it.  Three pins:

* a steady run — nothing reads a curve — makes no kernel call at all and
  copies no window access, and its telemetry (``mrc.recomputations``,
  ``mrc.trace_length``, the ``mrc.recompute`` spans and everything else) is
  the oracle's byte for byte;
* any sequence of refreshes, assessments, reads, ``amnesia`` and checkpoint →
  restore, over a window large enough to keep every slice or small enough
  to overwrite slices before they are read, leaves all three analyzers with
  the same parameters and the same hit histograms, export → restore →
  export gives back the same checkpoint on every side, and the copying
  window's checkpoint is the referencing one's byte for byte (the analysing
  oracle's differs: a pending curve is written as its window slice, not
  analysed);
* a pending curve that is superseded, wiped or checkpointed is
  never analysed, and one whose slice is overwritten is copied, not analysed.
"""

import json

from hypothesis import given, settings, strategies as st

from oracles.eager_mrc import EagerLogAnalyzer, eager_analyzers
from oracles.eager_window import EagerCopyWindow
from repro.core.analyzer import LogAnalyzer
from repro.core.controller import ControllerConfig
from repro.engine.access import ZipfWorkingSet
from repro.engine.engine import DatabaseEngine, EngineConfig
from repro.engine.pages import PageSpaceAllocator
from repro.engine.query import QueryClass
from repro.engine.tables import Table
from repro.experiments.runner import ClusterHarness
from repro.obs import Observability, telemetry_lines
from repro.recovery.state import export_analyzer_state, restore_analyzer_state
from repro.sim.rng import SeedSequenceFactory
from repro.sim.trace import AccessWindow
from repro.workloads import build_tpcw

KEYS = ("app/hot", "app/wide")
WINDOWS = (12_000, 1_200)
"""Access-window capacities: one keeps every slice the sequences take, one
overwrites them within an interval or two (20 pages per execution)."""


# --------------------------------------------------------------------- #
# A steady cluster                                                      #
# --------------------------------------------------------------------- #


def steady_telemetry(intervals=8):
    obs = Observability()
    harness = ClusterHarness.single_app(
        build_tpcw(seed=7), servers=1, clients=14, pool_pages=4096,
        config=ControllerConfig(startup_grace_intervals=10**9), obs=obs,
    )
    harness.run(intervals=intervals)
    (analyzer,) = harness.controller.analyzers()
    return telemetry_lines(obs, meta={"seed": 7}), analyzer


def test_a_steady_run_analyses_no_curve_and_says_what_the_oracle_says(
    kernel_calls,
):
    lines, analyzer = steady_telemetry()
    assert kernel_calls == []
    log = analyzer.engine.log
    assert sum(
        log.window_for(key).copied_accesses for key in log.context_keys()
    ) == 0
    with eager_analyzers():
        oracle_lines, oracle = steady_telemetry()
    assert isinstance(oracle, EagerLogAnalyzer)
    assert len(kernel_calls) == oracle.mrc.recomputations
    assert analyzer.mrc.recomputations == oracle.mrc.recomputations > 3
    assert lines == oracle_lines
    records = [json.loads(line) for line in lines]
    assert sum(r.get("name") == "mrc.recompute" for r in records) == len(
        kernel_calls
    )
    assert any(r.get("name") == "mrc.trace_length" for r in records)


# --------------------------------------------------------------------- #
# One engine, two analyzers, any sequence                               #
# --------------------------------------------------------------------- #


def query_classes():
    allocator = PageSpaceAllocator()
    seeds = SeedSequenceFactory(99)
    classes = []
    for name, working_set, theta in (("hot", 60, 0.9), ("wide", 900, 0.3)):
        table = Table.create(
            allocator, f"t-{name}", row_count=160_000, row_bytes=1024
        )
        pattern = ZipfWorkingSet(
            table.pages, working_set, theta, 20, seeds.stream(name)
        )
        classes.append(QueryClass(name, "app", 1, f"select {name}", pattern))
    return classes


class Side:
    """One analyzer on its own engine, fed the same executions as the others."""

    def __init__(self, analyzer_type, window_capacity=12_000, window_type=AccessWindow):
        self.engine = DatabaseEngine(EngineConfig(
            name="e", pool_pages=256, window_capacity=window_capacity,
        ))
        for key in KEYS:
            self.engine.log._windows[key] = window_type(window_capacity)
        self.analyzer = analyzer_type(self.engine, "s1")
        self.classes = query_classes()

    def interval(self, executions, sla_met):
        for _ in range(executions):
            for query_class in self.classes:
                self.engine.execute(query_class)
        self.analyzer.close_interval(
            10.0, {"app": sla_met}, initial_mrc_min_accesses=600
        )

    def checkpoint(self) -> str:
        return json.dumps(export_analyzer_state(self.analyzer), sort_keys=True)

    def restore(self, text: str) -> None:
        restore_analyzer_state(self.analyzer, json.loads(text))

    def reads(self, key):
        analyzer = self.analyzer
        tracked = None
        if analyzer.mrc.has(key):
            curve = analyzer.mrc.curve_of(key)
            tracked = (
                analyzer.mrc.parameters_of(key),
                curve._hits.tolist(),
                curve.cold_misses,
            )
        return tracked, analyzer.stored_mrc(key), analyzer.ensure_mrc(key)

    def state(self):
        analyzer = self.analyzer
        return (
            analyzer.mrc.contexts(),
            analyzer.mrc.recomputations,
            analyzer.mrc.hits,
            [(key, slot.key, slot.before) for key, slot in analyzer.mrc.slots()],
        )


operations = st.one_of(
    st.tuples(st.just("stable"), st.integers(5, 60)),
    st.tuples(st.just("violating"), st.integers(5, 60)),
    st.tuples(st.just("refresh"), st.sampled_from(KEYS), st.booleans()),
    st.tuples(st.just("assess"), st.sampled_from(KEYS)),
    st.tuples(st.just("read"), st.sampled_from(KEYS)),
    st.tuples(st.just("amnesia")),
    st.tuples(st.just("checkpoint")),
)


@given(
    steps=st.lists(operations, min_size=1, max_size=14),
    window_capacity=st.sampled_from(WINDOWS),
)
@settings(max_examples=100, deadline=None)
def test_any_sequence_reads_like_the_eager_oracle(steps, window_capacity):
    sides = (
        Side(LogAnalyzer, window_capacity),
        Side(LogAnalyzer, window_capacity, EagerCopyWindow),
        Side(EagerLogAnalyzer, window_capacity),
    )
    for step in [("stable", 40)] + steps:
        kind = step[0]
        if kind in ("stable", "violating"):
            for side in sides:
                side.interval(step[1], sla_met=kind == "stable")
        elif kind == "refresh":
            for side in sides:
                side.analyzer.recompute_mrc(
                    step[1], recent_only=step[2], min_tail=500
                )
        elif kind == "assess":
            verdicts = [
                side.analyzer.assess_recent_behaviour(
                    step[1], 0.25, min_tail=500, new_class_horizon=1
                )
                for side in sides
            ]
            assert verdicts[0] == verdicts[1] == verdicts[2]
        elif kind == "read":
            reads = [side.reads(step[1]) for side in sides]
            assert reads[0] == reads[1] == reads[2]
        elif kind == "amnesia":
            for side in sides:
                side.analyzer.amnesia()
        else:
            texts = []
            for side in sides:
                text = side.checkpoint()
                side.restore(text)
                assert side.checkpoint() == text
                texts.append(text)
            assert texts[0] == texts[1]
        states = [side.state() for side in sides]
        assert states[0] == states[1] == states[2]
    for key in KEYS:
        reads = [side.reads(key) for side in sides]
        assert reads[0] == reads[1] == reads[2]


# --------------------------------------------------------------------- #
# What is never read is never analysed                                  #
# --------------------------------------------------------------------- #


def test_a_superseded_pending_curve_is_never_analysed(kernel_calls):
    side = Side(LogAnalyzer)
    analyzer = side.analyzer
    side.interval(40, sla_met=True)  # the initial curves, 800 accesses each
    superseded = analyzer.mrc.slot("app/hot").entry
    side.interval(40, sla_met=True)  # the window doubled: refreshed
    current = analyzer.mrc.slot("app/hot").entry
    assert current is not superseded
    assert kernel_calls == []

    params = analyzer.ensure_mrc("app/hot")
    assert kernel_calls == [1600]
    assert superseded._pending is not None  # taken, replaced, never analysed
    # Every read goes to the one slot: no second analysis, and a hit serves
    # the entry already there.
    assert analyzer.stored_mrc("app/hot") is params
    assert analyzer.recompute_mrc("app/hot") is current
    assert analyzer.mrc.parameters_of("app/hot") is params
    assert kernel_calls == [1600]

    # Dropped pending curves are not analysed either.
    analyzer.amnesia()
    assert kernel_calls == [1600]

    # A checkpoint reads no curve, and restore rebuilds each pending one
    # from its window slice.
    side.interval(40, sla_met=True)
    first = side.checkpoint()
    side.restore(first)
    assert side.checkpoint() == first
    assert kernel_calls == [1600]
    assert analyzer.stored_mrc("app/hot") is analyzer.mrc.parameters_of("app/hot")
    assert kernel_calls == [1600, 2400]


def test_an_overwritten_pending_slice_is_copied_not_analysed(kernel_calls):
    lazy, copying, eager = (
        Side(LogAnalyzer, 1_200),
        Side(LogAnalyzer, 1_200, EagerCopyWindow),
        Side(EagerLogAnalyzer, 1_200),
    )
    for side in (lazy, copying):
        side.interval(40, sla_met=True)  # the initial curves, 800 accesses each
    windows = [lazy.engine.log.window_for(key) for key in KEYS]
    assert [window.copied_accesses for window in windows] == [0, 0]
    for side in (lazy, copying):
        side.interval(40, sla_met=True)  # 1 600 seen: accesses 0..399 overwritten
    assert [window.copied_accesses for window in windows] == [800, 800]
    assert kernel_calls == []
    assert lazy.checkpoint() == copying.checkpoint()
    eager.interval(40, sla_met=True)
    eager.interval(40, sla_met=True)
    for key in KEYS:
        assert lazy.reads(key) == copying.reads(key) == eager.reads(key)
    assert [window.copied_accesses for window in windows] == [800, 800]
