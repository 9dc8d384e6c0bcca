"""Per-interval host timers, work counts, correctness checks and the digest.

The only timers an untraced run carries are class-level wrappers around
``ClusterHarness.run`` (every workload drives it one interval per call),
around the control plane's entry points (``ClusterController.close_interval``
and the supervisor's ``maybe_checkpoint``/``restart``), and the piece marks
described below.  Data-plane time is what is left of an interval after its
control time.

Work counts come from public state after the interval closed —
``AppIntervalReport`` and ``LogAnalyzer.current_vectors()`` — not from
``PoolStats`` deltas, which go negative when a quota action rebuilds the
pool.

A run is made of *passes*: the same seeded workload built and run again,
query for query the same simulated work (the digests must agree).  The
reference box shares its cores with neighbours that slow it to about half
speed in bursts of a millisecond to seconds, so one pass measures the
neighbours as much as the program.  An interval is therefore cut into
*pieces* by appending a timestamp at every ``Scheduler.submit``, at every
control-plane entry and exit, and at every miss-ratio curve computed inside
a close; every timed quantity is built from the **least any pass took over
the very same piece**: the time the work takes when nothing disturbs it.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from collections import OrderedDict
from collections.abc import Callable
from functools import wraps

import numpy as np

from repro.cluster.scheduler import Scheduler
from repro.core.analyzer import LogAnalyzer
from repro.core.controller import ClusterController
from repro.core.metrics import Metric
from repro.engine.bufferpool import PartitionedBufferPool
from repro.experiments.runner import ClusterHarness, HarnessResult
from repro.recovery.supervisor import ControlPlaneSupervisor

from layers import RECORDER_COUNTS
from tracer import Tracer

__all__ = ["Recorder", "calibration_ms"]

CONTROL_ENTRY_POINTS = (
    (ClusterController, "close_interval"),
    (ControlPlaneSupervisor, "maybe_checkpoint"),
    (ControlPlaneSupervisor, "restart"),
)
# A piece of an interval ends where one of these is called: every query, and
# inside a close every miss-ratio curve (the one long step there).
PIECE_MARKS = (
    (Scheduler, "submit"),
    (LogAnalyzer, "recompute_mrc"),
)


def calibration_ms() -> float:
    """A fixed pure-Python + numpy kernel: median of three readings, in ms.

    Shaped like the simulator's own work (an LRU walk, then numpy sorting),
    so what disturbs one disturbs the other.  A reading taken before a run is
    compared with one taken after it to flag a noisy machine; metrics are
    never divided by it.
    """
    readings = []
    values = np.arange(100_000, dtype=np.int64)
    scratch = np.empty_like(values)
    pages: OrderedDict[int, None] = OrderedDict.fromkeys(range(4096))
    # Nothing is allocated inside the timed part: the allocator's state after
    # a run differs from its state before, and must not read as noise.
    for _ in range(3):
        started = time.perf_counter()
        for step in range(180_000):
            pages.move_to_end((step * 7919) % 4096)
        for step in range(1, 25):
            np.multiply(values, 2654435761 * step, out=scratch)
            np.remainder(scratch, 1000003, out=scratch)
            scratch.sort()
        readings.append((time.perf_counter() - started) * 1e3)
    return statistics.median(readings)


class _Pass:
    """What one pass measured: per set-up, and per timed interval."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        # Per interval: the seconds each piece took, and which pieces were
        # inside a control-plane entry point.
        self.pieces: list[np.ndarray] = []
        self.in_control: list[np.ndarray] = []
        self.queries: list[int] = []
        self.pages: list[int] = []
        self.closed: list[bool] = []
        self.digests: list[str] = []
        # Per application and closed interval (simulated outcome).
        self.app_intervals = 0
        self.sla_met = 0
        self.sim_latency_s: list[float] = []

    def same_shape(self, other: _Pass) -> bool:
        """Whether both passes made the same set-ups, intervals and pieces."""
        return len(self.setup_s) == len(other.setup_s) and [
            len(pieces) for pieces in self.pieces
        ] == [len(pieces) for pieces in other.pieces]


class Recorder:
    """Measures every interval the patched ``ClusterHarness.run`` closes."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.passes: list[_Pass] = []
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, int] = dict.fromkeys(RECORDER_COUNTS, 0)
        # Timestamps of the interval being timed, and the positions in them
        # at which a control-plane entry point was entered or left.
        self._ticks: list[float] = []
        self._control_marks: list[int] = []
        self._setup_started: float | None = None
        self._warming = False

    @property
    def current(self) -> _Pass:
        return self.passes[-1]

    @property
    def intervals(self) -> int:
        """Timed intervals of the pass under way."""
        return len(self.current.pieces)

    # ------------------------------------------------------------------ #
    # Installation                                                       #
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Patch the timers in (outside the tracer's spans, if any)."""
        for owner, name in CONTROL_ENTRY_POINTS:
            setattr(owner, name, self._control_timer(vars(owner)[name]))
        for owner, name in PIECE_MARKS:
            setattr(owner, name, self._piece_mark(vars(owner)[name]))
        setattr(ClusterHarness, "run", self._interval_timer(vars(ClusterHarness)["run"]))

    def _piece_mark(self, original: Callable) -> Callable:
        ticks, clock = self._ticks, time.perf_counter

        @wraps(original)
        def marked(*args, **kwargs):
            ticks.append(clock())
            return original(*args, **kwargs)

        return marked

    def _control_timer(self, original: Callable) -> Callable:
        ticks, marks, clock = self._ticks, self._control_marks, time.perf_counter

        @wraps(original)
        def timed(*args, **kwargs):
            marks.append(len(ticks))
            ticks.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                marks.append(len(ticks))
                ticks.append(clock())

        return timed

    def _interval_timer(self, original: Callable) -> Callable:
        ticks, marks, clock = self._ticks, self._control_marks, time.perf_counter

        @wraps(original)
        def timed(harness: ClusterHarness, intervals: int) -> HarnessResult:
            if self._warming:
                return original(harness, intervals)
            if intervals != 1:
                raise ValueError("timed intervals are driven one per call")
            if self._setup_started is not None:
                self.end_setup()
            index = self.intervals
            events = harness.events.processed
            faults = _faults_applied(harness)
            if self.tracer is not None:
                self.tracer.current_interval = index
            ticks.clear()
            marks.clear()
            ticks.append(clock())
            try:
                result = original(harness, intervals)
            finally:
                ticks.append(clock())
                if self.tracer is not None:
                    self.tracer.current_interval = -1
            pieces = np.diff(ticks)
            in_control = np.zeros(len(pieces), dtype=bool)
            for entered, left in zip(marks[::2], marks[1::2]):
                in_control[entered:left] = True
            self.current.pieces.append(pieces)
            self.current.in_control.append(in_control)
            self.counts["sim.events.run_until.events"] += (
                harness.events.processed - events
            )
            self.counts["faults.applied"] += _faults_applied(harness) - faults
            self._observe(harness, result, index)
            return result

        return timed

    # ------------------------------------------------------------------ #
    # Phases, driven by the workload                                     #
    # ------------------------------------------------------------------ #

    def begin_pass(self) -> None:
        self.passes.append(_Pass())

    def end_pass(self) -> None:
        """Every pass must have simulated what the first one did."""
        first, current = self.passes[0], self.current
        reference, digests = first.digests, current.digests
        differing = sum(a != b for a, b in zip(reference, digests))
        differing += abs(len(reference) - len(digests))
        if differing == 0 and not first.same_shape(current):
            differing = 1
        if differing:
            self.failed += differing
            self.problem(
                f"pass {len(self.passes)}: {differing} intervals differ from "
                "pass 1 of the same seed"
            )

    def begin_setup(self, warmup: bool) -> None:
        """Start one set-up sample.

        With ``warmup`` the intervals run until :meth:`end_setup` are part
        of the set-up and are not measured; without it the set-up ends when
        the first interval starts.
        """
        self._setup_started = time.perf_counter()
        self._warming = warmup

    def end_setup(self) -> None:
        self.current.setup_s.append(time.perf_counter() - self._setup_started)
        self._setup_started = None
        self._warming = False

    def end_episode(self) -> None:
        """Forget a set-up that an exception cut short."""
        self._setup_started = None
        self._warming = False

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    # ------------------------------------------------------------------ #
    # One closed interval                                                #
    # ------------------------------------------------------------------ #

    def _observe(
        self, harness: ClusterHarness, result: HarnessResult, index: int
    ) -> None:
        current = self.current
        material: list = [index]
        ok = True
        queries = 0
        for app in sorted(result.timelines):
            for report in result.timelines[app]:
                latency, throughput = report.mean_latency, report.throughput
                if not (
                    math.isfinite(latency) and math.isfinite(throughput)
                    and latency >= 0 and throughput >= 0
                ):
                    ok = False
                    self.problem(
                        f"interval {index}: {app} latency={latency} "
                        f"throughput={throughput}"
                    )
                    continue
                queries += round(throughput * harness.interval_length)
                current.app_intervals += 1
                current.sla_met += report.sla_met
                if throughput > 0:
                    current.sim_latency_s.append(latency)
                material.append((
                    app, report.interval_index, repr(latency),
                    repr(throughput), report.sla_met,
                    [(a.kind.value, a.context_key) for a in report.actions],
                ))
        closed = bool(result.timelines)
        pages = 0
        for analyzer in harness.controller.analyzers():
            engine = analyzer.engine
            pool = engine.pool
            if isinstance(pool, PartitionedBufferPool):
                quotas = sum(pool.quota_of(p) for p in pool.partition_names)
                if quotas != engine.pool_pages:
                    ok = False
                    self.problem(
                        f"interval {index}: {engine.name} partitions hold "
                        f"{quotas} of {engine.pool_pages} pages"
                    )
            if not closed:
                continue  # controller down: the vectors are the last close's
            vectors = analyzer.current_vectors()
            for key in sorted(vectors):
                vector = vectors[key]
                accesses = int(vector.get(Metric.PAGE_ACCESSES))
                misses = int(vector.get(Metric.MISSES))
                readaheads = int(vector.get(Metric.READAHEADS))
                if misses > accesses:
                    ok = False
                    self.problem(
                        f"interval {index}: {key} misses {misses} > "
                        f"accesses {accesses}"
                    )
                pages += accesses + readaheads
                material.append((engine.name, key, accesses, misses, readaheads))
        self.failed += not ok
        current.queries.append(queries)
        current.pages.append(pages)
        current.closed.append(closed)
        current.digests.append(
            hashlib.sha256(repr(material).encode()).hexdigest()[:16]
        )

    # ------------------------------------------------------------------ #
    # Results                                                            #
    # ------------------------------------------------------------------ #

    @property
    def sim_digest(self) -> str:
        return hashlib.sha256("".join(self.passes[0].digests).encode()).hexdigest()

    def floor(self) -> dict[str, np.ndarray]:
        """Per interval (and per set-up), the least the passes took, piece
        by piece: ``wall``, ``control`` and ``setup`` seconds.

        A pass that did not do the first pass's work, call for call, has
        nothing to compare and is left out (:meth:`end_pass` reported it).
        """
        first = self.passes[0]
        passes = [p for p in self.passes if first.same_shape(p)]
        wall, control = [], []
        for index, in_control in enumerate(first.in_control):
            least = np.min([p.pieces[index] for p in passes], axis=0)
            wall.append(least.sum())
            control.append(least[in_control].sum())
        return {
            "wall": np.array(wall),
            "control": np.array(control),
            "setup": np.min([p.setup_s for p in passes], axis=0),
        }

    def end_to_end(self) -> dict[str, float]:
        """Every end-to-end metric of the run, by name."""
        floor = self.floor()
        wall, control = floor["wall"], floor["control"]
        first = self.passes[0]
        closed = np.array(first.closed)
        data_s = (wall - control)[closed]
        return {
            "setup_s": float(np.median(floor["setup"])),
            "run_wall_s": float(wall.sum()),
            "interval_ms_p50": float(np.percentile(wall, 50)) * 1e3,
            "interval_ms_p90": float(np.percentile(wall, 90)) * 1e3,
            "data_pages_per_s": float(
                np.median(np.array(first.pages)[closed] / data_s)
            ),
            "data_queries_per_s": float(
                np.median(np.array(first.queries)[closed] / data_s)
            ),
            "control_ms_mean": float(control.sum() / closed.sum()) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "sla_met_share": first.sla_met / first.app_intervals,
            "sim_latency_ms_p50": statistics.median(first.sim_latency_s) * 1e3,
        }


def _faults_applied(harness: ClusterHarness) -> int:
    injector = harness.fault_injector
    return len(injector.applied) if injector is not None else 0
