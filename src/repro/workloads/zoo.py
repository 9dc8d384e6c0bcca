"""The workload zoo: seeded, non-stationary scenarios with ground truth.

Every experiment in the repository so far drives a *stationary* paper mix,
so the outlier detector only ever sees the workloads it was tuned for.  The
zoo adds a family of adversarial, non-stationary generators behind the same
:mod:`base`/:mod:`clients` API:

* ``diurnal`` — a sinusoid client population (a day/night cycle).  The SLA
  violations at the peak are pure CPU saturation: **no** query class is a
  true outlier, so any class-level detection is a false positive.
* ``flash_crowd`` — a sudden popularity surge: the client population jumps
  and the mix skews hard toward BestSeller for a bounded window.
* ``working_set_drift`` — NewProducts' access locality drifts mid-run to a
  several-times-larger working set (a catalogue refresh).
* ``olap_storm`` — an OLAP reporting scan is co-located with the OLTP mix
  mid-run (a new, LRU-pathological query class appears).
* ``write_burst`` — the write classes burst to many times their paper
  frequency for a bounded window (a checkout rush).
* ``noisy_neighbour`` — an antagonist application with one memory-hog scan
  class starts inside the shared engine (the Table 2 mechanism, but with a
  purpose-built aggressor instead of RUBiS).

Each scenario carries a machine-readable **ground-truth label stream**: a
list of episodes that partitions the run's intervals, each naming the cause
and the context keys (``app/class``) that are genuinely responsible.  The
:mod:`repro.analysis.quality` scorer compares the controller's detections
against this stream to produce precision/recall/F1.

Scenario parameters are drawn from the scenario's seed inside *declared
envelopes* (:data:`ZOO_ENVELOPES`), so every seed yields a slightly
different but bounded run — and the property suite can assert the bounds.
Builders are pure: building the same scenario twice from the same seed
yields byte-identical behaviour (``tests/zoo_probe.py`` fingerprints it).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from ..engine.access import (
    CompositePattern,
    SequentialChunkScan,
    UniformWorkingSet,
    ZipfWorkingSet,
)
from ..engine.indexes import IndexCatalog
from ..engine.query import QueryClass, make_context_key
from ..engine.tables import PageSpaceAllocator, Schema
from ..sim.rng import SeedSequenceFactory
from .base import MixEntry, Workload
from .load import BurstLoad, ConstantLoad, LoadFunction, SineLoad
from .tpcw import build_tpcw

__all__ = [
    "GroundTruthLabel",
    "LabelStream",
    "ZooScenario",
    "ZOO_ENVELOPES",
    "ZOO_SCENARIOS",
    "build_antagonist",
    "build_zoo_scenario",
    "zoo_scenario_names",
]

# The antagonist application's pages must not collide with TPC-W (base 0)
# or RUBiS (base 1_000_000) when sharing an engine.
ANTAGONIST_PAGE_BASE = 2_000_000

STABLE = "stable"


@dataclass(frozen=True)
class GroundTruthLabel:
    """One episode of ground truth: ``[start, end)`` intervals.

    ``contexts`` names the query contexts (``app/class``) that are *truly*
    responsible for the episode's anomaly — empty for benign episodes and
    for causes with no guilty class (pure CPU saturation).
    """

    start: int
    end: int
    cause: str
    contexts: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"episode must satisfy 0 <= start < end: [{self.start}, {self.end})"
            )

    @property
    def is_anomaly(self) -> bool:
        return self.cause != STABLE

    def covers(self, interval: int, tolerance: int = 0) -> bool:
        return self.start - tolerance <= interval < self.end + tolerance


class LabelStream:
    """The ground-truth episodes of one run, partitioning its intervals.

    The episodes must tile ``[0, intervals)`` exactly — no gaps, no
    overlaps — so that every interval has exactly one labelled cause.
    """

    def __init__(self, intervals: int, labels: Iterable[GroundTruthLabel]) -> None:
        if intervals <= 0:
            raise ValueError(f"interval count must be positive: {intervals}")
        ordered = sorted(labels, key=lambda label: label.start)
        if not ordered:
            raise ValueError("a label stream needs at least one episode")
        cursor = 0
        for label in ordered:
            if label.start != cursor:
                raise ValueError(
                    f"episodes must partition [0, {intervals}): expected an "
                    f"episode starting at {cursor}, got {label.start}"
                )
            cursor = label.end
        if cursor != intervals:
            raise ValueError(
                f"episodes must partition [0, {intervals}): last episode "
                f"ends at {cursor}"
            )
        self.intervals = intervals
        self.labels: tuple[GroundTruthLabel, ...] = tuple(ordered)

    def label_at(self, interval: int) -> GroundTruthLabel:
        if not 0 <= interval < self.intervals:
            raise IndexError(f"interval {interval} outside [0, {self.intervals})")
        for label in self.labels:
            if label.covers(interval):
                return label
        raise AssertionError("partition invariant violated")  # pragma: no cover

    def anomalies(self) -> list[GroundTruthLabel]:
        return [label for label in self.labels if label.is_anomaly]

    def to_jsonable(self) -> list[dict]:
        return [
            {
                "start": label.start,
                "end": label.end,
                "cause": label.cause,
                "contexts": list(label.contexts),
            }
            for label in self.labels
        ]


# A hook mutates the running harness just before one interval starts; the
# zoo stores them as (interval, callable) pairs and the experiment runner
# installs them via ``ClusterHarness.at_interval``.
ZooHook = tuple[int, Callable]


@dataclass
class ZooScenario:
    """One zoo scenario, fully described but not yet running.

    ``params`` holds the seed-derived numbers actually used, so tests can
    assert them against :data:`ZOO_ENVELOPES` and bench artefacts can
    record them.
    """

    name: str
    description: str
    seed: int
    intervals: int
    workloads: list[Workload]
    clients: dict[str, int | LoadFunction]
    labels: LabelStream
    hooks: list[ZooHook] = field(default_factory=list)
    params: dict[str, float] = field(default_factory=dict)
    shared_engine: bool = False
    servers: int = 2
    pool_pages: int = 8192
    cores: int = 16
    sla_latency: float = 1.0
    fallback_patience: int = 3

    def __post_init__(self) -> None:
        if self.labels.intervals != self.intervals:
            raise ValueError(
                f"label stream covers {self.labels.intervals} intervals, "
                f"scenario runs {self.intervals}"
            )


# Declared parameter envelopes: every seed-derived parameter of a scenario
# must land inside its (low, high) bounds (inclusive).  The property suite
# enforces this for arbitrary seeds.
ZOO_ENVELOPES: dict[str, dict[str, tuple[float, float]]] = {
    "diurnal": {
        "amplitude": (45, 60),
        "period": (300.0, 300.0),
        "base_clients": (70, 70),
    },
    "flash_crowd": {
        "mix_multiplier": (6.0, 9.0),
        "client_multiplier": (1.3, 1.6),
        "burst_intervals": (5, 7),
    },
    "working_set_drift": {
        # The TPC-W item table holds 6250 pages; the drifted working set
        # must stay inside it.
        "working_set": (4500, 6000),
        "pages_per_execution": (320, 400),
        "drift_at": (10, 10),
    },
    "olap_storm": {
        "chunk": (500, 800),
        "region": (10000, 10000),
        "weight": (0.08, 0.11),
    },
    "write_burst": {
        "mix_multiplier": (10.0, 16.0),
        "burst_intervals": (5, 7),
        "append_chunk": (180, 240),
    },
    "noisy_neighbour": {
        "antagonist_clients": (400, 480),
        "hog_working_set": (7200, 7800),
        "starts_at": (10, 10),
    },
}


def _params_stream(name: str, seed: int):
    return SeedSequenceFactory(seed).stream(f"zoo-{name}-params")


def _draw(stream, envelope: tuple[float, float]) -> float:
    low, high = envelope
    if low == high:
        return low
    return stream.uniform(low, high)


def _draw_int(stream, envelope: tuple[float, float]) -> int:
    low, high = envelope
    if low == high:
        return int(low)
    return int(stream.integers(int(low), int(high) + 1))


# --------------------------------------------------------------------- #
# The antagonist application                                            #
# --------------------------------------------------------------------- #


def build_antagonist(
    seed: int = 7,
    app: str = "noisy",
    page_base: int = ANTAGONIST_PAGE_BASE,
    hog_working_set: int = 7500,
) -> Workload:
    """A purpose-built noisy neighbour: one memory-hog scan class.

    ``hog_scan`` references a uniform working set sized close to the whole
    shared buffer pool, so it cannot be co-located with TPC-W — the quota
    search must fail and the controller must reschedule it.  The two other
    classes are deliberately tiny bystanders: they stay below the
    diagnosis's ``min_window_accesses`` floor, so a correct detector names
    only ``hog_scan``.
    """
    seeds = SeedSequenceFactory(seed)
    schema = Schema(name=app, allocator=PageSpaceAllocator(base=page_base))
    catalog = IndexCatalog()
    blob = schema.add_table("blob", row_count=1_500_000, row_bytes=400)
    scratch = schema.add_table("scratch", row_count=100_000, row_bytes=200)

    hog = QueryClass(
        name="hog_scan",
        app=app,
        query_id=1,
        template="select payload from blob where shard = ?",
        pattern=UniformWorkingSet(
            blob.pages,
            working_set=hog_working_set,
            pages_per_execution=1000,
            stream=seeds.stream("hog"),
        ),
        cpu_cost=0.002,
    )
    ping = QueryClass(
        name="ping",
        app=app,
        query_id=2,
        template="select 1 from scratch where id = ?",
        pattern=ZipfWorkingSet(
            scratch.pages, 60, 0.8, 2, seeds.stream("ping")
        ),
        cpu_cost=0.001,
    )
    status = QueryClass(
        name="status",
        app=app,
        query_id=3,
        template="select count(*) from scratch",
        pattern=ZipfWorkingSet(
            scratch.pages, 40, 0.9, 2, seeds.stream("status")
        ),
        cpu_cost=0.001,
    )
    mix = [
        MixEntry(query_class=hog, weight=0.70),
        MixEntry(query_class=ping, weight=0.20),
        MixEntry(query_class=status, weight=0.10),
    ]
    return Workload(app=app, schema=schema, catalog=catalog, mix=mix, seeds=seeds)


# --------------------------------------------------------------------- #
# Scenario builders                                                     #
# --------------------------------------------------------------------- #

INTERVAL_LENGTH = 10.0  # the controller's measurement interval (seconds)


def build_diurnal(seed: int = 7) -> ZooScenario:
    """A day/night sinusoid: violations at the peak are pure CPU saturation.

    This is the zoo's false-positive control — the ground truth says *no*
    query class is an outlier anywhere, so every class-level detection the
    controller emits during the peak costs precision.
    """
    envelope = ZOO_ENVELOPES["diurnal"]
    stream = _params_stream("diurnal", seed)
    base = _draw_int(stream, envelope["base_clients"])
    amplitude = _draw_int(stream, envelope["amplitude"])
    period = _draw(stream, envelope["period"])
    intervals = 30

    workload = build_tpcw(seed=seed)
    load = SineLoad(base=base, amplitude=amplitude, period=period, noise=0)

    # The saturation window: intervals whose midpoint load reaches 50% of
    # the way up the sine's swing.  Deterministic because noise is zero.
    threshold = base + 0.5 * amplitude
    peak = [
        index
        for index in range(intervals)
        if load.clients_at((index + 0.5) * INTERVAL_LENGTH) >= threshold
    ]
    first, last = min(peak), max(peak)
    labels = LabelStream(
        intervals,
        [
            GroundTruthLabel(0, first, STABLE),
            GroundTruthLabel(first, last + 1, "cpu_saturation"),
            GroundTruthLabel(last + 1, intervals, STABLE),
        ],
    )
    return ZooScenario(
        name="diurnal",
        description="sinusoid load cycle; peak violations are CPU-only",
        seed=seed,
        intervals=intervals,
        workloads=[workload],
        clients={workload.app: load},
        labels=labels,
        params={
            "base_clients": base,
            "amplitude": amplitude,
            "period": period,
        },
        servers=4,
        cores=2,
    )


def build_flash_crowd(seed: int = 7) -> ZooScenario:
    """A flash crowd: clients spike and the mix skews toward BestSeller."""
    envelope = ZOO_ENVELOPES["flash_crowd"]
    stream = _params_stream("flash_crowd", seed)
    mix_multiplier = _draw(stream, envelope["mix_multiplier"])
    client_multiplier = _draw(stream, envelope["client_multiplier"])
    burst_intervals = _draw_int(stream, envelope["burst_intervals"])
    intervals = 26
    starts_at = 10
    ends_at = starts_at + burst_intervals
    base_clients = 60

    workload = build_tpcw(seed=seed)
    load = BurstLoad(
        base=base_clients,
        start=starts_at * INTERVAL_LENGTH,
        duration=burst_intervals * INTERVAL_LENGTH,
        multiplier=client_multiplier,
    )

    def surge(harness) -> None:
        harness.workloads[workload.app].scale_weights(
            {"best_seller": mix_multiplier}
        )

    def recede(harness) -> None:
        harness.workloads[workload.app].scale_weights(
            {"best_seller": 1.0 / mix_multiplier}
        )

    labels = LabelStream(
        intervals,
        [
            GroundTruthLabel(0, starts_at, STABLE),
            GroundTruthLabel(
                starts_at,
                ends_at,
                "flash_crowd",
                (make_context_key(workload.app, "best_seller"),),
            ),
            GroundTruthLabel(ends_at, intervals, STABLE),
        ],
    )
    return ZooScenario(
        name="flash_crowd",
        description="client spike + mix skew toward BestSeller",
        seed=seed,
        intervals=intervals,
        workloads=[workload],
        clients={workload.app: load},
        labels=labels,
        hooks=[(starts_at, surge), (ends_at, recede)],
        params={
            "mix_multiplier": mix_multiplier,
            "client_multiplier": client_multiplier,
            "burst_intervals": burst_intervals,
        },
        pool_pages=4096,
        sla_latency=0.5,
    )


def build_working_set_drift(seed: int = 7) -> ZooScenario:
    """NewProducts' locality drifts to a several-times-larger working set."""
    envelope = ZOO_ENVELOPES["working_set_drift"]
    stream = _params_stream("working_set_drift", seed)
    working_set = _draw_int(stream, envelope["working_set"])
    pages_per_execution = _draw_int(stream, envelope["pages_per_execution"])
    drift_at = _draw_int(stream, envelope["drift_at"])
    intervals = 26

    workload = build_tpcw(seed=seed)

    def drift(harness) -> None:
        drifting = harness.workloads[workload.app]
        item = drifting.schema.table("item")
        target = drifting.class_named("new_products")
        target.pattern = ZipfWorkingSet(
            item.pages,
            working_set=working_set,
            theta=0.30,
            pages_per_execution=pages_per_execution,
            stream=drifting.seeds.stream("zoo-drift"),
        )

    labels = LabelStream(
        intervals,
        [
            GroundTruthLabel(0, drift_at, STABLE),
            GroundTruthLabel(
                drift_at,
                intervals,
                "working_set_drift",
                (make_context_key(workload.app, "new_products"),),
            ),
        ],
    )
    return ZooScenario(
        name="working_set_drift",
        description="NewProducts' working set grows several-fold mid-run",
        seed=seed,
        intervals=intervals,
        workloads=[workload],
        clients={workload.app: 70},
        labels=labels,
        hooks=[(drift_at, drift)],
        params={
            "working_set": working_set,
            "pages_per_execution": pages_per_execution,
            "drift_at": drift_at,
        },
        pool_pages=4096,
        sla_latency=0.4,
    )


def build_olap_storm(seed: int = 7) -> ZooScenario:
    """An OLAP reporting scan appears inside the OLTP mix mid-run."""
    envelope = ZOO_ENVELOPES["olap_storm"]
    stream = _params_stream("olap_storm", seed)
    chunk = _draw_int(stream, envelope["chunk"])
    region = _draw_int(stream, envelope["region"])
    weight = _draw(stream, envelope["weight"])
    storm_at = 10
    intervals = 26

    workload = build_tpcw(seed=seed)

    def storm(harness) -> None:
        hosting = harness.workloads[workload.app]
        order_line = hosting.schema.table("order_line")
        total = sum(entry.weight for entry in hosting.mix)
        olap = QueryClass(
            name="olap_report",
            app=hosting.app,
            query_id=90,
            template=(
                "select ol_i_id, sum(ol_qty) from order_line "
                "group by ol_i_id"
            ),
            pattern=SequentialChunkScan(
                order_line.pages, chunk=chunk, readahead=64, region=region
            ),
            cpu_cost=0.020,
        )
        hosting.add_class(olap, weight * total)

    labels = LabelStream(
        intervals,
        [
            GroundTruthLabel(0, storm_at, STABLE),
            GroundTruthLabel(
                storm_at,
                intervals,
                "scan_storm",
                (make_context_key(workload.app, "olap_report"),),
            ),
        ],
    )
    return ZooScenario(
        name="olap_storm",
        description="an OLAP scan class is co-located with the OLTP mix",
        seed=seed,
        intervals=intervals,
        workloads=[workload],
        clients={workload.app: 50},
        labels=labels,
        hooks=[(storm_at, storm)],
        params={"chunk": chunk, "region": region, "weight": weight},
        pool_pages=4096,
        sla_latency=0.6,
    )


WRITE_BURST_CLASSES = ("buy_confirm",)
WRITE_BURST_APPEND_REGION = 3000


def build_write_burst(seed: int = 7) -> ZooScenario:
    """A checkout rush: order confirmations burst into bulk appends.

    During the burst window BuyConfirm and AdminUpdate run many times their
    paper frequency, and each BuyConfirm additionally appends a chunk of
    fresh ``cc_xacts`` history pages (the bulk-insert tail every checkout
    rush drags behind it).  Both the frequencies and BuyConfirm's pattern
    are restored when the burst ends.
    """
    envelope = ZOO_ENVELOPES["write_burst"]
    stream = _params_stream("write_burst", seed)
    mix_multiplier = _draw(stream, envelope["mix_multiplier"])
    burst_intervals = _draw_int(stream, envelope["burst_intervals"])
    append_chunk = _draw_int(stream, envelope["append_chunk"])
    starts_at = 10
    ends_at = starts_at + burst_intervals
    intervals = 26

    workload = build_tpcw(seed=seed)
    saved: dict[str, object] = {}

    def burst(harness) -> None:
        hosting = harness.workloads[workload.app]
        hosting.scale_weights(
            {name: mix_multiplier for name in WRITE_BURST_CLASSES}
        )
        confirm = hosting.class_named("buy_confirm")
        saved["pattern"] = confirm.pattern
        cc_xacts = hosting.schema.table("cc_xacts")
        confirm.pattern = CompositePattern(
            [
                confirm.pattern,
                SequentialChunkScan(
                    cc_xacts.pages,
                    chunk=append_chunk,
                    readahead=32,
                    region=WRITE_BURST_APPEND_REGION,
                ),
            ]
        )

    def settle(harness) -> None:
        hosting = harness.workloads[workload.app]
        hosting.scale_weights(
            {name: 1.0 / mix_multiplier for name in WRITE_BURST_CLASSES}
        )
        hosting.class_named("buy_confirm").pattern = saved["pattern"]

    contexts = tuple(
        make_context_key(workload.app, name) for name in WRITE_BURST_CLASSES
    )
    labels = LabelStream(
        intervals,
        [
            GroundTruthLabel(0, starts_at, STABLE),
            GroundTruthLabel(starts_at, ends_at, "write_burst", contexts),
            GroundTruthLabel(ends_at, intervals, STABLE),
        ],
    )
    return ZooScenario(
        name="write_burst",
        description="checkout rush: write classes burst with bulk appends",
        seed=seed,
        intervals=intervals,
        workloads=[workload],
        clients={workload.app: 50},
        labels=labels,
        hooks=[(starts_at, burst), (ends_at, settle)],
        params={
            "mix_multiplier": mix_multiplier,
            "burst_intervals": burst_intervals,
            "append_chunk": append_chunk,
        },
        pool_pages=4096,
        sla_latency=0.3,
    )


def build_noisy_neighbour(seed: int = 7) -> ZooScenario:
    """An antagonist app with a memory-hog scan starts in the shared engine."""
    envelope = ZOO_ENVELOPES["noisy_neighbour"]
    stream = _params_stream("noisy_neighbour", seed)
    antagonist_clients = _draw_int(stream, envelope["antagonist_clients"])
    hog_working_set = _draw_int(stream, envelope["hog_working_set"])
    starts_at = _draw_int(stream, envelope["starts_at"])
    intervals = 26

    # AdminUpdate's X-locks are held longer once the hog pollutes the pool,
    # and the resulting lock-wait share would preempt the memory diagnosis
    # every interval.  This scenario is about buffer-pool interference, so
    # the victim runs the browsing-heavy mix without the admin class.
    tpcw = build_tpcw(seed=seed).without_class("admin_update")
    antagonist = build_antagonist(
        seed=seed + 11, hog_working_set=hog_working_set
    )

    def arrive(harness) -> None:
        harness.drivers[antagonist.app].load = ConstantLoad(antagonist_clients)

    labels = LabelStream(
        intervals,
        [
            GroundTruthLabel(0, starts_at, STABLE),
            GroundTruthLabel(
                starts_at,
                intervals,
                "noisy_neighbour",
                (make_context_key(antagonist.app, "hog_scan"),),
            ),
        ],
    )
    return ZooScenario(
        name="noisy_neighbour",
        description="an antagonist app's hog scan joins the shared engine",
        seed=seed,
        intervals=intervals,
        workloads=[tpcw, antagonist],
        clients={tpcw.app: 60, antagonist.app: 0},
        labels=labels,
        hooks=[(starts_at, arrive)],
        params={
            "antagonist_clients": antagonist_clients,
            "hog_working_set": hog_working_set,
            "starts_at": starts_at,
        },
        shared_engine=True,
        servers=2,  # spare servers the reschedule can target
        sla_latency=0.2,
        fallback_patience=5,
    )


ZOO_SCENARIOS: dict[str, Callable[[int], ZooScenario]] = {
    "diurnal": build_diurnal,
    "flash_crowd": build_flash_crowd,
    "working_set_drift": build_working_set_drift,
    "olap_storm": build_olap_storm,
    "write_burst": build_write_burst,
    "noisy_neighbour": build_noisy_neighbour,
}


def zoo_scenario_names() -> list[str]:
    return sorted(ZOO_SCENARIOS)


def build_zoo_scenario(name: str, seed: int = 7) -> ZooScenario:
    """Build one zoo scenario by name."""
    if name not in ZOO_SCENARIOS:
        raise KeyError(
            f"unknown zoo scenario {name!r}; choose from {zoo_scenario_names()}"
        )
    return ZOO_SCENARIOS[name](seed)
