"""Unit tests for telemetry JSONL export and the report backend."""

import json

import pytest

from repro.analysis.quality import QualityReport, quality_records
from repro.cluster.resource_manager import ResourceManager, allocation_records
from repro.cluster.scheduler import Scheduler
from repro.cluster.server import PhysicalServer
from repro.forecast.score import ForecastRecord, forecast_records
from repro.obs import (
    Observability,
    read_records,
    record_lines,
    telemetry_lines,
    telemetry_records,
    write_records,
    write_telemetry,
)
from repro.obs.export import RECORD_KEYS
from repro.obs.report import SECTIONS, TelemetrySummary
from repro.recovery.journal import ActionJournal, journal_records
from repro.sim.clock import SimClock


def instrumented_run() -> Observability:
    """A tiny hand-driven pipeline producing every record type."""
    clock = SimClock()
    obs = Observability(clock=clock)
    tracer, registry = obs.tracer, obs.registry
    with tracer.span("controller.interval", attrs={"interval": 0}):
        with tracer.span("mrc.recompute", attrs={"context": "tpcw/q1"}) as span:
            span.add_cost(100)
        clock.advance_to(clock.now + 10.0)
    registry.counter("mrc.recomputations", app="tpcw").inc(2)
    registry.counter("controller.actions", app="tpcw", kind="apply_quotas").inc()
    registry.counter("scheduler.sla_violations", app="tpcw").inc(3)
    registry.gauge("bufferpool.resident_pages", engine="e1").set(512)
    registry.histogram("scheduler.interval_latency").observe(0.25)
    return obs


class TestExport:
    def test_record_layout(self):
        lines = telemetry_lines(instrumented_run(), meta={"scenario": "unit"})
        records = [json.loads(line) for line in lines]
        kinds = [record["record"] for record in records]
        assert kinds[0] == "meta"
        assert kinds.count("span") == 2
        assert kinds.count("metric") == 5
        meta = records[0]
        assert meta["version"] == 1
        assert meta["scenario"] == "unit"

    def test_spans_in_completion_order_with_parents(self):
        records = [
            json.loads(line) for line in telemetry_lines(instrumented_run())
        ]
        spans = [r for r in records if r["record"] == "span"]
        assert [s["name"] for s in spans] == [
            "mrc.recompute", "controller.interval",
        ]
        interval = spans[1]
        recompute = spans[0]
        assert recompute["parent"] == interval["id"]
        assert recompute["cost"] == 100
        assert interval["end"] - interval["start"] == 10.0

    def test_lines_are_compact_sorted_json(self):
        for line in telemetry_lines(instrumented_run()):
            record = json.loads(line)
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )
            assert ": " not in line

    def test_non_scalar_attrs_stringified(self):
        obs = Observability()
        with obs.tracer.span("s") as span:
            span.set_attr("kinds", ["a", "b"])
            span.set_attr("object", SimClock())
        (record,) = [
            json.loads(line)
            for line in telemetry_lines(obs)
            if json.loads(line)["record"] == "span"
        ]
        assert record["attrs"]["kinds"] == ["a", "b"]
        assert isinstance(record["attrs"]["object"], str)

    def test_write_telemetry_round_trips(self, tmp_path):
        obs = instrumented_run()
        path = write_telemetry(tmp_path / "t.jsonl", obs, meta={"seed": 7})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.splitlines() == telemetry_lines(obs, meta={"seed": 7})


class TestSummary:
    def test_from_lines_round_trip(self):
        obs = instrumented_run()
        summary = TelemetrySummary.from_lines(
            telemetry_lines(obs, meta={"seed": 7})
        )
        assert summary.meta["seed"] == 7
        assert len(summary.spans) == 2
        assert len(summary.metrics) == 5

    def test_unknown_record_rejected(self):
        with pytest.raises(ValueError, match="line 1: unknown record kind"):
            TelemetrySummary.from_lines(['{"record":"mystery"}'])

    def test_stage_profiles_ranked_by_work(self):
        summary = TelemetrySummary.from_records(telemetry_records(instrumented_run()))
        profiles = summary.stage_profiles()
        assert [p.name for p in profiles] == [
            "mrc.recompute", "controller.interval",
        ]
        recompute = profiles[0]
        assert recompute.calls == 1
        assert recompute.work_units == 100
        assert recompute.mean_work == 100

    def test_queries(self):
        summary = TelemetrySummary.from_records(telemetry_records(instrumented_run()))
        assert summary.mrc_recomputations_by_app() == {"tpcw": 2.0}
        assert summary.action_histogram() == {"apply_quotas": 1.0}
        assert summary.sla_violations_by_app() == {"tpcw": 3.0}

    def test_render_contains_required_sections(self):
        summary = TelemetrySummary.from_records(
            telemetry_records(instrumented_run(), meta={"scenario": "unit"})
        )
        text = summary.render()
        assert "Pipeline stages (top spans by work)" in text
        assert "MRC recomputations per application" in text
        assert "Controller actions by kind" in text
        assert "apply_quotas" in text
        assert "SLA violations per app: tpcw: 3" in text

    def test_render_empty_telemetry(self):
        text = TelemetrySummary().render()
        assert "(no spans recorded)" in text
        assert "(no actions emitted)" in text


def provisioned_manager() -> ResourceManager:
    manager = ResourceManager()
    for name in ("s0", "s1"):
        manager.add_server(PhysicalServer(name))
    scheduler = Scheduler("tpcw")
    manager.allocate_replica(scheduler, 5.0)
    second = manager.allocate_replica(scheduler, 35.0)
    manager.release_replica(scheduler, second.name, 95.0)
    return manager


class TestAllocationHistory:
    def test_records_mirror_the_history(self):
        records = allocation_records(provisioned_manager())
        assert [r["action"] for r in records] == [
            "allocate", "allocate", "release",
        ]
        assert all(r["record"] == "allocation" for r in records)
        assert records[0]["app"] == "tpcw"
        assert records[0]["timestamp"] == 5.0
        assert records[-1]["replica_count"] == 1

    def test_export_writes_sorted_jsonl(self, tmp_path):
        manager = provisioned_manager()
        path = write_records(
            tmp_path / "alloc.jsonl", allocation_records(manager)
        )
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line, record in zip(lines, allocation_records(manager)):
            assert line == json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )

    def test_summary_parses_and_renders_allocations(self):
        summary = TelemetrySummary.from_lines(
            telemetry_lines(instrumented_run(), meta={"scenario": "u"})
            + record_lines(allocation_records(provisioned_manager()))
        )
        assert len(summary.records["allocation"]) == 3
        text = summary.render()
        assert "Machine allocation timeline" in text
        assert "tpcw" in text and "release" in text

    def test_no_allocations_no_section(self):
        # Fault-free telemetry carries no allocation records; the report
        # must not grow a section (the goldens pin its exact output).
        text = TelemetrySummary.from_records(telemetry_records(instrumented_run())).render()
        assert "Machine allocation timeline" not in text


def every_kind() -> list[dict]:
    """One stream holding a record of every kind, each from its builder."""
    journal = ActionJournal()
    journal.record_control("checkpoint#0", 1, 3, 30.0)
    report = QualityReport(scenario="flash_crowd", intervals=30, tolerance=2)
    forecast = ForecastRecord(
        interval=7, app="tpcw", horizon=2, predicted_latency=1.234567,
        threshold=0.9, confidence=0.8125, decision="act", acted=True,
        outcome="hit",
    )
    return [
        *telemetry_records(instrumented_run(), meta={"seed": 7}),
        *allocation_records(provisioned_manager()),
        *quality_records(report),
        *forecast_records([forecast]),
        *journal_records(journal),
    ]


class TestRecordStream:
    def test_every_kind_round_trips_through_a_file(self, tmp_path):
        records = every_kind()
        assert {r["record"] for r in records} == set(RECORD_KEYS)
        path = write_records(tmp_path / "all.jsonl", records)
        assert read_records(path.read_text().splitlines()) == records
        assert path.read_text().splitlines() == record_lines(records)

    def test_sections_read_only_keys_the_reader_checked(self):
        for kind, (_, columns, _) in SECTIONS.items():
            assert {key for _, key, _ in columns} <= set(RECORD_KEYS[kind])

    @pytest.mark.parametrize("line, complaint", [
        ("[1,2]", "line 2: not a JSON object"),
        ('{"record":"mystery"}', "line 2: unknown record kind 'mystery'"),
        ('{"name":"x"}', "line 2: unknown record kind None"),
        ('{"record":"metric","name":"x"}',
         "line 2: metric record lacks type, labels"),
        ('{"record":"metric","type":"counter","name":"x","labels":{}}',
         "line 2: metric record lacks value"),
        ('{"record":"span","name":"x"}',
         "line 2: span record lacks start, end, cost"),
        ('{"record":"forecast","app":"tpcw"}',
         "line 2: forecast record lacks interval"),
        ('{"record":"span","name"', "line 2: not JSON"),
    ])
    def test_a_bad_line_is_named(self, line, complaint):
        with pytest.raises(ValueError, match=complaint):
            read_records(['{"record":"meta"}', line])

    def test_blank_lines_are_skipped_but_an_empty_stream_is_not_one(self):
        assert read_records(["", '{"record":"meta"}', "  "]) == [
            {"record": "meta"}
        ]
        with pytest.raises(ValueError, match="no records"):
            read_records(["", "\n"])


ALLOCATIONS = [
    {"record": "allocation", "timestamp": 5.0, "app": "tpcw",
     "action": "allocate", "server": "s0", "replica": "tpcw-replica-0",
     "replica_count": 1},
    {"record": "allocation", "timestamp": 95.25, "app": "tpcw",
     "action": "release", "server": "s1", "replica": "tpcw-replica-1",
     "replica_count": 1},
]
QUALITY = [
    {"record": "quality", "scenario": "flash_crowd", "intervals": 30,
     "tolerance": 2, "true_positives": 5, "false_positives": 4,
     "false_negatives": 0, "precision": 0.555556, "recall": 1.0,
     "f1": 0.714286},
]
FORECASTS = [
    {"record": "forecast", "interval": 7, "app": "tpcw", "horizon": 2,
     "predicted_latency": 1.234567, "threshold": 0.9, "confidence": 0.8125,
     "decision": "act", "acted": True, "seed": 0, "outcome": "hit"},
    {"record": "forecast", "interval": 8, "app": "tpcw", "horizon": 2,
     "predicted_latency": 0.5, "threshold": 0.9, "confidence": 0.25,
     "decision": "no-violation", "acted": False, "seed": 0,
     "outcome": "none"},
    {"record": "forecast", "interval": 9, "app": "rubis", "horizon": 2,
     "predicted_latency": 2.0, "threshold": 0.9, "confidence": 0.99,
     "decision": "act", "acted": True, "seed": 0, "outcome": "false_alarm"},
]
JOURNAL = [
    {"record": "journal", "seq": 0, "kind": "intent", "epoch": 1,
     "interval_index": 3, "timestamp": 30.0, "action_kind": "apply_quotas",
     "app": "tpcw", "replica": None, "context_key": None,
     "quotas": [["tpcw/best_seller", 4096]], "applied": None, "note": ""},
    {"record": "journal", "seq": 1, "kind": "applied", "epoch": 1,
     "interval_index": 3, "timestamp": 30.0, "action_kind": "apply_quotas",
     "app": "tpcw", "replica": None, "context_key": None,
     "quotas": [["tpcw/best_seller", 4096]], "applied": True, "note": ""},
    {"record": "journal", "seq": 2, "kind": "control", "epoch": 1,
     "interval_index": 3, "timestamp": 30.0, "action_kind": None,
     "app": None, "replica": None, "context_key": None, "quotas": [],
     "applied": None, "note": "checkpoint#0"},
]

# The first three are what the three per-kind render methods printed for
# these records before they became rows of SECTIONS (captured at b0af4e1).
RENDERED = {
    "allocation": (
        "Machine allocation timeline\n"
        "time (s)  app   action    server  replica         replicas after\n"
        "--------  ----  --------  ------  --------------  --------------\n"
        "5.0       tpcw  allocate  s0      tpcw-replica-0  1             \n"
        "95.2      tpcw  release   s1      tpcw-replica-1  1             "
    ),
    "quality": (
        "Detection quality vs injected ground truth\n"
        "scenario     precision  recall  F1     tp  fp  fn\n"
        "-----------  ---------  ------  -----  --  --  --\n"
        "flash_crowd  0.556      1.000   0.714  5   4   0 "
    ),
    "forecast": (
        "Forecast decisions (predictive SLA enforcement)\n"
        "interval  app    predicted  threshold  confidence  decision      "
        "outcome    \n"
        "--------  -----  ---------  ---------  ----------  ------------  "
        "-----------\n"
        "7         tpcw   1.235      0.900      0.81        act           "
        "hit        \n"
        "8         tpcw   0.500      0.900      0.25        no-violation  "
        "none       \n"
        "9         rubis  2.000      0.900      0.99        act           "
        "false_alarm\n"
        "\n"
        "Acted ahead 2× — 1 hits, 1 false alarms"
    ),
    "journal": (
        "Action journal (the controller's write-ahead log)\n"
        "seq  entry    epoch  interval  action        app   applied  note"
        "        \n"
        "---  -------  -----  --------  ------------  ----  -------  "
        "------------\n"
        "0    intent   1      3         apply_quotas  tpcw  -        "
        "            \n"
        "1    applied  1      3         apply_quotas  tpcw  yes      "
        "            \n"
        "2    control  1      3         -             -     -        "
        "checkpoint#0"
    ),
}


class TestFlatSections:
    @pytest.mark.parametrize("records", [ALLOCATIONS, QUALITY, FORECASTS,
                                         JOURNAL])
    def test_a_section_renders_as_before(self, records):
        kind = records[0]["record"]
        summary = TelemetrySummary.from_records(records)
        rendered = summary.render()
        assert rendered.endswith("\n\n" + RENDERED[kind])
        assert [k for k in RENDERED if RENDERED[k] in rendered] == [kind]

    def test_sections_keep_their_order_whatever_the_input_order(self):
        stream = JOURNAL + FORECASTS + QUALITY + ALLOCATIONS
        rendered = TelemetrySummary.from_records(stream).render()
        assert rendered.endswith("\n\n".join(RENDERED[k] for k in SECTIONS))
