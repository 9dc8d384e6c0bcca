"""Telemetry determinism: identically-seeded runs are byte-identical.

Observability is only a trustworthy regression artefact if it never
perturbs — or is perturbed by — the run it watches.  These tests pin that
down from three directions: two same-seed instrumented runs export the
exact same bytes, the export hashes to a pinned golden digest, and turning
instrumentation on does not change what the simulation computes.
"""

import hashlib
import json

import pytest

from repro.obs import (
    NULL_OBS,
    Observability,
    record_lines,
    telemetry_lines,
    telemetry_records,
    write_telemetry,
)
from repro.experiments.runner import quickstart_scenario

SCENARIO = dict(intervals=6, clients=12)
META = {"scenario": "quickstart", "seed": 7, **SCENARIO}

GOLDEN_SHA256 = "9d38e145157116488011b969d8c804cede84775c68fce2e0d15297bef69481f7"
"""sha256 of the quickstart telemetry JSONL (intervals=6, clients=12).

Regenerate after an *intentional* telemetry change with::

    PYTHONPATH=src python - <<'EOF'
    import hashlib
    from repro.obs import Observability, telemetry_lines
    from repro.experiments.runner import quickstart_scenario
    obs = Observability()
    quickstart_scenario(obs=obs, intervals=6, clients=12)
    meta = {"scenario": "quickstart", "seed": 7,
            "intervals": 6, "clients": 12}
    blob = ("\\n".join(telemetry_lines(obs, meta=meta)) + "\\n").encode()
    print(hashlib.sha256(blob).hexdigest())
    EOF
"""


def instrumented_quickstart():
    obs = Observability()
    harness, result = quickstart_scenario(obs=obs, **SCENARIO)
    return obs, harness, result


@pytest.fixture(scope="module")
def first_run():
    return instrumented_quickstart()


@pytest.fixture(scope="module")
def second_run():
    return instrumented_quickstart()


class TestByteIdenticalTelemetry:
    def test_same_seed_runs_export_identical_lines(self, first_run, second_run):
        lines_a = telemetry_lines(first_run[0], meta=META)
        lines_b = telemetry_lines(second_run[0], meta=META)
        assert lines_a == lines_b

    def test_golden_digest(self, first_run):
        lines = telemetry_lines(first_run[0], meta=META)
        blob = ("\n".join(lines) + "\n").encode()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256

    def test_the_one_writer_produces_the_golden_bytes(self, first_run):
        lines = record_lines(telemetry_records(first_run[0], META))
        blob = "".join(line + "\n" for line in lines).encode()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256

    def test_written_file_matches_lines(self, first_run, tmp_path):
        obs = first_run[0]
        path = write_telemetry(tmp_path / "telemetry.jsonl", obs, meta=META)
        assert path.read_bytes() == (
            "\n".join(telemetry_lines(obs, meta=META)) + "\n"
        ).encode()


class TestTelemetryContent:
    def test_covers_every_pipeline_stage(self, first_run):
        obs = first_run[0]
        names = {span.name for span in obs.tracer.finished_spans()}
        assert {"controller.interval", "analyzer.drain",
                "mrc.recompute"} <= names

    def test_spans_nest_under_interval(self, first_run):
        obs = first_run[0]
        spans = {s.span_id: s for s in obs.tracer.finished_spans()}
        intervals = {sid for sid, s in spans.items()
                     if s.name == "controller.interval"}
        drains = [s for s in spans.values() if s.name == "analyzer.drain"]
        assert drains
        assert all(s.parent_id in intervals for s in drains)

    def test_no_wall_clock_values(self, first_run):
        """Every timestamp is simulated time, bounded by the run length."""
        obs = first_run[0]
        horizon = SCENARIO["intervals"] * 10.0  # 10 s measurement intervals
        for span in obs.tracer.finished_spans():
            assert 0.0 <= span.start <= span.end <= horizon

    def test_lines_parse_as_json(self, first_run):
        for line in telemetry_lines(first_run[0], meta=META):
            assert json.loads(line)["record"] in ("meta", "span", "metric")


class TestObservationDoesNotPerturb:
    def test_instrumented_and_bare_runs_agree(self, first_run):
        """Enabling telemetry must not change the simulation's results."""
        _, _, instrumented = first_run
        _, bare = quickstart_scenario(obs=None, **SCENARIO)
        assert (bare.mean_latency_series("tpcw")
                == instrumented.mean_latency_series("tpcw"))
        assert (bare.throughput_series("tpcw")
                == instrumented.throughput_series("tpcw"))

    def test_null_obs_records_nothing(self):
        _, result = quickstart_scenario(obs=NULL_OBS, intervals=2, clients=5)
        assert NULL_OBS.tracer.finished_spans() == []
        assert NULL_OBS.registry.snapshot() == []
        assert result.timeline("tpcw")
