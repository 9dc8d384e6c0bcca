"""Unit tests for the workload zoo: labels, scenarios, runner wiring."""

import pytest

from repro.workloads.zoo import (
    GroundTruthLabel,
    LabelStream,
    ZOO_SCENARIOS,
    build_antagonist,
    build_zoo_scenario,
    zoo_scenario_names,
)
from zoo_probe import probe_digest


class TestGroundTruthLabel:
    def test_covers_with_tolerance(self):
        label = GroundTruthLabel(4, 8, "anomaly", ("app/x",))
        assert label.covers(4) and label.covers(7)
        assert not label.covers(3) and not label.covers(8)
        assert label.covers(3, tolerance=1)
        assert label.covers(9, tolerance=2)
        assert not label.covers(1, tolerance=2)

    def test_stable_is_not_anomalous(self):
        assert not GroundTruthLabel(0, 5, "stable").is_anomaly
        assert GroundTruthLabel(0, 5, "flash_crowd", ("a/b",)).is_anomaly

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            GroundTruthLabel(5, 5, "stable")
        with pytest.raises(ValueError):
            GroundTruthLabel(-1, 5, "stable")


class TestLabelStream:
    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            LabelStream(
                10,
                [GroundTruthLabel(0, 4, "stable"), GroundTruthLabel(5, 10, "x", ("a/b",))],
            )

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            LabelStream(
                10,
                [GroundTruthLabel(0, 6, "stable"), GroundTruthLabel(5, 10, "x", ("a/b",))],
            )

    def test_short_tiling_rejected(self):
        with pytest.raises(ValueError):
            LabelStream(10, [GroundTruthLabel(0, 9, "stable")])

    def test_queries(self):
        labels = LabelStream(
            10,
            [
                GroundTruthLabel(0, 4, "stable"),
                GroundTruthLabel(4, 10, "drift", ("app/x",)),
            ],
        )
        assert labels.label_at(3).cause == "stable"
        assert labels.label_at(4).cause == "drift"
        assert [label.cause for label in labels.anomalies()] == ["drift"]


class TestScenarioRegistry:
    def test_six_scenarios(self):
        assert len(zoo_scenario_names()) == 6
        assert zoo_scenario_names() == sorted(ZOO_SCENARIOS)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            build_zoo_scenario("nope")

    @pytest.mark.parametrize("name", sorted(ZOO_SCENARIOS))
    def test_builders_are_deterministic(self, name):
        a = probe_digest(build_zoo_scenario(name, seed=13), samples=40)
        b = probe_digest(build_zoo_scenario(name, seed=13), samples=40)
        assert a == b

    @pytest.mark.parametrize("name", sorted(ZOO_SCENARIOS))
    def test_seed_changes_the_probe(self, name):
        a = probe_digest(build_zoo_scenario(name, seed=13), samples=40)
        b = probe_digest(build_zoo_scenario(name, seed=14), samples=40)
        assert a != b

    def test_clients_cover_every_workload(self):
        for name in zoo_scenario_names():
            scenario = build_zoo_scenario(name)
            for workload in scenario.workloads:
                assert workload.app in scenario.clients


class TestAntagonist:
    def test_pages_do_not_collide_with_tpcw(self):
        from repro.workloads.tpcw import build_tpcw

        antagonist = build_antagonist()
        tpcw = build_tpcw()
        tpcw_max = max(
            table.pages.start + table.pages.count
            for table in tpcw.schema.tables.values()
        )
        hog = antagonist.class_named("hog_scan")
        pages = hog.execute_pages().demand
        assert min(pages) >= 2_000_000 > tpcw_max

    def test_hog_dominates_the_mix(self):
        antagonist = build_antagonist()
        weights = antagonist.normalized_weights()
        assert weights["hog_scan"] > 0.5


class TestRunnerWiring:
    def test_diagnosis_events_dedup_and_sources(self):
        from repro.analysis.quality import DetectionEvent
        from repro.core.diagnosis import Action, ActionKind
        from repro.experiments.zoo import _diagnosis_events

        class FakeReport:
            def __init__(self, contexts):
                self._contexts = contexts

            def memory_outlier_contexts(self):
                return self._contexts

        class FakeDiagnosis:
            outlier_reports = {"s0": FakeReport(["app/a", "app/b"])}
            suspects = {"srv": ["app/b", "app/c"]}
            actions = [
                Action(
                    kind=ActionKind.APPLY_QUOTAS,
                    app="app",
                    reason="test",
                    quotas=(("app/d", 100),),
                ),
            ]

        events = _diagnosis_events(7, FakeDiagnosis())
        assert events == [
            DetectionEvent(7, "app/a", "outlier"),
            DetectionEvent(7, "app/b", "outlier"),  # first source wins
            DetectionEvent(7, "app/c", "suspect"),
            DetectionEvent(7, "app/d", "action"),
        ]
