"""Additional unit tests for the experiment harness internals."""

import pytest

from repro.engine.executor import CostModel
from repro.experiments.runner import ClusterHarness, HarnessResult
from repro.core.controller import AppIntervalReport
from repro.workloads.tpcw import build_tpcw


def report(index, latency=0.5, throughput=5.0, sla=True):
    return AppIntervalReport(
        app="tpcw",
        interval_index=index,
        timestamp=(index + 1) * 10.0,
        mean_latency=latency,
        throughput=throughput,
        sla_met=sla,
    )


class TestHarnessResult:
    def test_series_accessors(self):
        result = HarnessResult(
            timelines={"tpcw": [report(0, 0.2), report(1, 0.4, sla=False)]}
        )
        assert result.mean_latency_series("tpcw") == [0.2, 0.4]
        assert result.throughput_series("tpcw") == [5.0, 5.0]
        assert result.sla_series("tpcw") == [True, False]

    def test_steady_metrics_use_tail(self):
        result = HarnessResult(
            timelines={
                "tpcw": [report(0, 9.0), report(1, 1.0), report(2, 2.0), report(3, 3.0)]
            }
        )
        assert result.steady_mean_latency("tpcw", last_n=3) == pytest.approx(2.0)

    def test_steady_metrics_skip_idle_intervals(self):
        result = HarnessResult(
            timelines={
                "tpcw": [report(0, 1.0), report(1, 0.0, throughput=0.0), report(2, 3.0)]
            }
        )
        assert result.steady_mean_latency("tpcw", last_n=2) == pytest.approx(2.0)

    def test_empty_app_is_zero(self):
        result = HarnessResult()
        assert result.steady_mean_latency("ghost") == 0.0
        assert result.steady_throughput("ghost") == 0.0


class TestHarnessWiring:
    def test_duplicate_driver_rejected(self):
        harness = ClusterHarness.single_app(build_tpcw(seed=9), servers=1, clients=2)
        with pytest.raises(ValueError):
            harness.attach_workload(build_tpcw(seed=9), clients=2)

    def test_custom_cost_model_reaches_engines(self):
        model = CostModel(io_time_per_page=0.5)
        harness = ClusterHarness.single_app(
            build_tpcw(seed=9), servers=1, clients=2, cost_model=model
        )
        engine = harness.replicas_of("tpcw")[0].engine
        assert engine.config.cost_model.io_time_per_page == 0.5

    def test_provisioned_replicas_inherit_cost_model(self):
        model = CostModel(io_time_per_page=0.5)
        harness = ClusterHarness.single_app(
            build_tpcw(seed=9), servers=2, clients=2, cost_model=model
        )
        scheduler = harness.scheduler("tpcw")
        replica = harness.resource_manager.allocate_replica(
            scheduler, timestamp=0.0
        )
        assert replica.engine.config.cost_model.io_time_per_page == 0.5

    def test_engines_of_deduplicates_shared_engine(self):
        from repro.workloads.rubis import build_rubis

        harness = ClusterHarness.shared_engine(
            [build_tpcw(seed=9), build_rubis(seed=9)],
            clients={"tpcw": 1, "rubis": 1},
        )
        assert len(harness.engines_of("tpcw")) == 1
        assert harness.engines_of("tpcw")[0] is harness.engines_of("rubis")[0]

    def test_multiple_hooks_same_interval(self):
        harness = ClusterHarness.single_app(build_tpcw(seed=9), servers=1, clients=2)
        fired = []
        harness.at_interval(0, lambda h: fired.append("a"))
        harness.at_interval(0, lambda h: fired.append("b"))
        harness.run(intervals=1)
        assert fired == ["a", "b"]

    def test_interval_counter_spans_runs(self):
        harness = ClusterHarness.single_app(build_tpcw(seed=9), servers=1, clients=2)
        fired = []
        harness.at_interval(2, lambda h: fired.append(h.clock.now))
        harness.run(intervals=2)
        assert fired == []
        harness.run(intervals=1)  # global interval index 2
        assert fired == [20.0]
