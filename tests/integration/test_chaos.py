"""Integration tests for the chaos experiment and the fault layer's cost.

The chaos storm is the acceptance harness for the whole fault subsystem:
(a) the scheduler routes every class off a crashed replica within one
measurement interval, (b) the controller emits no retuning action from a
quarantined window, and (c) SLA compliance returns within a bounded number
of intervals of the replica rejoining — all pinned against the committed
``BENCH_chaos_failover.json`` baseline.  The flip side is also pinned:
with an *empty* fault plan the layer is byte-for-byte free.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.chaos import (
    ChaosConfig,
    ChaosStormConfig,
    build_chaos_plan,
    run_chaos,
    run_chaos_storm,
)
from repro.experiments.runner import ClusterHarness
from repro.faults import FaultPlan
from repro.obs import Observability, telemetry_lines
from repro.workloads.tpcw import build_tpcw

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "baselines" / "BENCH_chaos_failover.json"
)


@pytest.fixture(scope="module")
def chaos():
    return run_chaos(ChaosConfig())


class TestChaosReactions:
    def test_crashed_replica_rerouted_within_one_interval(self, chaos):
        assert 0 <= chaos.reroute_intervals <= 1

    def test_no_actions_from_quarantined_windows(self, chaos):
        assert chaos.quarantined_intervals >= 2
        assert chaos.actions_during_quarantine == 0
        # The refusal path was genuinely exercised: at least one quarantined
        # interval also violated the SLA, so the controller *wanted* to act.
        assert chaos.violating_degraded_intervals >= 1

    def test_sla_recovers_after_rejoin(self, chaos):
        assert chaos.violations_during_outage >= 1
        assert 0 <= chaos.sla_recovery_intervals <= 3
        assert chaos.sla_met_at_end()

    def test_every_fault_kind_landed(self, chaos):
        assert chaos.unmatched_faults == 0
        assert set(chaos.faults_injected) == {
            "io_slowdown", "write_stall", "replica_crash",
            "replica_recover", "stats_gap", "metric_corruption",
        }

    def test_stale_pending_writes_were_dropped_not_replayed(self, chaos):
        assert chaos.pending_stale_dropped > 0

    def test_matches_committed_baseline(self, chaos):
        baseline = json.loads(BASELINE.read_text())["artefact"]
        assert chaos.reroute_intervals == baseline["reroute_intervals"]
        assert chaos.sla_recovery_intervals == baseline["sla_recovery_intervals"]
        assert chaos.quarantined_intervals == baseline["quarantined_intervals"]
        assert chaos.faults_injected == baseline["faults_injected"]
        assert chaos.final_latency == pytest.approx(
            baseline["final_latency"], rel=0, abs=0
        )


class TestStormStaleBacklog:
    """A replica caught up from the write log while the controller is down
    or propagation is stalled still carries the stale entries in its pending
    queue.  When the async write path then picks it as primary, the
    force-applied backlog must drop them as ``drain_pending`` does; it used
    to re-execute them and raise "writes must apply in order"."""

    @pytest.mark.parametrize(
        "config",
        [
            ChaosStormConfig(seed=7, events=8),
            ChaosStormConfig(seed=32),
            ChaosStormConfig(seed=1009, workload_seed=1009, clients=30),
        ],
        ids=["seed7-events8", "seed32", "seed1009-clients30"],
    )
    def test_storm_runs_to_completion(self, config):
        result = run_chaos_storm(config)
        assert len(result.sla_series) + result.missed_intervals == config.intervals
        assert result.duplicate_actions == 0


class TestChaosPlan:
    def test_plan_is_deterministic_data(self):
        config = ChaosConfig()
        assert (
            build_chaos_plan(config, "tpcw").events
            == build_chaos_plan(config, "tpcw").events
        )

    def test_plan_covers_the_full_catalogue(self):
        plan = build_chaos_plan(ChaosConfig(), "tpcw")
        assert {event.kind.value for event in plan.events} == {
            "io_slowdown", "write_stall", "replica_crash",
            "replica_recover", "stats_gap", "metric_corruption",
        }


def small_run(plan=None, obs=None):
    harness = ClusterHarness.single_app(
        build_tpcw(seed=7), servers=3, clients=8, obs=obs
    )
    if plan is not None:
        harness.install_faults(plan)
    result = harness.run(intervals=3)
    return harness, result


class TestEmptyPlanIsFree:
    """An empty ``FaultPlan`` must not perturb a run in any observable way."""

    def test_results_identical_with_and_without_empty_plan(self):
        _, bare = small_run()
        _, planned = small_run(plan=FaultPlan())
        assert (bare.mean_latency_series("tpcw")
                == planned.mean_latency_series("tpcw"))
        assert (bare.throughput_series("tpcw")
                == planned.throughput_series("tpcw"))

    def test_telemetry_identical_with_and_without_empty_plan(self):
        meta = {"scenario": "empty-plan", "seed": 7}
        obs_bare = Observability()
        small_run(obs=obs_bare)
        obs_planned = Observability()
        small_run(plan=FaultPlan(), obs=obs_planned)
        assert (telemetry_lines(obs_bare, meta=meta)
                == telemetry_lines(obs_planned, meta=meta))

    def test_empty_plan_schedules_nothing(self):
        harness, _ = small_run(plan=FaultPlan())
        assert harness.fault_injector.applied == []
        assert harness.fault_injector.unmatched == []

    def test_second_plan_rejected(self):
        harness = ClusterHarness.single_app(
            build_tpcw(seed=7), servers=2, clients=4
        )
        harness.install_faults(FaultPlan())
        with pytest.raises(RuntimeError, match="already installed"):
            harness.install_faults(FaultPlan())
