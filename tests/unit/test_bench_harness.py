"""Unit tests for the scenario table's baseline harness (no scenarios run).

The harness's job is to tell behaviour apart from everything else: a
baseline holds a scenario's artefact and nothing machine-dependent, so
**artefact drift** (the deterministic scenario computed something else) is a
hard failure and there is nothing to warn about.  These tests pin the
comparison logic, the canonical digest, and the ``BENCH_<name>.json``
round-trip on synthetic runs, so they cost milliseconds.  The table's
invariant predicates — the paper's shape for Figures 3–6, Tables 1–3, the
sweeps and the ablations, and the contracts of the opt-in layers — are
pinned the same way: against the *committed* artefacts (a refreshed
baseline that breaks a floor fails tier-1 before CI) and against one
hand-mutated artefact per clause.  The committed directory itself is
pinned to the table: one file per scenario, none left over, no ``timing``.
"""

import argparse
import copy
import importlib
import inspect
import json
from pathlib import Path

import pytest

from repro.experiments import bench
from repro.experiments.bench import (
    SCENARIOS,
    BenchRun,
    Scenario,
    add_bench_arguments,
    artefact_digest,
    bench_names,
    artefact_lines,
    baseline_path,
    compare_with_baseline,
    load_baseline,
    orphan_baselines,
    resolve_names,
    run_bench_command,
    write_baseline,
)
from repro.workloads.zoo import ZOO_SCENARIOS

COMMITTED = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"

RUN = BenchRun(
    name="demo",
    artefact={"latency": 0.5, "rows": [{"pool": 4096, "feasible": False}]},
    seconds=2.0,
)


def baseline_for(run: BenchRun) -> dict:
    return {
        "schema": 1,
        "name": run.name,
        "artefact": json.loads(json.dumps(run.artefact)),
    }


BENCHED = bench_names()

COMMAND_ONLY = ["chaos", "storm", "plan", "zoo", "forecast"]


class TestResolveNames:
    def test_empty_selects_all_in_registry_order(self):
        assert resolve_names(None) == BENCHED
        assert len(BENCHED) == 22

    def test_subset_keeps_registry_order(self):
        last, first = BENCHED[-1], BENCHED[0]
        assert resolve_names(f"{last},{first}") == [first, last]

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            resolve_names("no_such_scenario")

    def test_command_only_entries_are_not_benchmarked(self):
        assert sorted(set(SCENARIOS) - set(BENCHED)) == sorted(COMMAND_ONLY)
        for name in COMMAND_ONLY:
            with pytest.raises(KeyError):
                resolve_names(name)


class TestDigest:
    def test_digest_is_stable(self):
        assert artefact_digest([RUN]) == artefact_digest([RUN])

    def test_digest_ignores_timing(self):
        slower = BenchRun(RUN.name, RUN.artefact, RUN.seconds * 10)
        assert artefact_digest([slower]) == artefact_digest([RUN])

    def test_digest_sees_artefact_changes(self):
        changed = BenchRun(RUN.name, {**RUN.artefact, "latency": 0.6}, RUN.seconds)
        assert artefact_digest([changed]) != artefact_digest([RUN])

    def test_lines_are_canonical_json(self):
        (line,) = artefact_lines([RUN])
        assert json.loads(line) == {"artefact": RUN.artefact, "name": "demo"}
        assert ": " not in line  # compact separators


class TestCompare:
    def test_identical_run_passes(self):
        assert compare_with_baseline(RUN, baseline_for(RUN)) == []

    def test_float_noise_within_tolerance_passes(self):
        noisy = BenchRun(
            RUN.name,
            {**RUN.artefact, "latency": 0.5 * (1 + 1e-9)},
            RUN.seconds,
        )
        assert compare_with_baseline(noisy, baseline_for(RUN)) == []

    def test_float_drift_fails(self):
        drifted = BenchRun(RUN.name, {**RUN.artefact, "latency": 0.51}, RUN.seconds)
        drift = compare_with_baseline(drifted, baseline_for(RUN))
        assert any("latency" in line for line in drift)

    def test_structural_drift_fails_with_path(self):
        drifted = BenchRun(
            RUN.name,
            {"latency": 0.5, "rows": [{"pool": 4096, "feasible": True}]},
            RUN.seconds,
        )
        drift = compare_with_baseline(drifted, baseline_for(RUN))
        assert any("rows[0].feasible" in line for line in drift)

    def test_missing_and_new_keys_fail(self):
        drifted = BenchRun(RUN.name, {"latency": 0.5, "extra": 1}, RUN.seconds)
        drift = compare_with_baseline(drifted, baseline_for(RUN))
        assert any("extra" in line for line in drift)
        assert any("rows" in line for line in drift)


class TestBaselineFiles:
    def test_roundtrip(self, tmp_path):
        path = write_baseline(RUN, tmp_path)
        assert path == baseline_path(tmp_path, "demo")
        loaded = load_baseline(tmp_path, "demo")
        assert loaded == baseline_for(RUN)  # the artefact, never the seconds
        assert compare_with_baseline(RUN, loaded) == []

    def test_missing_baseline_is_none(self, tmp_path):
        assert load_baseline(tmp_path, "demo") is None


class TestCommittedBaselines:
    """The committed directory is the table's, file for file."""

    def test_one_baseline_per_scenario_and_none_left_over(self):
        committed = {path.name for path in COMMITTED.glob("BENCH_*.json")}
        assert committed == {
            baseline_path(COMMITTED, name).name for name in BENCHED
        }
        assert orphan_baselines(COMMITTED) == []

    def test_baselines_hold_the_artefact_and_nothing_of_the_machine(self):
        for name in BENCHED:
            assert sorted(load_baseline(COMMITTED, name)) == [
                "artefact", "name", "schema",
            ]

    def test_a_baseline_without_a_scenario_is_an_orphan(self, tmp_path):
        write_baseline(RUN, tmp_path)
        assert orphan_baselines(tmp_path) == ["BENCH_demo.json"]


def committed_artefact(name: str) -> dict:
    return copy.deepcopy(load_baseline(COMMITTED, name)["artefact"])


def mutated(name: str, path: str, value) -> dict:
    """The committed artefact of ``name`` with one dotted ``path`` replaced
    (a numeric component indexes a list)."""
    artefact = committed_artefact(name)
    *parents, leaf = [
        int(key) if key.isdigit() else key for key in path.split(".")
    ]
    node = artefact
    for key in parents:
        node = node[key]
    if isinstance(node, dict):
        leaf = str(leaf)  # JSON object keys are strings, "2000" included
    node[leaf] = value
    return artefact


def swept(column: int, values: list, rows: list[list]) -> list[list]:
    """Sweep ``rows`` with one ``column`` replaced, top to bottom."""
    return [
        [*row[:column], value, *row[column + 1:]]
        for row, value in zip(rows, values, strict=True)
    ]


CLIENT_LOAD_ROWS = committed_artefact("sweep_client_load")["rows"]
POOL_SIZE_ROWS = committed_artefact("sweep_pool_size")["rows"]

# (scenario, dotted path, broken value, fragment of the expected message):
# at least one per predicate, and one per distinct clause — every clause the
# smoke scripts and the benchmarks/test_bench_*.py files used to assert.
BROKEN = [
    ("fig3_cpu_saturation", "peak_replicas", 1, "never provisioned a second"),
    ("fig3_cpu_saturation", "allocation_series",
     [[10.0, 1], [20.0, 2], [30.0, 2]], "never recedes after its peak of 2"),
    ("fig3_cpu_saturation", "violations_before_recovery", 0,
     "never violated the SLA"),
    ("fig4_index_drop", "latency_violation", 0.9, "past the SLA"),
    ("fig4_index_drop", "latency_before", 1.1, "SLA-meeting baseline"),
    ("fig4_index_drop", "outlier_contexts", ["tpcw/new_products"],
     "tpcw/best_seller is not an outlier"),
    ("fig4_index_drop", "outlier_contexts", ["tpcw/best_seller"],
     "tpcw/new_products is not an outlier"),
    ("fig4_index_drop", "quotas", {}, "no quota was enforced"),
    ("fig4_index_drop", "quotas.tpcw/best_seller", 7500, "quota of 7500 pages"),
    ("fig4_index_drop", "quotas.tpcw/best_seller", 100, "quota of 100 pages"),
    ("fig5_mrc_bestseller", "acceptable_memory", 4000, "(5000..8192)"),
    ("fig5_mrc_bestseller", "acceptable_memory", 9000, "(5000..8192)"),
    ("fig6_mrc_rubis", "acceptable_memory", 6000, "(6500..8192)"),
    ("fig6_mrc_rubis", "acceptable_memory", 8193, "(6500..8192)"),
    ("table1_buffer_partitioning", "shared_rest", 0.92, "no longer lifts"),
    ("table1_buffer_partitioning", "partitioned_rest", 0.80,
     "far from the exclusive ideal"),
    ("table1_buffer_partitioning", "partitioned_bestseller", 0.80,
     "moved BestSeller's own hit ratio"),
    ("table1_buffer_partitioning", "quota_pages", 7000, "quota of 7000 pages"),
    ("table1_buffer_partitioning", "quota_pages", 100, "quota of 100 pages"),
    ("table2_memory_contention", "rows.1.latency", 0.4, "latency up fivefold"),
    ("table2_memory_contention", "rows.1.throughput", 50.0,
     "cut throughput by a quarter"),
    ("table2_memory_contention", "rows.2.latency", 1.0, "does not halve"),
    ("table2_memory_contention", "rows.2.throughput", 40.0, "below 80%"),
    ("table2_memory_contention", "rescheduled_context", "tpcw/best_seller",
     "wrong class was rescheduled"),
    ("table3_io_contention", "rows.1.latency", 0.8, "does not double latency"),
    ("table3_io_contention", "rows.1.throughput", 110.0,
     "does not lower throughput"),
    ("table3_io_contention", "rows.2.latency", 0.6, "not back near"),
    ("table3_io_contention", "rows.2.throughput", 90.0, "below 90%"),
    ("table3_io_contention", "heaviest_io_context", "rubis2/browse_categories",
     "wrong class was named heaviest"),
    ("table3_io_contention", "heaviest_io_context", None,
     "wrong class was named heaviest: None"),
    ("table3_io_contention", "heaviest_io_share", 0.6, "under 70% of the I/O"),
    ("lock_contention", "latency_during", 0.9, "past the SLA"),
    ("lock_contention", "latency_before", 1.2, "SLA-meeting baseline"),
    ("lock_contention", "baseline_lock_wait_share", 0.1,
     "not negligible before the fault"),
    ("lock_contention", "lock_wait_share", 0.4, "do not dominate"),
    ("lock_contention", "reported_aggressor", None, "wrong aggressor"),
    ("sweep_client_load", "rows.0.0", 10, "swept client loads [10, 40, 60, 80]"),
    ("sweep_client_load", "rows.0.1", 1.2, "misses the SLA at [20] clients"),
    ("sweep_client_load", "rows.2.4", False, "no SLA incident at 60"),
    ("sweep_client_load", "rows", swept(4, [True] * 4, CLIENT_LOAD_ROWS),
     "at every load"),
    ("sweep_pool_size", "rows.0.0", 2048, "swept pool sizes [2048, 8192"),
    ("sweep_pool_size", "rows", swept(3, [True] * 6, POOL_SIZE_ROWS),
     "feasible at the paper's 8192-page pool"),
    ("sweep_pool_size", "rows", swept(3, [False] * 6, POOL_SIZE_ROWS),
     "even at 32768 pages"),
    ("sweep_pool_size", "rows.0.3", True, "not monotone"),
    ("ablations", "quota_vs_reschedule.0.recovered_latency", 1.5,
     "quota leaves latency above 1.0 s"),
    ("ablations", "quota_vs_reschedule.1.recovered_latency", 1.5,
     "reschedule leaves latency above 1.0 s"),
    ("ablations", "quota_vs_reschedule.0.servers_used", 2, "saves no machine"),
    ("ablations", "coarse_vs_fine.0.recovered_latency", 1.5,
     "fine-grained leaves latency above 1.0 s"),
    ("ablations", "coarse_vs_fine.0.replicas_used", 6,
     "more replicas than coarse-only"),
    ("ablations", "coarse_vs_fine.0.servers_used", 5,
     "more servers than coarse-only"),
    ("ablations", "topk_vs_outliers.0.recovered_latency", 1.3,
     "outlier-guided leaves latency above 1.2 s"),
    ("ablations", "topk_vs_outliers.1.recovered_latency", 1.3,
     "top-k-only leaves latency above 1.2 s"),
    ("ablations", "topk_vs_outliers.0.mrc_recomputations", 61,
     "recomputes more curves than top-k"),
    ("ablations", "routing_policies.1.recovered_latency", 0.4,
     "does not beat round-robin"),
    ("ablations", "mrc_window_sensitivity.2000", 7000,
     "the 2000-access window estimates more than the 100000 one"),
    ("ablations", "mrc_window_sensitivity.100000", 3000,
     "the 100000-access window estimates under 4000 pages"),
    ("ablation_sampled_mrc", "rows.3.acceptable_memory", 200,
     "sampled R=0.1 is over 35% of the pool away"),
    ("chaos_failover", "reroute_intervals", 2, "not routed around"),
    ("chaos_failover", "quarantined_intervals", 1, "quarantine two windows"),
    ("chaos_failover", "actions_during_quarantine", 1, "quarantined windows: 1"),
    ("chaos_failover", "violating_degraded_intervals", 0, "refusal path"),
    ("chaos_failover", "sla_recovery_intervals", 4, "not recovered within 3"),
    ("chaos_failover", "sla_recovery_intervals", -1, "not recovered within 3"),
    ("chaos_failover", "sla_met_at_end", False, "SLA not met at the end"),
    ("chaos_failover", "unmatched_faults", 1, "1 fault event(s) found no target"),
    ("chaos_control_plane", "cold_start", True, "cold-started"),
    ("chaos_control_plane", "corrupt_skipped", 0, "not exercised"),
    ("chaos_control_plane", "duplicate_applied", [["k", 2]], "more than once"),
    ("chaos_control_plane", "open_intents", 1, "1 intent(s) left open"),
    ("chaos_control_plane", "stale_attempt_fenced", False, "was not fenced"),
    ("chaos_control_plane", "sla_recovery_intervals_after_restart", None,
     "not recovered within 2"),
    ("chaos_control_plane", "sla_recovery_intervals_after_restart", 3,
     "not recovered within 2"),
    ("chaos_control_plane", "sla_met_at_end", False, "SLA not met at the end"),
    ("planner_sweep", "quota.intervals_to_action", -1, "quota path never acted"),
    ("planner_sweep", "planner.intervals_to_action", -1, "planner never acted"),
    ("planner_sweep", "planner.intervals_to_action", 4, "slower than the quota"),
    ("planner_sweep", "planner.recovered_sla_met", False,
     "planner mode did not recover"),
    ("planner_sweep", "quota.recovered_sla_met", False,
     "quota mode did not recover"),
    ("planner_sweep", "plan_steps", 0, "plan is empty"),
    ("planner_sweep", "plan_digest", "", "digest missing"),
    ("planner_sweep", "validation_ok", False, "what-if validation failed"),
    ("planner_sweep", "validation_checks", 0, "checked no classes"),
    ("zoo_diurnal", "quality.precision", 0.99, "precision 0.990 below"),
    ("zoo_diurnal", "quality.recall", 0.9, "recall 0.900 below"),
    ("zoo_flash_crowd", "quality.precision", 0.54, "precision 0.540 below"),
    ("zoo_flash_crowd", "quality.recall", 0.8, "recall 0.800 below"),
    ("zoo_noisy_neighbour", "quality.precision", 0.19, "precision 0.190 below"),
    ("zoo_noisy_neighbour", "quality.recall", 0.5, "recall 0.500 below"),
    ("forecast_eval", "scenarios.flash_crowd.intervals_avoided", 0,
     "avoided 0 SLA-violation intervals"),
    ("forecast_eval", "scenarios.chaos_ramp.acted", 3, "3 act-aheads fired"),
    ("forecast_eval", "scenarios.chaos_ramp.plans_applied", 1,
     "2 cluster mutations from 1 act-aheads"),
    ("forecast_eval", "scenarios.flash_crowd.budget_remaining", 0,
     "budget exhausted"),
    ("forecast_eval", "validation", None, "validation missing or failed"),
    ("forecast_eval", "validation.ok", False, "validation missing or failed"),
]


CHECKED = sorted(name for name, entry in SCENARIOS.items() if entry.check)


class TestInvariants:
    def test_the_paper_and_every_gated_layer_have_a_predicate(self):
        unchecked = sorted(set(BENCHED) - set(CHECKED))
        assert unchecked == [
            "zoo_olap_storm", "zoo_working_set_drift", "zoo_write_burst",
        ]

    @pytest.mark.parametrize("name", CHECKED)
    def test_committed_artefact_breaks_nothing(self, name):
        assert SCENARIOS[name].check(committed_artefact(name)) == []

    def test_every_predicate_has_a_mutant(self):
        assert {name for name, *_ in BROKEN} == set(CHECKED)

    @pytest.mark.parametrize("name,path,value,fragment", BROKEN)
    def test_mutated_artefact_names_the_broken_property(
        self, name, path, value, fragment
    ):
        (message,) = SCENARIOS[name].check(mutated(name, path, value))
        assert fragment in message


class TestCheckCommand:
    """``--check`` on a synthetic one-scenario table (runs in-process)."""

    @pytest.fixture
    def bench_command(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            bench, "SCENARIOS", {"demo": Scenario("demo", lambda: RUN.artefact)}
        )
        write_baseline(RUN, tmp_path)
        parser = argparse.ArgumentParser()
        add_bench_arguments(parser)

        def run(*flags: str) -> tuple[int, str]:
            args = parser.parse_args([*flags, "--baseline-dir", str(tmp_path)])
            return run_bench_command(args), capsys.readouterr().out

        return run

    def test_passes_without_an_invariant(self, bench_command):
        code, out = bench_command("--check")
        assert code == 0 and "FAILURE" not in out

    def test_holding_invariant_passes(self, bench_command):
        bench.SCENARIOS["demo"].check = lambda artefact: []
        code, out = bench_command("--check")
        assert code == 0 and "FAILURE" not in out

    def test_broken_invariant_fails_an_otherwise_equal_artefact(
        self, bench_command
    ):
        bench.SCENARIOS["demo"].check = lambda artefact: [
            f"latency {artefact['latency']} above 0.4"
        ]
        code, out = bench_command("--check")
        assert code == 1
        assert "FAILURE: demo: invariant — latency 0.5 above 0.4" in out
        assert "drift" not in out

    def test_invariants_only_run_under_check(self, bench_command):
        bench.SCENARIOS["demo"].check = lambda artefact: ["boom"]
        code, out = bench_command()
        assert code == 0 and "boom" not in out

    def test_a_run_reports_its_seconds_and_no_baseline_timing(
        self, bench_command
    ):
        _, out = bench_command("--check")
        header = out.splitlines()[1]
        assert header.split() == ["scenario", "seconds", "artefact", "invariants"]
        assert "WARNING" not in out

    def test_full_check_fails_on_a_baseline_no_scenario_owns(
        self, bench_command, tmp_path
    ):
        stale = BenchRun("renamed_away", RUN.artefact, RUN.seconds)
        write_baseline(stale, tmp_path)
        code, out = bench_command("--check")
        assert code == 1
        assert "FAILURE: BENCH_renamed_away.json: committed baseline without" in out

    def test_subset_check_leaves_other_baselines_alone(
        self, bench_command, tmp_path
    ):
        write_baseline(BenchRun("other", RUN.artefact, RUN.seconds), tmp_path)
        code, out = bench_command("--check", "--only", "demo")
        assert code == 0 and "FAILURE" not in out

    def test_a_command_only_entry_is_not_run_listed_or_owning(
        self, bench_command, tmp_path
    ):
        bench.SCENARIOS["cmd"] = Scenario("cmd", lambda: 1 / 0, bench=False)
        write_baseline(BenchRun("cmd", RUN.artefact, RUN.seconds), tmp_path)
        code, out = bench_command("--check")
        assert code == 1
        assert "FAILURE: BENCH_cmd.json: committed baseline without" in out
        _, listed = bench_command("--list")
        assert listed.split() == ["Benchmark", "scenarios:", "demo"]


class TestArguments:
    @pytest.mark.parametrize("flag", ["--parallel"])
    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_counts_below_one_are_usage_errors(self, flag, value, capsys):
        parser = argparse.ArgumentParser()
        add_bench_arguments(parser)
        with pytest.raises(SystemExit) as usage:
            parser.parse_args([flag, value])
        assert usage.value.code == 2
        assert flag in capsys.readouterr().err


class Reached(Exception):
    """Raised by a stubbed driver: the run got there, with these arguments."""


SEED_DRIVERS = {
    "fig3_cpu_saturation": ("cpu_saturation", "run_cpu_saturation"),
    "fig4_index_drop": ("index_drop", "run_index_drop"),
    "fig5_mrc_bestseller": ("mrc_curves", "run_fig5_bestseller"),
    "fig6_mrc_rubis": ("mrc_curves", "run_fig6_search_items_by_region"),
    "table1_buffer_partitioning": (
        "buffer_partitioning", "run_buffer_partitioning",
    ),
    "table2_memory_contention": ("memory_contention", "run_memory_contention"),
    "table3_io_contention": ("io_contention", "run_io_contention"),
    "lock_contention": ("lock_contention", "run_lock_contention"),
    "chaos_failover": ("chaos", "run_chaos"),
    "chaos": ("chaos", "run_chaos"),
    "storm": ("chaos", "run_chaos_storm"),
    "chaos_control_plane": ("control_chaos", "run_control_chaos"),
    "planner_sweep": ("planner_sweep", "run_planner_sweep"),
    "plan": ("planner_sweep", "plan_at_planning_point"),
    **{f"zoo_{name}": ("zoo", "run_zoo") for name in ZOO_SCENARIOS},
    "zoo": ("zoo", "run_zoo"),
    "forecast_eval": ("forecast_eval", "run_forecast_eval"),
    "forecast": ("forecast_eval", "run_forecast_eval"),
}
"""Every entry whose run takes ``seed``, and the driver the seed must reach."""

RUBIS_ENTRIES = ("fig6_mrc_rubis", "table3_io_contention")
"""Entries whose driver gets ``seed + 4`` (the committed 11 at the default 7)."""


def seed_default(entry: Scenario):
    parameter = inspect.signature(entry.run).parameters.get("seed")
    return None if parameter is None else parameter.default


class TestSeedKnob:
    """``seed`` is a knob of every seeded run; the drivers are stubbed, so
    nothing is simulated."""

    def test_every_seeded_entry_is_listed_and_four_drivers_seed_themselves(self):
        defaults = {name: seed_default(entry) for name, entry in SCENARIOS.items()}
        assert sorted(name for name, seed in defaults.items() if seed is not None) == (
            sorted(SEED_DRIVERS)
        )
        assert [name for name, seed in defaults.items() if seed is None] == [
            "sweep_client_load", "sweep_pool_size", "ablations",
            "ablation_sampled_mrc",
        ]
        assert set(defaults.values()) == {None, 7}

    @pytest.mark.parametrize("name", sorted(SEED_DRIVERS))
    def test_the_seed_given_reaches_the_driver(self, name, monkeypatch):
        module, driver = SEED_DRIVERS[name]

        def stub(*args, **kwargs):
            raise Reached(args, kwargs)

        monkeypatch.setattr(
            importlib.import_module(f"repro.experiments.{module}"), driver, stub
        )
        with pytest.raises(Reached) as reached:
            SCENARIOS[name].run(seed=4242)
        args, kwargs = reached.value.args
        # RUBiS-only entries run at seed + 4, as Table 2's RUBiS does.
        offset = 4 if name in RUBIS_ENTRIES else 0
        assert (kwargs["seed"] if "seed" in kwargs else args[0].seed) == 4242 + offset
