"""Unit tests for the benchmark baseline harness (no scenarios run).

The harness's job is to tell two kinds of drift apart: **artefact drift**
(the deterministic scenario computed something else — a hard failure) and
**timing drift** (the machine was slower — a warning).  These tests pin
the comparison logic, the canonical digest, and the ``BENCH_<name>.json``
round-trip on synthetic runs, so they cost milliseconds.  The gate runner's
invariant predicates are pinned the same way: against the *committed*
artefacts (a refreshed baseline that breaks a floor fails tier-1 before CI)
and against one hand-mutated artefact each.
"""

import argparse
import copy
import json
from pathlib import Path

import pytest

from repro.experiments.bench import (
    BENCH_INVARIANTS,
    BENCH_SCENARIOS,
    BenchRun,
    add_bench_arguments,
    artefact_digest,
    artefact_lines,
    baseline_path,
    compare_with_baseline,
    load_baseline,
    resolve_names,
    run_bench_command,
    write_baseline,
)

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
        "timing": {"seconds": run.seconds},
    }


class TestResolveNames:
    def test_empty_selects_all_in_registry_order(self):
        assert resolve_names(None) == list(BENCH_SCENARIOS)

    def test_subset_keeps_registry_order(self):
        last, first = list(BENCH_SCENARIOS)[-1], list(BENCH_SCENARIOS)[0]
        assert resolve_names(f"{last},{first}") == [first, last]

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            resolve_names("no_such_scenario")


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
        comparison = compare_with_baseline(RUN, baseline_for(RUN))
        assert comparison.artefact_ok and comparison.timing_ok

    def test_float_noise_within_tolerance_passes(self):
        noisy = BenchRun(
            RUN.name,
            {**RUN.artefact, "latency": 0.5 * (1 + 1e-9)},
            RUN.seconds,
        )
        assert compare_with_baseline(noisy, baseline_for(RUN)).artefact_ok

    def test_float_drift_fails(self):
        drifted = BenchRun(RUN.name, {**RUN.artefact, "latency": 0.51}, RUN.seconds)
        comparison = compare_with_baseline(drifted, baseline_for(RUN))
        assert not comparison.artefact_ok
        assert any("latency" in line for line in comparison.drift)

    def test_structural_drift_fails_with_path(self):
        drifted = BenchRun(
            RUN.name,
            {"latency": 0.5, "rows": [{"pool": 4096, "feasible": True}]},
            RUN.seconds,
        )
        comparison = compare_with_baseline(drifted, baseline_for(RUN))
        assert any("rows[0].feasible" in line for line in comparison.drift)

    def test_missing_and_new_keys_fail(self):
        drifted = BenchRun(RUN.name, {"latency": 0.5, "extra": 1}, RUN.seconds)
        comparison = compare_with_baseline(drifted, baseline_for(RUN))
        assert any("extra" in line for line in comparison.drift)
        assert any("rows" in line for line in comparison.drift)

    def test_timing_drift_warns_but_artefact_ok(self):
        slow = BenchRun(RUN.name, RUN.artefact, RUN.seconds * 2)
        comparison = compare_with_baseline(slow, baseline_for(RUN))
        assert comparison.artefact_ok
        assert not comparison.timing_ok
        assert comparison.timing_ratio == pytest.approx(2.0)

    def test_timing_within_band_is_ok(self):
        near = BenchRun(RUN.name, RUN.artefact, RUN.seconds * 1.2)
        assert compare_with_baseline(near, baseline_for(RUN)).timing_ok


class TestBaselineFiles:
    def test_roundtrip(self, tmp_path):
        path = write_baseline(RUN, tmp_path)
        assert path == baseline_path(tmp_path, "demo")
        loaded = load_baseline(tmp_path, "demo")
        assert loaded["artefact"] == RUN.artefact
        assert loaded["timing"]["seconds"] == pytest.approx(RUN.seconds)
        assert compare_with_baseline(RUN, loaded).artefact_ok

    def test_missing_baseline_is_none(self, tmp_path):
        assert load_baseline(tmp_path, "demo") is None


def committed_artefact(name: str) -> dict:
    return copy.deepcopy(load_baseline(COMMITTED, name)["artefact"])


def mutated(name: str, path: str, value) -> dict:
    """The committed artefact of ``name`` with one dotted ``path`` replaced."""
    artefact = committed_artefact(name)
    *parents, leaf = path.split(".")
    node = artefact
    for key in parents:
        node = node[key]
    node[leaf] = value
    return artefact


# (scenario, dotted path, broken value, fragment of the expected message):
# at least one per predicate, and every clause the smoke scripts asserted.
BROKEN = [
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


class TestInvariants:
    @pytest.mark.parametrize("name", sorted(BENCH_INVARIANTS))
    def test_committed_artefact_breaks_nothing(self, name):
        assert name in BENCH_SCENARIOS
        assert BENCH_INVARIANTS[name](committed_artefact(name)) == []

    def test_every_predicate_has_a_mutant(self):
        assert {name for name, *_ in BROKEN} == set(BENCH_INVARIANTS)

    @pytest.mark.parametrize("name,path,value,fragment", BROKEN)
    def test_mutated_artefact_names_the_broken_property(
        self, name, path, value, fragment
    ):
        (message,) = BENCH_INVARIANTS[name](mutated(name, path, value))
        assert fragment in message


class TestCheckCommand:
    """``--check`` on a synthetic one-scenario registry (runs in-process)."""

    @pytest.fixture
    def bench(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setitem(BENCH_SCENARIOS, "demo", lambda: RUN.artefact)
        write_baseline(RUN, tmp_path)
        parser = argparse.ArgumentParser()
        add_bench_arguments(parser)

        def run(*flags: str) -> tuple[int, str]:
            args = parser.parse_args(
                [*flags, "--only", "demo", "--baseline-dir", str(tmp_path)]
            )
            return run_bench_command(args), capsys.readouterr().out

        return run

    def test_passes_without_an_invariant(self, bench):
        code, out = bench("--check")
        assert code == 0 and "FAILURE" not in out

    def test_holding_invariant_passes(self, bench, monkeypatch):
        monkeypatch.setitem(BENCH_INVARIANTS, "demo", lambda artefact: [])
        code, out = bench("--check")
        assert code == 0 and "FAILURE" not in out

    def test_broken_invariant_fails_an_otherwise_equal_artefact(
        self, bench, monkeypatch
    ):
        monkeypatch.setitem(
            BENCH_INVARIANTS,
            "demo",
            lambda artefact: [f"latency {artefact['latency']} above 0.4"],
        )
        code, out = bench("--check")
        assert code == 1
        assert "FAILURE: demo: invariant — latency 0.5 above 0.4" in out
        assert "drift" not in out

    def test_invariants_only_run_under_check(self, bench, monkeypatch):
        monkeypatch.setitem(BENCH_INVARIANTS, "demo", lambda artefact: ["boom"])
        code, out = bench()
        assert code == 0 and "boom" not in out
