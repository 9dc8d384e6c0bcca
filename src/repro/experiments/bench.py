"""Benchmark scenario registry and baseline harness.

Twenty-two named scenarios — mirroring the ``benchmarks/`` pytest suite —
each a module-level zero-argument function returning the scenario's
**artefact metrics** as plain JSON types: the deterministic numbers the
corresponding benchmark asserts on (latencies, quotas, feasibility flags),
*never* a wall-clock value.  On top of the registry:

* :func:`run_bench` runs any subset of scenarios, serially or sharded
  across a process pool (``repro bench --parallel N``), timing each one;
  because the scenarios are seeded end-to-end, the artefacts of a parallel
  run are byte-identical to a serial run — :func:`artefact_digest` pins
  exactly that;
* ``BENCH_<name>.json`` baselines (committed under ``benchmarks/baselines``)
  record each scenario's artefact and its wall-clock timing, seeding the
  perf trajectory; :func:`compare_with_baseline` separates **artefact
  drift** (a correctness regression — hard failure) from **timing drift**
  (machine-dependent — warn outside the tolerance band);
* :data:`BENCH_INVARIANTS` holds, next to the scenarios they guard, the
  properties a subsystem exists to provide *whatever the baseline says*
  (quarantined windows emit no action, detection-quality floors, no
  ungated act-ahead, ...): one predicate ``artefact -> list[str]`` per
  scenario, evaluated by ``--check`` on the artefact it has just produced;
* :func:`run_bench_command` is the shared CLI driver behind both
  ``repro bench`` and ``benchmarks/baseline.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from ..analysis.export import to_jsonable
from ..workloads.zoo import ZOO_SCENARIOS
from .parallel import SweepTask, run_sweep

__all__ = [
    "BENCH_SCENARIOS",
    "BENCH_INVARIANTS",
    "BenchRun",
    "BaselineComparison",
    "DEFAULT_BASELINE_DIR",
    "run_bench",
    "run_bench_profiled",
    "artefact_lines",
    "artefact_digest",
    "baseline_path",
    "write_baseline",
    "load_baseline",
    "compare_with_baseline",
    "add_bench_arguments",
    "run_bench_command",
]

BASELINE_SCHEMA = 1
DEFAULT_BASELINE_DIR = Path("benchmarks") / "baselines"
TIMING_TOLERANCE = 0.25
"""Relative wall-clock drift beyond which a baseline check *warns* (never
fails: timings are machine-dependent; the artefact metrics are the
regression contract)."""

FLOAT_REL_TOL = 1e-6
"""Relative tolerance for float artefact comparisons — wide enough to
absorb numpy/BLAS version noise across machines, tight enough that any
behavioural change in a scenario trips it."""


# --------------------------------------------------------------------- #
# Scenarios                                                             #
# --------------------------------------------------------------------- #
# Imports live inside each function: scenario modules pull in the whole
# cluster stack, and worker processes only pay for what they run.
#
# A scenario's ``check_<name>`` is its invariant predicate: the messages of
# the properties its artefact ``a`` breaks, empty when it breaks none.


def _broken(*checks: tuple[bool, str]) -> list[str]:
    return [message for holds, message in checks if not holds]


def bench_fig3_cpu_saturation() -> dict:
    from .cpu_saturation import CPUSaturationConfig, run_cpu_saturation

    result = run_cpu_saturation(CPUSaturationConfig())
    return {
        "peak_replicas": result.peak_replicas,
        "violations_before_recovery": result.violations_before_recovery,
        "final_latency": result.final_latency,
        "sla_met_at_end": result.sla_met_at_end(),
        "allocation_series": result.allocation_series,
    }


def bench_fig4_index_drop() -> dict:
    from .index_drop import IndexDropConfig, run_index_drop

    result = run_index_drop(IndexDropConfig(clients=60))
    quotas: dict[str, int] = {}
    for action in result.actions:
        quotas.update(action.quota_map())
    return {
        "latency_before": result.latency_before,
        "latency_violation": result.latency_violation,
        "latency_after": result.latency_after,
        "outlier_contexts": result.outlier_contexts,
        "quotas": quotas,
    }


def _mrc_artefact(result) -> dict:
    return {
        "context": result.context,
        "trace_length": result.trace_length,
        "total_memory": result.params.total_memory,
        "ideal_miss_ratio": result.params.ideal_miss_ratio,
        "acceptable_memory": result.params.acceptable_memory,
        "acceptable_miss_ratio": result.params.acceptable_miss_ratio,
    }


def bench_fig5_mrc_bestseller() -> dict:
    from .mrc_curves import run_fig5_bestseller

    return _mrc_artefact(run_fig5_bestseller(executions=400))


def bench_fig6_mrc_rubis() -> dict:
    from .mrc_curves import run_fig6_search_items_by_region

    return _mrc_artefact(run_fig6_search_items_by_region(executions=200))


def bench_table1_buffer_partitioning() -> dict:
    from .buffer_partitioning import (
        BufferPartitioningConfig,
        run_buffer_partitioning,
    )

    result = run_buffer_partitioning(BufferPartitioningConfig())
    return to_jsonable(result)


def bench_table2_memory_contention() -> dict:
    from .memory_contention import MemoryContentionConfig, run_memory_contention

    result = run_memory_contention(MemoryContentionConfig())
    return {
        "rows": to_jsonable(result.rows),
        "rescheduled_context": result.rescheduled_context,
    }


def bench_table3_io_contention() -> dict:
    from .io_contention import IOContentionConfig, run_io_contention

    result = run_io_contention(IOContentionConfig(clients_per_instance=150))
    return {
        "rows": to_jsonable(result.rows),
        "heaviest_io_context": result.heaviest_io_context,
        "heaviest_io_share": result.heaviest_io_share,
    }


def bench_lock_contention() -> dict:
    from .lock_contention import LockContentionConfig, run_lock_contention

    result = run_lock_contention(LockContentionConfig())
    return {
        "latency_before": result.latency_before,
        "latency_during": result.latency_during,
        "baseline_lock_wait_share": result.baseline_lock_wait_share,
        "lock_wait_share": result.lock_wait_share,
        "reported_aggressor": result.reported_aggressor,
    }


def bench_sweep_client_load() -> dict:
    from .sweeps import run_client_load_sweep

    return {"rows": to_jsonable(run_client_load_sweep())}


def bench_sweep_pool_size() -> dict:
    from .sweeps import run_pool_size_sweep

    return {"rows": to_jsonable(run_pool_size_sweep())}


def bench_ablations() -> dict:
    from .ablations import (
        run_coarse_vs_fine,
        run_mrc_window_sensitivity,
        run_quota_vs_reschedule,
        run_routing_policies,
        run_topk_vs_outliers,
    )

    def rows(outcomes):
        return [
            {
                "policy": o.policy,
                "recovered_latency": o.recovered_latency,
                "servers_used": o.servers_used,
                "replicas_used": o.replicas_used,
                "mrc_recomputations": o.mrc_recomputations,
            }
            for o in outcomes
        ]

    return to_jsonable(
        {
            "quota_vs_reschedule": rows(run_quota_vs_reschedule()),
            "coarse_vs_fine": rows(run_coarse_vs_fine()),
            "topk_vs_outliers": rows(run_topk_vs_outliers()),
            "routing_policies": rows(run_routing_policies()),
            "mrc_window_sensitivity": {
                str(length): estimate
                for length, estimate in run_mrc_window_sensitivity().items()
            },
        }
    )


def bench_ablation_sampled_mrc() -> dict:
    from ..core.mrc import MissRatioCurve
    from ..core.mrc_sampling import sampled_mrc
    from ..workloads.tpcw import BEST_SELLER, build_tpcw
    from .mrc_curves import trace_of_class

    pool = 8192
    workload = build_tpcw(seed=7)
    trace = trace_of_class(workload.class_named(BEST_SELLER), executions=400)
    exact = MissRatioCurve.from_trace(trace).parameters(pool)
    rows = [
        {"method": "exact", "kept_fraction": 1.0,
         "acceptable_memory": exact.acceptable_memory}
    ]
    for rate in (0.5, 0.2, 0.1):
        curve, stats = sampled_mrc(trace, rate=rate, seed=11)
        rows.append(
            {
                "method": f"sampled R={rate}",
                "kept_fraction": stats.effective_rate,
                "acceptable_memory": curve.parameters(pool).acceptable_memory,
            }
        )
    return {"trace_length": len(trace), "rows": to_jsonable(rows)}


def bench_chaos_failover() -> dict:
    from .chaos import ChaosConfig, run_chaos

    result = run_chaos(ChaosConfig())
    return {
        "reroute_intervals": result.reroute_intervals,
        "quarantined_intervals": result.quarantined_intervals,
        "violating_degraded_intervals": result.violating_degraded_intervals,
        "actions_during_quarantine": result.actions_during_quarantine,
        "violations_during_outage": result.violations_during_outage,
        "sla_recovery_intervals": result.sla_recovery_intervals,
        "pending_stale_dropped": result.pending_stale_dropped,
        "final_latency": result.final_latency,
        "sla_met_at_end": result.sla_met_at_end(),
        "faults_injected": result.faults_injected,
        "unmatched_faults": result.unmatched_faults,
    }


def check_chaos_failover(a: dict) -> list[str]:
    """The degradation contract of the fault subsystem."""
    return _broken(
        (0 <= a["reroute_intervals"] <= 1,
         "crashed replica not routed around within 1 interval: "
         f"{a['reroute_intervals']}"),
        (a["quarantined_intervals"] >= 2,
         "stats gap + metric corruption should quarantine two windows, got "
         f"{a['quarantined_intervals']}"),
        (a["actions_during_quarantine"] == 0,
         "controller emitted retuning actions from quarantined windows: "
         f"{a['actions_during_quarantine']}"),
        (a["violating_degraded_intervals"] >= 1,
         "the storm no longer produces a violating+degraded interval, so "
         "the refusal path went unexercised"),
        (0 <= a["sla_recovery_intervals"] <= 3,
         "SLA not recovered within 3 intervals of the replica rejoining: "
         f"{a['sla_recovery_intervals']}"),
        (a["sla_met_at_end"], "SLA not met at the end of the run"),
        (a["unmatched_faults"] == 0,
         f"{a['unmatched_faults']} fault event(s) found no target"),
    )


def bench_chaos_control_plane() -> dict:
    from .control_chaos import ControlChaosConfig, run_control_chaos

    result = run_control_chaos(ControlChaosConfig())
    supervisor = result.supervisor
    journal = supervisor.journal
    reconcile = supervisor.last_reconcile
    return {
        "latency_before": result.latency_before,
        "quota_interval": result.quota_interval,
        "quota_pages": result.quota_pages,
        "cleared_quotas": [list(pair) for pair in result.cleared_quotas],
        "crash_interval": result.crash_interval,
        "restart_interval": result.restart_interval,
        "missed_intervals": supervisor.missed_intervals,
        "checkpoints_taken": supervisor.checkpoints.taken,
        "corrupt_skipped": supervisor.checkpoints.corrupt_skipped,
        "restored_from_interval": supervisor.restored_interval,
        "cold_start": supervisor.cold_starts > 0,
        "epoch_final": supervisor.epoch,
        "replayed_records": supervisor.replayed_records,
        "journal_counts": journal.counts(),
        "duplicate_applied": to_jsonable(journal.duplicate_applied()),
        "open_intents": len(journal.open_intents()),
        "reconcile": reconcile.counts() if reconcile is not None else None,
        "reconcile_repaired": list(reconcile.repaired) if reconcile else [],
        "stale_attempt_fenced": result.stale_attempt_fenced,
        "fence_rejections": supervisor.fence.rejections,
        "sla_recovery_intervals_after_restart": (
            result.sla_recovery_intervals_after_restart
        ),
        "sla_met_at_end": result.sla_met_at_end,
        "final_latency": result.final_latency,
    }


def check_chaos_control_plane(a: dict) -> list[str]:
    """The exactly-once contract of crash recovery."""
    recovery = a["sla_recovery_intervals_after_restart"]
    return _broken(
        (not a["cold_start"],
         "restart cold-started instead of restoring a checkpoint"),
        (a["corrupt_skipped"] >= 1,
         "the corrupted checkpoint was not exercised — restore never had to "
         "fall back past it"),
        (not a["duplicate_applied"],
         f"action(s) applied more than once: {a['duplicate_applied'][:3]}"),
        (a["open_intents"] == 0,
         f"{a['open_intents']} intent(s) left open after reconcile"),
        (a["stale_attempt_fenced"],
         "the stale pre-crash action was not fenced"),
        (recovery is not None and 0 <= recovery <= 2,
         "SLA not recovered within 2 intervals of the restart close: "
         f"{recovery}"),
        (a["sla_met_at_end"], "SLA not met at the end of the run"),
    )


def bench_planner_sweep() -> dict:
    from .planner_sweep import run_planner_sweep

    return to_jsonable(run_planner_sweep())


def check_planner_sweep(a: dict) -> list[str]:
    """The planning contract of the capacity planner."""
    quota, planner = a["quota"], a["planner"]
    return _broken(
        (quota["intervals_to_action"] >= 0,
         "quota path never acted on the contention"),
        (planner["intervals_to_action"] >= 0,
         "planner never acted on the contention"),
        (planner["intervals_to_action"] <= quota["intervals_to_action"]
         or quota["intervals_to_action"] < 0,
         "planner slower than the quota path: "
         f"{planner['intervals_to_action']} vs {quota['intervals_to_action']} "
         "intervals to action"),
        *(
            (outcome["recovered_sla_met"],
             f"{outcome['mode']} mode did not recover the SLA (latency "
             f"{outcome['recovered_latency']:.3f}s)")
            for outcome in (quota, planner)
        ),
        (a["plan_steps"] >= 1, "plan is empty at the contended planning point"),
        (bool(a["plan_digest"]), "plan digest missing (determinism pin lost)"),
        (a["validation_ok"],
         "what-if validation failed: max relative error "
         f"{a['validation_max_error']:.0%} exceeds its 25% budget"),
        (a["validation_checks"] >= 1, "validation checked no classes"),
    )


ZOO_QUALITY_FLOORS = {
    "diurnal": (1.0, 1.0),
    "flash_crowd": (0.55, 0.99),
    "noisy_neighbour": (0.2, 0.99),
}
"""Zoo scenario → (precision floor, recall floor), measured at seed 7.

``diurnal`` is the false-positive control (pure CPU saturation, no guilty
class): any class-level detection there is a regression.  The other
precision floors are deliberately low: they pin the detector's *measured*
false-positive behaviour (collateral outliers whose stable miss counts are
near zero), not an aspirational one.  Raising a floor must come from a
detector improvement, not from relabelling."""


def _bench_zoo(name: str) -> dict:
    from .zoo import run_zoo, zoo_artefact

    return zoo_artefact(run_zoo(name))


def _check_zoo_quality(
    precision_floor: float, recall_floor: float, a: dict
) -> list[str]:
    quality = a["quality"]
    return _broken(
        (quality["precision"] >= precision_floor,
         f"precision {quality['precision']:.3f} below the pinned floor "
         f"{precision_floor:.2f}"),
        (quality["recall"] >= recall_floor,
         f"recall {quality['recall']:.3f} below the pinned floor "
         f"{recall_floor:.2f}"),
    )


def bench_forecast_eval() -> dict:
    from .forecast_eval import forecast_eval_artefact, run_forecast_eval

    return forecast_eval_artefact(run_forecast_eval())


def check_forecast_eval(a: dict) -> list[str]:
    """Predictive enforcement keeps its win and never thrashes."""
    avoided = a["scenarios"].get("flash_crowd", {}).get("intervals_avoided", 0)
    validation = a.get("validation")
    checks = [
        (avoided >= 1,
         f"flash_crowd: predictive avoided {avoided} SLA-violation intervals "
         "vs reactive; the gate requires at least 1"),
        (validation is not None and validation["ok"],
         f"planning-point what-if validation missing or failed: {validation}"),
    ]
    for name, scenario in sorted(a["scenarios"].items()):
        acted = scenario["acted"]
        mutations = scenario["plans_applied"] + scenario["scale_outs"]
        checks += [
            (acted <= 2,
             f"{name}: {acted} act-aheads fired (max 2) — the policy is "
             "thrashing"),
            (mutations <= acted,
             f"{name}: {mutations} cluster mutations from {acted} act-aheads "
             "— an ungated action slipped past the policy"),
            (scenario["budget_remaining"] >= 1,
             f"{name}: false-positive budget exhausted — predictive "
             "enforcement silently degraded to reactive"),
        ]
    return _broken(*checks)


BENCH_SCENARIOS = {
    "fig3_cpu_saturation": bench_fig3_cpu_saturation,
    "fig4_index_drop": bench_fig4_index_drop,
    "fig5_mrc_bestseller": bench_fig5_mrc_bestseller,
    "fig6_mrc_rubis": bench_fig6_mrc_rubis,
    "table1_buffer_partitioning": bench_table1_buffer_partitioning,
    "table2_memory_contention": bench_table2_memory_contention,
    "table3_io_contention": bench_table3_io_contention,
    "lock_contention": bench_lock_contention,
    "sweep_client_load": bench_sweep_client_load,
    "sweep_pool_size": bench_sweep_pool_size,
    "ablations": bench_ablations,
    "ablation_sampled_mrc": bench_ablation_sampled_mrc,
    "chaos_failover": bench_chaos_failover,
    "chaos_control_plane": bench_chaos_control_plane,
    "planner_sweep": bench_planner_sweep,
    **{f"zoo_{name}": partial(_bench_zoo, name) for name in ZOO_SCENARIOS},
    "forecast_eval": bench_forecast_eval,
}

BENCH_INVARIANTS = {
    "chaos_failover": check_chaos_failover,
    "chaos_control_plane": check_chaos_control_plane,
    "planner_sweep": check_planner_sweep,
    **{
        f"zoo_{name}": partial(_check_zoo_quality, *floors)
        for name, floors in ZOO_QUALITY_FLOORS.items()
    },
    "forecast_eval": check_forecast_eval,
}
"""Scenario → invariant predicate (see the ``check_*`` functions above)."""


# --------------------------------------------------------------------- #
# Execution                                                             #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class BenchRun:
    """One scenario's outcome: its artefact metrics and wall-clock cost."""

    name: str
    artefact: dict
    seconds: float


def _timed_scenario(name: str) -> dict:
    start = time.perf_counter()
    artefact = to_jsonable(BENCH_SCENARIOS[name]())
    return {
        "name": name,
        "artefact": artefact,
        "seconds": time.perf_counter() - start,
    }


def run_bench_profiled(
    names: list[str], top: int = 15
) -> tuple[list[BenchRun], dict[str, str]]:
    """Run scenarios serially under ``cProfile``; also return report text.

    Per scenario the report holds the ``top`` entries sorted by cumulative
    time — the view that finds the hot path across the engine stack.  The
    artefacts are the same as an unprofiled run (scenarios are seeded);
    only the timings carry profiler overhead, so ``--check`` timing ratios
    are not meaningful under ``--profile``.
    """
    import cProfile
    import io
    import pstats

    runs: list[BenchRun] = []
    reports: dict[str, str] = {}
    for name in names:
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        artefact = to_jsonable(BENCH_SCENARIOS[name]())
        profiler.disable()
        seconds = time.perf_counter() - start
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats(
            "cumulative"
        ).print_stats(top)
        runs.append(BenchRun(name=name, artefact=artefact, seconds=seconds))
        reports[name] = stream.getvalue()
    return runs, reports


def resolve_names(only: str | None = None) -> list[str]:
    """The scenario subset a ``--only a,b,c`` selector names (all when
    empty), in registry order, with unknown names rejected."""
    if not only:
        return list(BENCH_SCENARIOS)
    wanted = [name.strip() for name in only.split(",") if name.strip()]
    unknown = sorted(set(wanted) - set(BENCH_SCENARIOS))
    if unknown:
        raise KeyError(
            f"unknown benchmark scenario(s) {unknown}; "
            f"known: {sorted(BENCH_SCENARIOS)}"
        )
    return [name for name in BENCH_SCENARIOS if name in wanted]


def run_bench(
    names: list[str] | None = None, workers: int | None = None
) -> list[BenchRun]:
    """Run the named scenarios (all by default); results in registry order.

    Timings are measured inside each worker around the scenario call, so a
    parallel run reports per-scenario costs, not wall-clock shares.
    """
    names = list(BENCH_SCENARIOS) if names is None else names
    results = run_sweep(
        [
            SweepTask(name=f"bench/{name}", fn=_timed_scenario, args=(name,))
            for name in names
        ],
        workers=workers,
    )
    return [
        BenchRun(name=r["name"], artefact=r["artefact"], seconds=r["seconds"])
        for r in results
    ]


def artefact_lines(runs: list[BenchRun]) -> list[str]:
    """Canonical JSONL of the artefacts alone (timings excluded), the
    byte-identity contract between serial and parallel runs."""
    return [
        json.dumps(
            {"artefact": run.artefact, "name": run.name},
            sort_keys=True,
            separators=(",", ":"),
        )
        for run in runs
    ]


def artefact_digest(runs: list[BenchRun]) -> str:
    """sha256 over :func:`artefact_lines` (trailing newline included)."""
    blob = ("\n".join(artefact_lines(runs)) + "\n").encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# --------------------------------------------------------------------- #
# Baselines                                                             #
# --------------------------------------------------------------------- #


def baseline_path(directory: str | Path, name: str) -> Path:
    return Path(directory) / f"BENCH_{name}.json"


def write_baseline(run: BenchRun, directory: str | Path) -> Path:
    """Serialise one run as ``BENCH_<name>.json``; returns the path."""
    path = baseline_path(directory, run.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": BASELINE_SCHEMA,
        "name": run.name,
        "artefact": run.artefact,
        "timing": {"seconds": round(run.seconds, 6)},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(directory: str | Path, name: str) -> dict | None:
    path = baseline_path(directory, name)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _diff_artefact(expected, actual, path: str, drift: list[str]) -> None:
    """Collect human-readable paths where ``actual`` left ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}.{key}" if path else str(key)
            if key not in expected:
                drift.append(f"{where}: unexpected new key")
            elif key not in actual:
                drift.append(f"{where}: missing")
            else:
                _diff_artefact(expected[key], actual[key], where, drift)
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            drift.append(f"{path}: length {len(expected)} -> {len(actual)}")
            return
        for index, (left, right) in enumerate(zip(expected, actual)):
            _diff_artefact(left, right, f"{path}[{index}]", drift)
        return
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(
            actual, (int, float)
        ) and not isinstance(expected, bool) and not isinstance(actual, bool):
            if not math.isclose(
                float(expected), float(actual),
                rel_tol=FLOAT_REL_TOL, abs_tol=1e-9,
            ):
                drift.append(f"{path}: {expected} -> {actual}")
            return
    if expected != actual:
        drift.append(f"{path}: {expected!r} -> {actual!r}")


@dataclass(frozen=True)
class BaselineComparison:
    """One scenario checked against its committed baseline."""

    name: str
    drift: tuple[str, ...]
    timing_ratio: float | None
    timing_ok: bool

    @property
    def artefact_ok(self) -> bool:
        return not self.drift


def compare_with_baseline(
    run: BenchRun,
    baseline: dict,
    timing_tolerance: float = TIMING_TOLERANCE,
) -> BaselineComparison:
    """Artefact drift is a failure; timing drift is machine noise (warn)."""
    drift: list[str] = []
    _diff_artefact(baseline.get("artefact"), run.artefact, "", drift)
    recorded = float(baseline.get("timing", {}).get("seconds") or 0.0)
    ratio = run.seconds / recorded if recorded > 0 else None
    timing_ok = ratio is None or abs(ratio - 1.0) <= timing_tolerance
    return BaselineComparison(
        name=run.name,
        drift=tuple(drift),
        timing_ratio=ratio,
        timing_ok=timing_ok,
    )


# --------------------------------------------------------------------- #
# CLI driver (shared by `repro bench` and benchmarks/baseline.py)       #
# --------------------------------------------------------------------- #


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--parallel", type=int, default=None, metavar="N",
                        help="shard scenarios across N worker processes "
                             "(default: serial; artefacts are identical "
                             "either way)")
    parser.add_argument("--only", type=str, default=None,
                        help="comma-separated scenario subset")
    parser.add_argument("--baseline-dir", type=str,
                        default=str(DEFAULT_BASELINE_DIR),
                        help="where committed BENCH_<name>.json baselines "
                             "live (default: %(default)s)")
    parser.add_argument("--write-baselines", action="store_true",
                        help="write/refresh BENCH_<name>.json from this run")
    parser.add_argument("--check", action="store_true",
                        help="compare against committed baselines and "
                             "evaluate the scenarios' invariants: exit "
                             "non-zero on artefact drift or a broken "
                             "invariant, warn on timing "
                             # argparse %-expands help strings, so the
                             # percent sign must be doubled.
                             f"outside the ±{TIMING_TOLERANCE * 100:.0f}%% "
                             "band")
    parser.add_argument("--fresh-dir", type=str, default=None,
                        help="also write this run's BENCH_<name>.json here "
                             "(e.g. for upload as a CI artifact)")
    parser.add_argument("--profile", action="store_true",
                        help="run each scenario under cProfile (serial) and "
                             "print the hottest functions by cumulative "
                             "time; timings include profiler overhead")
    parser.add_argument("--profile-top", type=int, default=15, metavar="N",
                        help="rows per scenario in the --profile report "
                             "(default: %(default)s)")
    parser.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="list the registered scenarios and exit")


def run_bench_command(args: argparse.Namespace) -> int:
    from ..analysis.report import Table

    if getattr(args, "list_scenarios", False):
        print("Benchmark scenarios:")
        for name in BENCH_SCENARIOS:
            print(f"  {name}")
        return 0
    try:
        names = resolve_names(getattr(args, "only", None))
    except KeyError as error:
        print(f"repro bench: {error.args[0]}")
        return 2
    workers = getattr(args, "parallel", None)
    profiling = bool(getattr(args, "profile", False))
    profiles: dict[str, str] = {}
    if profiling:
        if workers and workers > 1:
            print("repro bench: --profile runs serially; ignoring --parallel")
            workers = None
        runs, profiles = run_bench_profiled(
            names, top=max(1, int(getattr(args, "profile_top", 15)))
        )
    else:
        runs = run_bench(names, workers=workers)

    baseline_dir = Path(getattr(args, "baseline_dir", DEFAULT_BASELINE_DIR))
    check = bool(getattr(args, "check", False))
    table = Table(
        title=f"benchmark scenarios ({'parallel ' + str(workers) if workers and workers > 1 else 'serial'})",
        headers=[
            "scenario", "seconds", "baseline (s)", "timing", "artefact",
            "invariants",
        ],
    )
    failures: list[str] = []
    warnings: list[str] = []
    for run in runs:
        baseline = load_baseline(baseline_dir, run.name)
        recorded = (
            f"{baseline['timing']['seconds']:.3f}"
            if baseline and baseline.get("timing", {}).get("seconds")
            else "-"
        )
        timing_cell = artefact_cell = invariant_cell = "-"
        if check and run.name in BENCH_INVARIANTS:
            broken = BENCH_INVARIANTS[run.name](run.artefact)
            invariant_cell = "BROKEN" if broken else "ok"
            failures.extend(f"{run.name}: invariant — {line}" for line in broken)
        if check and baseline is None:
            timing_cell = artefact_cell = "no baseline"
            failures.append(f"{run.name}: no committed baseline")
        elif check:
            comparison = compare_with_baseline(run, baseline)
            if comparison.timing_ratio is not None:
                timing_cell = f"{comparison.timing_ratio:.2f}x"
            if not comparison.timing_ok:
                timing_cell += " (warn)"
                warnings.append(
                    f"{run.name}: timing {comparison.timing_ratio:.2f}x "
                    f"baseline (tolerance ±{TIMING_TOLERANCE:.0%})"
                )
            artefact_cell = "ok" if comparison.artefact_ok else "DRIFT"
            if not comparison.artefact_ok:
                failures.append(
                    f"{run.name}: artefact drift — "
                    + "; ".join(comparison.drift[:5])
                )
        table.add_row(
            run.name, f"{run.seconds:.3f}", recorded, timing_cell,
            artefact_cell, invariant_cell,
        )
    print(table.render())
    print(f"\nartefact digest: {artefact_digest(runs)}")

    for name in names:
        if name in profiles:
            print(f"\n--- profile: {name} (cumulative) ---")
            print(profiles[name].rstrip())

    if getattr(args, "write_baselines", False):
        for run in runs:
            path = write_baseline(run, baseline_dir)
            print(f"baseline written: {path}")
    fresh_dir = getattr(args, "fresh_dir", None)
    if fresh_dir:
        for run in runs:
            write_baseline(run, fresh_dir)
        print(f"fresh baselines written under: {fresh_dir}")

    for warning in warnings:
        print(f"WARNING: {warning}")
    for failure in failures:
        print(f"FAILURE: {failure}")
    return 1 if failures else 0
