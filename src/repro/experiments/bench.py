"""The scenario table and its baseline harness.

Every reproducible scenario — Figures 3–6, Tables 1–3, the lock anomaly, the
sweeps and ablations, the gates of the opt-in layers (chaos, planner, zoo,
forecast) — is declared here exactly once, as a :class:`Scenario`:

* its **run**: a seeded, deterministic experiment; its keyword arguments are
  the knobs ``repro <command>`` may override, their defaults the committed
  configuration;
* its **artefact**: the result projected to plain JSON types — latencies,
  quotas, feasibility flags, *never* a wall-clock value;
* its **rendering** (the entries that name a command): the reproduced table
  or series next to the paper's reference numbers;
* its **invariants**: one predicate ``artefact -> list[str]`` naming the
  properties the artefact breaks — the paper's *shape* (who wins, by roughly
  what factor) or the contract a subsystem exists to provide *whatever the
  baseline says* (quarantined windows emit no action, detection-quality
  floors, no ungated act-ahead, ...);
* optionally its **records** (the JSONL ``--records`` writes) and when a run
  **fails** (``plan`` and ``forecast`` on a failed what-if validation).

Everything else derives from :data:`SCENARIOS`:

* ``repro <command>``, ``list`` and ``all`` loop over the entries that name
  a command (:mod:`repro.cli`); the knobs of a run, ``seed`` included, are
  its command's flags.  ``chaos``, ``storm``, ``plan``, ``zoo`` and
  ``forecast`` are commands only (``bench=False``): everything below skips
  them;
* :func:`run_bench` runs any subset, serially or sharded across a process
  pool (``repro bench --parallel N``); the scenarios are seeded end-to-end,
  so a parallel run's artefacts are byte-identical to a serial run's —
  :func:`artefact_digest` pins exactly that;
* ``BENCH_<name>.json`` baselines (committed under ``benchmarks/baselines``)
  hold each scenario's artefact and nothing of the machine, so a baseline
  moves when behaviour moves and not otherwise.  ``--check`` fails on
  artefact drift (:func:`compare_with_baseline`), on a broken invariant of
  the artefact just produced, and on a committed baseline no scenario owns.
  Speed is tracked by ``benchmarks/perf/``;
* :func:`run_bench_command` is the driver behind ``repro bench`` (and
  ``benchmarks/baseline.py``, the same command from a checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any

from ..analysis.export import to_jsonable
from ..analysis.report import Table, format_series
from ..workloads.zoo import ZOO_SCENARIOS
from .parallel import SweepTask, run_sweep

__all__ = [
    "Scenario",
    "SCENARIOS",
    "BenchRun",
    "DEFAULT_BASELINE_DIR",
    "positive_int",
    "non_negative_int",
    "bench_names",
    "run_bench",
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

FLOAT_REL_TOL = 1e-6
"""Relative tolerance for float artefact comparisons — wide enough to
absorb numpy/BLAS version noise across machines, tight enough that any
behavioural change in a scenario trips it."""

POOL_PAGES = 8192
"""The paper's buffer pool, against which the MRC scenarios are judged."""


# --------------------------------------------------------------------- #
# The table                                                             #
# --------------------------------------------------------------------- #


@dataclass
class Scenario:
    """One reproducible scenario: run → artefact → rendering → invariants."""

    name: str
    run: Callable[..., Any]
    command: str | None = None
    """``repro <command>`` prints :attr:`render` of a run; ``None`` keeps
    the scenario to ``repro bench``."""
    help: str = ""
    bench: bool = True
    """``False`` keeps the entry to its command: ``repro bench``, its
    baselines and the artefact digest skip it."""
    project: Callable[[Any], Any] = to_jsonable
    render: Callable[[Any], str] | None = None
    check: Callable[[dict], list[str]] | None = None
    records: Callable[[Any], list[dict]] | None = None
    """The JSONL records ``repro <command> --records PATH`` writes."""
    fails: Callable[[Any], bool] | None = None
    """When it holds of a run, ``repro <command>`` exits 1."""

    def artefact(self) -> dict:
        """Run at the committed configuration; the artefact as plain JSON."""
        return to_jsonable(self.project(self.run()))

    # Decorators: each part is defined right below the run it belongs to.

    def projection(self, project: Callable[[Any], Any]):
        self.project = project
        return project

    def rendering(self, render: Callable[[Any], str]):
        self.render = render
        return render

    def invariants(self, check: Callable[[dict], list[str]]):
        self.check = check
        return check

    def recording(self, records: Callable[[Any], list[dict]]):
        self.records = records
        return records

    def failing(self, fails: Callable[[Any], bool]):
        self.fails = fails
        return fails


SCENARIOS: dict[str, Scenario] = {}
"""Name → scenario, in declaration order (the order of every report and of
the artefact digest)."""


def scenario(command: str | None = None, help: str = "", bench: bool = True):
    """Register the decorated seeded run as a scenario of the same name."""

    def register(run: Callable[..., Any]) -> Scenario:
        entry = SCENARIOS[run.__name__] = Scenario(
            run.__name__, run, command, help, bench
        )
        return entry

    return register


def bench_names() -> list[str]:
    """The scenarios ``repro bench`` runs and pins, in registry order."""
    return [name for name, entry in SCENARIOS.items() if entry.bench]


def _broken(*checks: tuple[bool, str]) -> list[str]:
    return [message for holds, message in checks if not holds]


def _attributes(*names: str) -> Callable[[Any], dict]:
    """A projection onto the named attributes of a result (methods called)."""

    def project(result) -> dict:
        values = {name: getattr(result, name) for name in names}
        return {k: v() if callable(v) else v for k, v in values.items()}

    return project


def _table(title: str, headers: list[str], rows) -> str:
    table = Table(title=title, headers=headers)
    for row in rows:
        table.add_row(*row)
    return table.render()


# Imports live inside each run: scenario modules pull in the whole cluster
# stack, and worker processes only pay for what they run.
#
# A scenario's ``check_<name>`` is its invariant predicate: the messages of
# the properties its artefact ``a`` breaks, empty when it breaks none.  A
# shape the artefact does not hold (fig. 4's read-ahead ratio, fig. 5's
# degraded curve, ...) is pinned by the scenario's integration test instead.
#
# A command-only entry (``bench=False``) follows the benchmarked entry whose
# driver it calls.


@scenario(command="fig3", help="sine client load, reactive CPU provisioning")
def fig3_cpu_saturation(intervals: int = 72, seed: int = 7):
    from .cpu_saturation import CPUSaturationConfig, run_cpu_saturation

    return run_cpu_saturation(
        CPUSaturationConfig(intervals=intervals, seed=seed)
    )


fig3_cpu_saturation.projection(
    _attributes(
        "peak_replicas", "violations_before_recovery", "final_latency",
        "sla_met_at_end", "allocation_series",
    )
)


@fig3_cpu_saturation.rendering
def _(result) -> str:
    panels = [
        ("Figure 3(a) — clients", result.load_series, "clients"),
        ("Figure 3(b) — replicas", result.allocation_series, "replicas"),
        ("Figure 3(c) — mean latency (SLA 1 s)", result.latency_series, "latency"),
    ]
    return "\n\n".join(
        [
            *(
                format_series(
                    title,
                    [(t, float(value)) for t, value in series],
                    x_label="t (s)",
                    y_label=y_label,
                )
                for title, series, y_label in panels
            ),
            f"peak replicas: {result.peak_replicas}",
        ]
    )


@fig3_cpu_saturation.invariants
def check_fig3_cpu_saturation(a: dict) -> list[str]:
    """Fig. 3: allocation steps up with the sine and recedes with it."""
    allocations = [replicas for _, replicas in a["allocation_series"]]
    peak = max(allocations)
    return _broken(
        (a["peak_replicas"] >= 2,
         "the load peak never provisioned a second replica"),
        (min(allocations[allocations.index(peak):]) < peak,
         f"allocation never recedes after its peak of {peak} replicas"),
        (a["violations_before_recovery"] >= 1,
         "the ramp never violated the SLA: provisioning went unexercised"),
    )


@scenario(command="fig4", help="index drop: metric ratios, outliers, quota")
def fig4_index_drop(clients: int = 60, seed: int = 7):
    from .index_drop import IndexDropConfig, run_index_drop

    return run_index_drop(IndexDropConfig(clients=clients, seed=seed))


@fig4_index_drop.projection
def _(result) -> dict:
    quotas: dict[str, int] = {}
    for action in result.actions:
        quotas.update(action.quota_map())
    latencies_and_outliers = _attributes(
        "latency_before", "latency_violation", "latency_after", "outlier_contexts"
    )
    return {**latencies_and_outliers(result), "quotas": quotas}


@fig4_index_drop.rendering
def _(result) -> str:
    return "\n".join(
        [
            *(
                result.ratio_table(metric).render() + "\n"
                for metric in ("latency", "throughput", "misses", "readaheads")
            ),
            f"outlier contexts: {result.outlier_contexts}",
            f"latency: {result.latency_before:.2f} s -> "
            f"{result.latency_violation:.2f} s -> {result.latency_after:.2f} s",
            *(
                f"quota enforced: {context} = {pages} pages (paper: 3695)"
                for action in result.actions
                for context, pages in action.quota_map().items()
            ),
        ]
    )


@fig4_index_drop.invariants
def check_fig4_index_drop(a: dict) -> list[str]:
    """Fig. 4: the drop violates the SLA, outlier detection finds BestSeller
    and the bystander NewProducts, and a BestSeller quota is enforced."""
    quota = a["quotas"].get("tpcw/best_seller")
    return _broken(
        (a["latency_before"] < 1.0 < a["latency_violation"],
         "the index drop does not take an SLA-meeting baseline past the SLA"),
        *(
            (context in a["outlier_contexts"], f"{context} is not an outlier")
            for context in ("tpcw/best_seller", "tpcw/new_products")
        ),
        (quota is not None, "no quota was enforced for BestSeller"),
        (quota is None or 256 <= quota <= 7000,
         f"BestSeller quota of {quota} pages is not in 256..7000 (paper: 3695)"),
    )


def _mrc_artefact(result) -> dict:
    return {
        "context": result.context,
        "trace_length": result.trace_length,
        "total_memory": result.params.total_memory,
        "ideal_miss_ratio": result.params.ideal_miss_ratio,
        "acceptable_memory": result.params.acceptable_memory,
        "acceptable_miss_ratio": result.params.acceptable_miss_ratio,
    }


def _check_acceptable_memory(floor: int, a: dict) -> list[str]:
    return _broken(
        (floor <= a["acceptable_memory"] <= POOL_PAGES,
         f"acceptable memory left the paper's regime ({floor}..{POOL_PAGES})"),
    )


@scenario(command="fig5", help="BestSeller miss-ratio curve")
def fig5_mrc_bestseller(executions: int = 400, seed: int = 7):
    """The indexed curve, and the degraded one the command prints beside it."""
    from .mrc_curves import run_fig5_bestseller, run_fig5_bestseller_degraded

    return (
        run_fig5_bestseller(executions=executions, seed=seed),
        run_fig5_bestseller_degraded(
            executions=max(1, executions // 5), seed=seed
        ),
    )


@fig5_mrc_bestseller.projection
def _(result) -> dict:
    indexed, _degraded = result
    return _mrc_artefact(indexed)


@fig5_mrc_bestseller.rendering
def _(result) -> str:
    indexed, degraded = result
    return "\n".join(
        [
            indexed.to_table().render(),
            f"\nindexed plan:  acceptable {indexed.params.acceptable_memory} "
            "pages (paper: 6982)",
            f"degraded plan: acceptable {degraded.params.acceptable_memory} "
            f"pages; ideal miss ratio {degraded.params.ideal_miss_ratio:.2f} "
            "(flat curve — the quota search allots pool-minus-others, paper: "
            "3695)",
        ]
    )


# Fig. 5: a knee near 7000 pages (paper: 6982).
fig5_mrc_bestseller.invariants(partial(_check_acceptable_memory, 5000))


@scenario(command="fig6", help="SearchItemsByRegion miss-ratio curve")
def fig6_mrc_rubis(executions: int = 200, seed: int = 11):
    from .mrc_curves import run_fig6_search_items_by_region

    return run_fig6_search_items_by_region(executions=executions, seed=seed)


fig6_mrc_rubis.projection(_mrc_artefact)


@fig6_mrc_rubis.rendering
def _(result) -> str:
    return (
        f"{result.to_table().render()}\n\n"
        f"acceptable memory: {result.params.acceptable_memory} pages "
        "(paper: 7906 of an 8192-page pool)"
    )


# Fig. 6: the knee sits near the pool size (paper: 7906 of 8192).
fig6_mrc_rubis.invariants(partial(_check_acceptable_memory, 6500))


@scenario(command="table1", help="buffer-pool organisations: hit ratios")
def table1_buffer_partitioning(seed: int = 7):
    from .buffer_partitioning import (
        BufferPartitioningConfig,
        run_buffer_partitioning,
    )

    return run_buffer_partitioning(BufferPartitioningConfig(seed=seed))


@table1_buffer_partitioning.rendering
def _(result) -> str:
    return (
        f"{result.to_table().render()}\n\n"
        f"BestSeller quota: {result.quota_pages} pages (paper: 3695)\n"
        "paper: shared 95.5/96.2, partitioned 95.7/99.5, exclusive 96.1/99.9"
    )


@table1_buffer_partitioning.invariants
def check_table1_buffer_partitioning(a: dict) -> list[str]:
    """Table 1: partitioning leaves BestSeller essentially unaffected while
    the other classes recover nearly to their exclusive-pool ideal."""
    return _broken(
        (a["partitioned_rest"] > a["shared_rest"] + 0.05,
         "partitioning no longer lifts the non-BestSeller hit ratio"),
        (a["partitioned_rest"] > a["exclusive_rest"] - 0.05,
         "partitioned non-BestSeller hit ratio is far from the exclusive ideal"),
        (abs(a["partitioned_bestseller"] - a["shared_bestseller"]) < 0.10,
         "partitioning moved BestSeller's own hit ratio"),
        (256 <= a["quota_pages"] <= 6500,
         f"quota of {a['quota_pages']} pages is not in 256..6500 (paper: 3695)"),
    )


@scenario(
    command="table2", help="shared-pool memory contention (TPC-W + RUBiS)"
)
def table2_memory_contention(seed: int = 7):
    from .memory_contention import MemoryContentionConfig, run_memory_contention

    return run_memory_contention(MemoryContentionConfig(seed=seed))


table2_memory_contention.projection(_attributes("rows", "rescheduled_context"))


@table2_memory_contention.rendering
def _(result) -> str:
    return (
        f"{result.to_table().render()}\n\n"
        "paper: 0.54/8.73 -> 5.42/4.29 -> 1.27/6.44\n"
        f"rescheduled: {result.rescheduled_context}"
    )


@table2_memory_contention.invariants
def check_table2_memory_contention(a: dict) -> list[str]:
    """Table 2: co-locating RUBiS collapses TPC-W; moving the single
    SearchItemsByRegion class to another replica restores it."""
    baseline, contended, recovered = a["rows"]
    return _broken(
        (contended["latency"] > 5.0 * baseline["latency"],
         "co-location does not blow latency up fivefold (paper: tenfold)"),
        (contended["throughput"] < 0.75 * baseline["throughput"],
         "co-location does not cut throughput by a quarter (paper: halved)"),
        (recovered["latency"] < contended["latency"] / 2,
         "moving the class does not halve the contended latency"),
        (recovered["throughput"] > 0.8 * baseline["throughput"],
         "throughput after the move is below 80% of the baseline"),
        (a["rescheduled_context"] == "rubis/search_items_by_region",
         f"the wrong class was rescheduled: {a['rescheduled_context']}"),
    )


@scenario(command="table3", help="Xen dom0 I/O contention (two RUBiS domains)")
def table3_io_contention(clients: int = 150, seed: int = 11):
    from .io_contention import IOContentionConfig, run_io_contention

    return run_io_contention(
        IOContentionConfig(clients_per_instance=clients, seed=seed)
    )


table3_io_contention.projection(
    _attributes("rows", "heaviest_io_context", "heaviest_io_share")
)


@table3_io_contention.rendering
def _(result) -> str:
    return (
        f"{result.to_table().render()}\n\n"
        "paper: 1.5/97 -> 4.8/30 -> 1.5/95\n"
        f"heaviest I/O context: {result.heaviest_io_context} "
        f"({result.heaviest_io_share:.0%}; paper: 87%)"
    )


@table3_io_contention.invariants
def check_table3_io_contention(a: dict) -> list[str]:
    """Table 3: collapse under a shared dom0, recovery once the one class
    that issues most of the I/O moves (no whole-VM migration)."""
    baseline, contended, recovered = a["rows"]
    return _broken(
        (contended["latency"] > 2.0 * baseline["latency"],
         "the shared dom0 does not double latency (paper: 3.2x)"),
        (contended["throughput"] < baseline["throughput"],
         "the shared dom0 does not lower throughput"),
        (recovered["latency"] < 1.3 * baseline["latency"],
         "latency after removing the class is not back near the baseline"),
        (recovered["throughput"] > 0.9 * baseline["throughput"],
         "throughput after removing the class is below 90% of the baseline"),
        (str(a["heaviest_io_context"]).endswith("search_items_by_region"),
         f"the wrong class was named heaviest: {a['heaviest_io_context']}"),
        (a["heaviest_io_share"] > 0.7,
         "the heaviest class issues under 70% of the I/O (paper: 87%)"),
    )


@scenario(
    command="locks", help="lock-contention anomaly (the paper's future work)"
)
def lock_contention(clients: int = 50, seed: int = 7):
    from .lock_contention import LockContentionConfig, run_lock_contention

    return run_lock_contention(LockContentionConfig(clients=clients, seed=seed))


lock_contention.projection(
    _attributes(
        "latency_before", "latency_during", "baseline_lock_wait_share",
        "lock_wait_share", "reported_aggressor",
    )
)


@lock_contention.rendering
def _(result) -> str:
    lines = [
        result.to_table().render(),
        f"\nreported aggressor: {result.reported_aggressor}",
    ]
    if result.reports:
        lines.append(f"report: {result.reports[0].reason}")
    return "\n".join(lines)


@lock_contention.invariants
def check_lock_contention(a: dict) -> list[str]:
    """§7 future work: the violation is attributed to lock waits and the
    waits-for graph names the aggressor class."""
    return _broken(
        (a["latency_before"] < 1.0 < a["latency_during"],
         "the fault does not take an SLA-meeting baseline past the SLA"),
        (a["baseline_lock_wait_share"] < 0.05,
         "lock waits are not negligible before the fault"),
        (a["lock_wait_share"] > 0.5,
         "lock waits do not dominate application time during the fault"),
        (a["reported_aggressor"] == "tpcw/admin_update",
         f"the wrong aggressor was reported: {a['reported_aggressor']}"),
    )


@scenario()
def sweep_client_load() -> dict:
    from .sweeps import run_client_load_sweep

    return {"rows": run_client_load_sweep()}


@sweep_client_load.invariants
def check_sweep_client_load(a: dict) -> list[str]:
    """Fig. 4's violation is load-dependent: baselines always meet the SLA,
    and the incident appears somewhere in the sweep — at the latest at the
    paper-equivalent operating point (60 clients)."""
    from .sweeps import CLIENT_LOADS

    loads = [clients for clients, *_ in a["rows"]]
    incident_at = {clients: incident for clients, *_, incident in a["rows"]}
    slow = [clients for clients, before, *_ in a["rows"] if not before < 1.0]
    return _broken(
        (loads == list(CLIENT_LOADS),
         f"swept client loads {loads}, expected {list(CLIENT_LOADS)}"),
        (not slow, f"baseline already misses the SLA at {slow} clients"),
        (incident_at.get(60, False),
         "the index drop is no SLA incident at 60 clients"),
        (not all(incident_at.values()),
         "the index drop is an SLA incident at every load: no crossover"),
    )


@scenario()
def sweep_pool_size() -> dict:
    from .sweeps import run_pool_size_sweep

    return {"rows": run_pool_size_sweep()}


@sweep_pool_size.invariants
def check_sweep_pool_size(a: dict) -> list[str]:
    """Table 2's conclusion is a function of the pool size: a quota cannot
    co-locate SearchItemsByRegion with TPC-W at the paper's 8192 pages, a
    big enough pool can, and feasibility never flips back."""
    from .sweeps import POOL_SIZES

    pools = [pool for pool, *_ in a["rows"]]
    flags = [feasible for _, _, _, feasible, _ in a["rows"]]
    feasible_at = dict(zip(pools, flags))
    return _broken(
        (pools == list(POOL_SIZES),
         f"swept pool sizes {pools}, expected {list(POOL_SIZES)}"),
        (not feasible_at.get(POOL_PAGES, False),
         f"a quota became feasible at the paper's {POOL_PAGES}-page pool"),
        (feasible_at.get(max(POOL_SIZES), False),
         f"no quota is feasible even at {max(POOL_SIZES)} pages: no crossover"),
        (flags == sorted(flags),
         f"feasibility is not monotone in the pool size: {flags}"),
    )


@scenario()
def ablations() -> dict:
    from .ablations import (
        run_coarse_vs_fine,
        run_mrc_window_sensitivity,
        run_quota_vs_reschedule,
        run_routing_policies,
        run_topk_vs_outliers,
    )

    row = _attributes(
        "policy", "recovered_latency", "servers_used", "replicas_used",
        "mrc_recomputations",
    )

    def rows(outcomes):
        return [row(outcome) for outcome in outcomes]

    return {
        "quota_vs_reschedule": rows(run_quota_vs_reschedule()),
        "coarse_vs_fine": rows(run_coarse_vs_fine()),
        "topk_vs_outliers": rows(run_topk_vs_outliers()),
        "routing_policies": rows(run_routing_policies()),
        "mrc_window_sensitivity": {
            str(length): estimate
            for length, estimate in run_mrc_window_sensitivity().items()
        },
    }


@ablations.invariants
def check_ablations(a: dict) -> list[str]:
    """What each design decision of the selective-retuning pipeline buys."""
    quota, reschedule = a["quota_vs_reschedule"]
    fine, coarse = a["coarse_vs_fine"]
    guided, topk = a["topk_vs_outliers"]
    round_robin, least_loaded = a["routing_policies"]
    estimates = {
        int(length): pages
        for length, pages in a["mrc_window_sensitivity"].items()
    }
    shortest, longest = min(estimates), max(estimates)

    def recovers(outcome: dict, bound: float) -> tuple[bool, str]:
        return (outcome["recovered_latency"] < bound,
                f"{outcome['policy']} leaves latency above {bound} s")

    return _broken(
        # §3.3.2 trade-off: the quota matches rescheduling's victim recovery
        # at half the machine count.
        recovers(quota, 1.0),
        recovers(reschedule, 1.0),
        (quota["servers_used"] < reschedule["servers_used"],
         "the quota saves no machine over rescheduling"),
        # The coarse-only baseline needs more machines for the same incident.
        recovers(fine, 1.0),
        (fine["replicas_used"] <= coarse["replicas_used"],
         "fine-grained uses more replicas than coarse-only"),
        (fine["servers_used"] <= coarse["servers_used"],
         "fine-grained uses more servers than coarse-only"),
        # Outlier detection focuses the expensive MRC analysis: top-k reaches
        # a similar end state but recomputes more curves.
        recovers(guided, 1.2),
        recovers(topk, 1.2),
        (guided["mrc_recomputations"] <= topk["mrc_recomputations"],
         "outlier-guided recomputes more curves than top-k"),
        # Load-aware read routing drains traffic off a noisy-neighbour host.
        (least_loaded["recovered_latency"] < round_robin["recovered_latency"],
         "least-loaded routing does not beat round-robin beside a noisy host"),
        # Short windows are cold-dominated and underestimate memory needs;
        # long ones converge near the true working-set knee.
        (estimates[shortest] <= estimates[longest],
         f"the {shortest}-access window estimates more than the {longest} one"),
        (estimates[longest] >= 4000,
         f"the {longest}-access window estimates under 4000 pages"),
    )


@scenario()
def ablation_sampled_mrc() -> dict:
    from ..core.mrc import MissRatioCurve
    from ..core.mrc_sampling import sampled_mrc
    from ..workloads.tpcw import BEST_SELLER, build_tpcw
    from .mrc_curves import trace_of_class

    workload = build_tpcw(seed=7)
    trace = trace_of_class(workload.class_named(BEST_SELLER), executions=400)
    exact = MissRatioCurve.from_trace(trace).parameters(POOL_PAGES)
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
                "acceptable_memory": curve.parameters(
                    POOL_PAGES
                ).acceptable_memory,
            }
        )
    return {"trace_length": len(trace), "rows": rows}


@ablation_sampled_mrc.invariants
def check_ablation_sampled_mrc(a: dict) -> list[str]:
    """SHARDS-style sampling: every sampled estimate lands in the exact
    estimate's regime.  (That it is also faster is a wall-clock property:
    ``benchmarks/test_bench_mrc_kernel.py``.)"""
    exact, *sampled = a["rows"]
    return _broken(
        *(
            (abs(row["acceptable_memory"] - exact["acceptable_memory"])
             < 0.35 * POOL_PAGES,
             f"{row['method']} is over 35% of the pool away from exact")
            for row in sampled
        )
    )


@scenario()
def chaos_failover(seed: int = 7):
    from .chaos import ChaosConfig, run_chaos

    return run_chaos(ChaosConfig(seed=seed))


chaos_failover.projection(
    _attributes(
        "reroute_intervals", "quarantined_intervals",
        "violating_degraded_intervals", "actions_during_quarantine",
        "violations_during_outage", "sla_recovery_intervals",
        "pending_stale_dropped", "final_latency", "sla_met_at_end",
        "faults_injected", "unmatched_faults",
    )
)


@chaos_failover.invariants
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


def _faults_and_end(result) -> str:
    return (
        f"\nfaults injected: {result.faults_injected}\nfinal latency: "
        f"{result.final_latency:.3f} s (SLA {result.sla_latency:.1f} s, "
        f"met at end: {result.sla_met_at_end()})"
    )


@scenario(command="chaos", help="fault-injection storm: failover, quarantine, "
          "recovery", bench=False)
def chaos(intervals: int = 32, clients: int = 90, seed: int = 7):
    from .chaos import ChaosConfig, run_chaos

    return run_chaos(ChaosConfig(intervals=intervals, clients=clients, seed=seed))


chaos.projection(chaos_failover.project)


@chaos.rendering
def _(result) -> str:
    series = format_series(
        "Chaos — mean latency (crash at t=125, recovery at t=205)",
        result.latency_series, x_label="t (s)", y_label="latency",
    )
    reactions = _table("fault reactions", ["measure", "value"], [
        ("re-route intervals after crash", result.reroute_intervals),
        ("quarantined windows", result.quarantined_intervals),
        ("violating+degraded intervals", result.violating_degraded_intervals),
        ("actions during quarantine", result.actions_during_quarantine),
        ("SLA violations during outage", result.violations_during_outage),
        ("intervals to SLA recovery", result.sla_recovery_intervals),
        ("stale pending writes dropped", result.pending_stale_dropped),
    ])
    return f"{series}\n{reactions}\n{_faults_and_end(result)}"


@scenario(command="storm", help="seeded random fault storm, controller "
          "crashes included", bench=False)
def storm(seed: int = 7, events: int = 6, intervals: int = 32, clients: int = 90):
    """The same seed replays the same storm; the command prints its plan."""
    from .chaos import ChaosStormConfig, run_chaos_storm

    return run_chaos_storm(ChaosStormConfig(
        seed=seed, events=events, intervals=intervals, clients=clients
    ))


@storm.rendering
def _(result) -> str:
    plan = _table(
        f"storm plan (seed {result.seed}, {result.events} events)",
        ["t (s)", "fault", "target", "duration (s)"],
        [(f"{event.at:.1f}", event.kind.value, event.target,
          f"{event.duration:.1f}" if event.duration else "-")
         for event in result.plan.ordered()],
    )
    series = format_series(
        f"storm — mean latency (seed {result.seed})",
        result.latency_series, x_label="t (s)", y_label="latency",
    )
    outcome = _table("storm outcome", ["measure", "value"], [
        ("SLA violations", result.violations),
        ("controller crashes", result.controller_crashes),
        ("controller restarts", result.controller_restarts),
        ("interval closes missed", result.missed_intervals),
        ("final controller epoch", result.epoch_final),
        ("duplicate actions", result.duplicate_actions),
        ("unmatched faults", result.unmatched_faults),
    ])
    return f"{plan}\n\n{series}\n{outcome}\n{_faults_and_end(result)}"


@scenario()
def chaos_control_plane(seed: int = 7) -> dict:
    from .control_chaos import ControlChaosConfig, run_control_chaos

    result = run_control_chaos(ControlChaosConfig(seed=seed))
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
        "duplicate_applied": journal.duplicate_applied(),
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


@chaos_control_plane.invariants
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


@scenario()
def planner_sweep(seed: int = 7):
    from .planner_sweep import PlannerSweepConfig, run_planner_sweep

    return run_planner_sweep(PlannerSweepConfig(seed=seed))


@planner_sweep.invariants
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


@scenario(command="plan", help="capacity planner: print/validate/apply a "
          "cluster plan", bench=False)
def plan(
    seed: int = 7, planner_seed: int = 0, validate: bool = False,
    apply: bool = False,
):
    """``planner_sweep``'s plan at its contended planning point, replayed in
    a rebuilt harness (``validate``) and actuated on the scenario copy
    (``apply``): ``(plan, validation, actions, releases)``."""
    from .planner_sweep import (
        PlannerSweepConfig,
        plan_at_planning_point,
        validate_at_planning_point,
    )

    config = PlannerSweepConfig(seed=seed, planner_seed=planner_seed)
    searched, harness = plan_at_planning_point(config)
    validation = validate_at_planning_point(searched, config) if validate else None
    if not apply:
        return searched, validation, None, 0
    actions = harness.controller.apply_plan(searched, harness.clock.now)
    history = harness.controller.resource_manager.history
    releases = sum(event.action == "release" for event in history)
    return searched, validation, actions, releases


plan.projection(lambda result: result[0].to_jsonable())
plan.failing(lambda result: result[1] is not None and not result[1].ok)


@plan.rendering
def _(result) -> str:
    searched, validation, actions, releases = result
    lines = [searched.render(), f"\nplan digest: {searched.digest()}"]
    if validation is not None:
        lines += ["", validation.render()]
    if actions is not None:
        lines.append(f"\napplied {len(actions)} actions:")
        lines += [f"  {action.kind.value}: {action.reason}" for action in actions]
        lines += [f"  plus {releases} replica release(s)"] if releases else []
    return "\n".join(lines)


ZOO_QUALITY_FLOORS = {
    "diurnal": (1.0, 1.0),
    "flash_crowd": (0.55, 0.99),
    "noisy_neighbour": (0.2, 0.99),
}
"""Zoo scenario → (precision floor, recall floor), measured at seed 7.

``diurnal`` is the false-positive control (pure CPU saturation, no guilty
class): any class-level detection there is a regression.  The other
precision floors are deliberately low: they pin the detector's *measured*
false-positive behaviour (collateral outliers: the pool's heaviest tenants,
hurt by whoever pollutes it), not an aspirational one.  Raising a floor must
come from a detector improvement, not from relabelling."""


def _run_zoo(name: str, seed: int = 7) -> dict:
    from .zoo import run_zoo, zoo_artefact

    return zoo_artefact(run_zoo(name, seed=seed))


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


for _name in ZOO_SCENARIOS:
    _floors = ZOO_QUALITY_FLOORS.get(_name)
    SCENARIOS[f"zoo_{_name}"] = Scenario(
        f"zoo_{_name}",
        partial(_run_zoo, _name),
        check=partial(_check_zoo_quality, *_floors) if _floors else None,
    )


@scenario(command="zoo", help="workload zoo: anomaly scenarios, detection "
          "quality", bench=False)
def zoo(scenario: str | None = None, seed: int = 7):
    """Every zoo scenario, or the one named, scored against its labels."""
    from .zoo import run_zoo

    names = [scenario] if scenario else sorted(ZOO_SCENARIOS)
    return [run_zoo(name, seed=seed) for name in names]


@zoo.projection
def _(results) -> list[dict]:
    from .zoo import zoo_artefact

    return [zoo_artefact(result) for result in results]


@zoo.rendering
def _(results) -> str:
    return _table(
        f"workload zoo — detection quality (seed {results[0].scenario.seed})",
        ["scenario", "precision", "recall", "F1", "tp", "fp", "fn", "actions"],
        [(result.scenario.name, f"{quality.precision:.3f}",
          f"{quality.recall:.3f}", f"{quality.f1:.3f}", quality.true_positives,
          quality.false_positives, quality.false_negatives, len(result.actions))
         for result in results for quality in [result.quality]],
    )


@zoo.recording
def _(results) -> list[dict]:
    from ..analysis.quality import quality_records

    meta = {"record": "meta", "scenario": "zoo", "seed": results[0].scenario.seed,
            "runs": [result.scenario.name for result in results]}
    return [meta, *(
        record for result in results for record in quality_records(result.quality)
    )]


@scenario()
def forecast_eval(seed: int = 7):
    from .forecast_eval import ForecastEvalConfig, run_forecast_eval

    return run_forecast_eval(ForecastEvalConfig(seed=seed))


@forecast_eval.projection
def _forecast_artefact(result) -> dict:
    from .forecast_eval import forecast_eval_artefact

    return forecast_eval_artefact(result)


@forecast_eval.invariants
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
    for name, outcome in sorted(a["scenarios"].items()):
        acted = outcome["acted"]
        mutations = outcome["plans_applied"] + outcome["scale_outs"]
        checks += [
            (acted <= 2,
             f"{name}: {acted} act-aheads fired (max 2) — the policy is "
             "thrashing"),
            (mutations <= acted,
             f"{name}: {mutations} cluster mutations from {acted} act-aheads "
             "— an ungated action slipped past the policy"),
            (outcome["budget_remaining"] >= 1,
             f"{name}: false-positive budget exhausted — predictive "
             "enforcement silently degraded to reactive"),
        ]
    return _broken(*checks)


@scenario(command="forecast", help="predictive SLA enforcement: reactive vs "
          "forecast", bench=False)
def forecast(horizon: int = 2, margin: float = 0.9, seed: int = 7):
    from .forecast_eval import ForecastEvalConfig, run_forecast_eval

    return run_forecast_eval(
        ForecastEvalConfig(seed=seed, horizon=horizon, margin=margin)
    )


forecast.projection(_forecast_artefact)
forecast.failing(
    lambda result: result.validation is not None and not result.validation.ok
)


@forecast.rendering
def _(result) -> str:
    config, outcomes = result.config, result.outcomes
    table = _table(
        f"reactive vs predictive (horizon {config.horizon}, "
        f"margin {config.margin:g})",
        ["scenario", "reactive", "predictive", "avoided", "acted", "hits",
         "false alarms", "budget left"],
        [(outcome.name, outcome.score.violations_reactive,
          outcome.score.violations_predictive, outcome.score.intervals_avoided,
          outcome.score.acted, outcome.score.hits, outcome.score.false_alarms,
          outcome.stats.get("budget_remaining", 0)) for outcome in outcomes],
    )
    lines = [table, ""]
    for outcome in outcomes:
        lines += [f"{outcome.name:12s} reactive   {outcome.sla_reactive}",
                  f"{'':12s} predictive {outcome.sla_predictive}"]
    lines.append(
        f"\nSLA-violation intervals avoided: {result.total_intervals_avoided}"
    )
    if result.plan is not None:
        lines.append(f"planning-point plan: {len(result.plan.steps)} steps, "
                     f"digest {result.plan.digest()[:16]}")
    if result.validation is not None:
        # Rounded as in the artefact, so the line reads what --export writes.
        error = round(result.validation.max_relative_error, 6)
        lines.append(f"predicted vs simulated: max relative error {error:.4f} "
                     f"(ok: {result.validation.ok})")
    return "\n".join(lines)


@forecast.recording
def _(result) -> list[dict]:
    from ..forecast.score import forecast_records

    meta = {"record": "meta", "scenario": "forecast_eval",
            "seed": result.config.seed, "horizon": result.config.horizon}
    return [meta, *forecast_records(result.records())]


# --------------------------------------------------------------------- #
# Execution                                                             #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class BenchRun:
    """One scenario's outcome: its artefact metrics and wall-clock cost."""

    name: str
    artefact: dict
    seconds: float


def _timed_scenario(name: str) -> BenchRun:
    start = time.perf_counter()
    artefact = SCENARIOS[name].artefact()
    return BenchRun(name, artefact, time.perf_counter() - start)


def resolve_names(only: str | None = None) -> list[str]:
    """The scenario subset a ``--only a,b,c`` selector names (all when
    empty), in registry order, with unknown names rejected."""
    names = bench_names()
    if not only:
        return names
    wanted = [name.strip() for name in only.split(",") if name.strip()]
    unknown = sorted(set(wanted) - set(names))
    if unknown:
        raise KeyError(
            f"unknown benchmark scenario(s) {unknown}; known: {sorted(names)}"
        )
    return [name for name in names if name in wanted]


def run_bench(
    names: list[str] | None = None, workers: int | None = None
) -> list[BenchRun]:
    """Run the named scenarios (all by default); results in registry order.

    Timings are measured inside each worker around the scenario call, so a
    parallel run reports per-scenario costs, not wall-clock shares.
    """
    names = bench_names() if names is None else names
    return run_sweep(
        [
            SweepTask(name=f"bench/{name}", fn=_timed_scenario, args=(name,))
            for name in names
        ],
        workers=workers,
    )


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
    """Serialise one run's artefact as ``BENCH_<name>.json``; returns the
    path.  What the run cost is not recorded: it is a property of the
    machine, and a baseline must not move unless behaviour does."""
    path = baseline_path(directory, run.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": BASELINE_SCHEMA,
        "name": run.name,
        "artefact": run.artefact,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(directory: str | Path, name: str) -> dict | None:
    path = baseline_path(directory, name)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def orphan_baselines(directory: str | Path) -> list[str]:
    """``BENCH_*.json`` files in ``directory`` that no scenario owns: what a
    rename or a removal leaves behind, committed and never checked again."""
    owned = {baseline_path(directory, name) for name in bench_names()}
    return sorted(
        path.name
        for path in Path(directory).glob("BENCH_*.json")
        if path not in owned
    )


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


def compare_with_baseline(run: BenchRun, baseline: dict) -> list[str]:
    """Where ``run``'s artefact left the baseline's; empty when nowhere."""
    drift: list[str] = []
    _diff_artefact(baseline.get("artefact"), run.artefact, "", drift)
    return drift


# --------------------------------------------------------------------- #
# CLI driver (`repro bench`, and benchmarks/baseline.py through it)     #
# --------------------------------------------------------------------- #


def _int_at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}: {value}")
    return value


def positive_int(text: str) -> int:
    """argparse ``type=`` of every count-like flag: an integer ≥ 1."""
    return _int_at_least(1, text)


def non_negative_int(text: str) -> int:
    """argparse ``type=`` of every seed flag: an integer ≥ 0."""
    return _int_at_least(0, text)


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--parallel", type=positive_int, default=None,
                        metavar="N",
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
                             "non-zero on artefact drift, on a broken "
                             "invariant and (without --only) on a "
                             "committed baseline no scenario owns")
    parser.add_argument("--fresh-dir", type=str, default=None,
                        help="also write this run's BENCH_<name>.json here "
                             "(e.g. for upload as a CI artifact)")
    parser.add_argument("--list", action="store_true", dest="list_scenarios",
                        help="list the registered scenarios and exit")


def run_bench_command(args: argparse.Namespace) -> int:
    if getattr(args, "list_scenarios", False):
        print("Benchmark scenarios:")
        for name in bench_names():
            print(f"  {name}")
        return 0
    only = getattr(args, "only", None)
    try:
        names = resolve_names(only)
    except KeyError as error:
        print(f"repro bench: {error.args[0]}")
        return 2
    workers = getattr(args, "parallel", None)
    runs = run_bench(names, workers=workers)

    baseline_dir = Path(getattr(args, "baseline_dir", DEFAULT_BASELINE_DIR))
    check = bool(getattr(args, "check", False))
    table = Table(
        title=f"benchmark scenarios ({'parallel ' + str(workers) if workers and workers > 1 else 'serial'})",
        headers=["scenario", "seconds", "artefact", "invariants"],
    )
    failures: list[str] = []
    for run in runs:
        artefact_cell = invariant_cell = "-"
        predicate = SCENARIOS[run.name].check
        if check and predicate is not None:
            broken = predicate(run.artefact)
            invariant_cell = "BROKEN" if broken else "ok"
            failures.extend(f"{run.name}: invariant — {line}" for line in broken)
        if check:
            baseline = load_baseline(baseline_dir, run.name)
            if baseline is None:
                artefact_cell = "no baseline"
                failures.append(f"{run.name}: no committed baseline")
            else:
                drift = compare_with_baseline(run, baseline)
                artefact_cell = "DRIFT" if drift else "ok"
                if drift:
                    failures.append(
                        f"{run.name}: artefact drift — " + "; ".join(drift[:5])
                    )
        table.add_row(
            run.name, f"{run.seconds:.3f}", artefact_cell, invariant_cell
        )
    if check and not only:
        failures.extend(
            f"{stale}: committed baseline without a registered scenario "
            "(renamed or removed? delete the file)"
            for stale in orphan_baselines(baseline_dir)
        )
    print(table.render())
    print(f"\nartefact digest: {artefact_digest(runs)}")

    if getattr(args, "write_baselines", False):
        for run in runs:
            path = write_baseline(run, baseline_dir)
            print(f"baseline written: {path}")
    fresh_dir = getattr(args, "fresh_dir", None)
    if fresh_dir:
        for run in runs:
            write_baseline(run, fresh_dir)
        print(f"fresh baselines written under: {fresh_dir}")

    for failure in failures:
        print(f"FAILURE: {failure}")
    return 1 if failures else 0
