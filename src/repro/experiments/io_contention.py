"""§5.5 / Table 3: I/O contention among Xen VM domains.

Two independent RUBiS instances (separate data, separate applications) run
in two VM domains on one Xen host.  VMs isolate CPU and memory, but *all*
guest I/O funnels through the shared dom0 channel: with both instances
active the channel saturates, throughput collapses (97 → 30 WIPS in the
paper) and latency more than triples (1.5 → 4.8 s).

The diagnosis identifies dom0 saturation and applies the paper's §3.3.3
heuristic: remove query contexts from the host in decreasing order of their
I/O rate.  SearchItemsByRegion contributes the large majority of RUBiS's
I/O (87 % in the paper), so moving that single class off the host restores
near-baseline performance — a far finer-grained reaction than migrating an
entire VM.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.replica import Replica
from ..cluster.resource_manager import ResourceManager
from ..cluster.scheduler import Scheduler
from ..cluster.server import PhysicalServer, ServerSpec
from ..cluster.vm import XenHost
from ..core.controller import ClusterController, ControllerConfig
from ..core.diagnosis import ActionKind
from ..core.metrics import Metric
from ..workloads.rubis import build_rubis
from .index_drop import CPU_SCALE, EXPERIMENT_COST_MODEL, scale_cpu_costs
from .results import IOContentionResult, PlacementRow
from .runner import ClusterHarness

__all__ = ["IOContentionConfig", "run_io_contention", "build_two_domain_harness"]


@dataclass(frozen=True)
class IOContentionConfig:
    """Tunables of the scenario."""

    clients_per_instance: int = 90
    baseline_intervals: int = 10
    contention_intervals: int = 12
    recovery_intervals: int = 8
    pool_pages: int = 8192
    sla_latency: float = 1.0
    seed: int = 11
    dom0_overhead: float = 0.75


def build_two_domain_harness(config: IOContentionConfig) -> ClusterHarness:
    """One Xen host with two RUBiS domains, plus spare bare-metal servers."""
    manager = ResourceManager(cost_model=EXPERIMENT_COST_MODEL)
    for index in range(2):
        manager.add_server(PhysicalServer(f"server-spare-{index + 1}"))
    xen_server = PhysicalServer("xen-host", spec=ServerSpec(cores=8))
    host = XenHost(xen_server, dom0_overhead=config.dom0_overhead)
    vm1 = host.create_vm("domain-1", vcpus=4, memory_pages=16384)
    vm2 = host.create_vm("domain-2", vcpus=4, memory_pages=16384)

    controller = ClusterController(
        manager, config=ControllerConfig(fallback_patience=5)
    )
    harness = ClusterHarness(controller)
    controller.register_host(host)

    for app_index, vm in ((1, vm1), (2, vm2)):
        workload = build_rubis(
            seed=config.seed + app_index,
            page_base=app_index * 2_000_000,
            app=f"rubis{app_index}",
        )
        scale_cpu_costs(workload, CPU_SCALE)
        scheduler = Scheduler(
            workload.app,
            sla_latency=config.sla_latency,
            interval_length=controller.config.interval_length,
        )
        controller.add_scheduler(scheduler)
        replica = Replica.create(
            name=f"{workload.app}-r1",
            app=workload.app,
            host=vm,
            pool_pages=config.pool_pages,
            cost_model=EXPERIMENT_COST_MODEL,
        )
        scheduler.add_replica(replica)
        controller.track_replica(replica)
        harness.attach_workload(workload, clients=0)
    return harness


def run_io_contention(config: IOContentionConfig | None = None) -> IOContentionResult:
    """Run the Table 3 scenario end to end."""
    config = config if config is not None else IOContentionConfig()
    harness = build_two_domain_harness(config)
    result = IOContentionResult()
    from ..workloads.load import ConstantLoad

    # Phase A: RUBiS-1 alone; domain-2 idle.
    harness.drivers["rubis1"].load = ConstantLoad(config.clients_per_instance)
    baseline = harness.run(intervals=config.baseline_intervals)
    result.rows.append(
        PlacementRow(
            placement="RUBiS / IDLE",
            latency=baseline.steady_mean_latency("rubis1"),
            throughput=baseline.steady_throughput("rubis1"),
        )
    )

    # Phase B: RUBiS-2 starts in domain-2; dom0 saturates.
    harness.drivers["rubis2"].load = ConstantLoad(config.clients_per_instance)
    contention_latency = 0.0
    contention_throughput = 0.0
    removal_seen = False
    for _ in range(config.contention_intervals):
        step = harness.run(intervals=1)
        report = step.final_report("rubis1")
        if not removal_seen:
            if report.mean_latency >= contention_latency:
                contention_latency = report.mean_latency
                contention_throughput = report.throughput
            if not report.sla_met and result.heaviest_io_context is None:
                # Capture the I/O breakdown while the contention is live.
                context, share = _io_share(harness)
                result.heaviest_io_context = context
                result.heaviest_io_share = share
        for app in ("rubis1", "rubis2"):
            for action in step.final_report(app).actions:
                result.actions.append(action)
                if action.kind in (
                    ActionKind.REMOVE_CLASS_FOR_IO,
                    ActionKind.RESCHEDULE_CLASS,
                ):
                    removal_seen = True
        if removal_seen:
            break
    result.rows.append(
        PlacementRow(
            placement="RUBiS / RUBiS (shared dom0)",
            latency=contention_latency,
            throughput=contention_throughput,
        )
    )
    if result.heaviest_io_context is None:
        result.heaviest_io_context, result.heaviest_io_share = _io_share(harness)

    # Phase C: after removing the heaviest-I/O class from the host.
    recovery = harness.run(intervals=config.recovery_intervals)
    result.rows.append(
        PlacementRow(
            placement="RUBiS / RUBiS w/o SearchItemsByRegion",
            latency=recovery.steady_mean_latency("rubis1"),
            throughput=recovery.steady_throughput("rubis1"),
        )
    )
    return result


def _io_share(harness: ClusterHarness) -> tuple[str | None, float]:
    """The context with the highest share of one instance's I/O requests."""
    replica = harness.replicas_of("rubis2")[0]
    analyzer = harness.controller.analyzer_of(replica)
    vectors = analyzer.current_vectors("rubis2")
    if not vectors:
        replica = harness.replicas_of("rubis1")[0]
        analyzer = harness.controller.analyzer_of(replica)
        vectors = analyzer.current_vectors("rubis1")
    total = sum(v.get(Metric.IO_BLOCK_REQUESTS) for v in vectors.values())
    if total <= 0:
        return (None, 0.0)
    top_key, top_vector = max(
        vectors.items(), key=lambda item: item[1].get(Metric.IO_BLOCK_REQUESTS)
    )
    return (top_key, top_vector.get(Metric.IO_BLOCK_REQUESTS) / total)
