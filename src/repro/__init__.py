"""repro — Outlier Detection for Fine-grained Load Balancing in Database Clusters.

A from-scratch Python reproduction of Chen, Soundararajan, Mihailescu and
Amza (ICDE 2007).  The package layers:

* :mod:`repro.sim` — deterministic simulation kernel,
* :mod:`repro.engine` — buffer-pool-centric storage-engine simulator,
* :mod:`repro.cluster` — replicated cluster: servers, VMs, schedulers,
* :mod:`repro.workloads` — synthetic TPC-W and RUBiS,
* :mod:`repro.core` — the paper's contribution: per-query-class statistics,
  stable-state signatures, IQR outlier detection, miss-ratio-curve tracking,
  quota search and the selective-retuning controller,
* :mod:`repro.experiments` — drivers regenerating every table and figure.

Quickstart::

    from repro import build_tpcw, ClusterHarness

    harness = ClusterHarness.single_app(build_tpcw(), servers=4, clients=40)
    result = harness.run(intervals=12)
    print(result.timeline[-1].mean_latency)
"""

from .cluster import (
    PhysicalServer,
    Replica,
    ResourceManager,
    Scheduler,
    ServerSpec,
    VirtualMachine,
    XenHost,
)
from .core import (
    ClusterController,
    ControllerConfig,
    Metric,
    MetricVector,
    MissRatioCurve,
    MRCParameters,
    OutlierReport,
    Severity,
    detect_outliers,
    find_quotas,
    stack_distances,
)
from .engine import (
    DatabaseEngine,
    EngineConfig,
    LRUBufferPool,
    PartitionedBufferPool,
    QueryClass,
)
from .experiments.runner import ClusterHarness, HarnessResult, quickstart_scenario
from .obs import MetricRegistry, Observability, Tracer
from .workloads import (
    BEST_SELLER,
    NEW_PRODUCTS,
    O_DATE_INDEX,
    RUBIS_APP,
    SEARCH_ITEMS_BY_REGION,
    TPCW_APP,
    ClosedLoopDriver,
    ConstantLoad,
    SineLoad,
    Workload,
    build_rubis,
    build_tpcw,
)

__version__ = "1.0.0"

__all__ = [
    "BEST_SELLER",
    "ClosedLoopDriver",
    "ClusterController",
    "ClusterHarness",
    "ConstantLoad",
    "ControllerConfig",
    "DatabaseEngine",
    "EngineConfig",
    "HarnessResult",
    "LRUBufferPool",
    "MRCParameters",
    "Metric",
    "MetricRegistry",
    "MetricVector",
    "MissRatioCurve",
    "NEW_PRODUCTS",
    "O_DATE_INDEX",
    "Observability",
    "OutlierReport",
    "PartitionedBufferPool",
    "PhysicalServer",
    "QueryClass",
    "RUBIS_APP",
    "Replica",
    "ResourceManager",
    "SEARCH_ITEMS_BY_REGION",
    "Scheduler",
    "ServerSpec",
    "Severity",
    "SineLoad",
    "TPCW_APP",
    "Tracer",
    "VirtualMachine",
    "Workload",
    "XenHost",
    "__version__",
    "build_rubis",
    "build_tpcw",
    "detect_outliers",
    "find_quotas",
    "quickstart_scenario",
    "stack_distances",
]
