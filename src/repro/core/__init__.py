"""The paper's contribution: statistics, outlier detection, MRC, retuning."""

from .advisor import (
    ClassPrediction,
    ClusterAssessment,
    PlanAssessment,
    PoolAssignment,
    assess_cluster,
    assess_plan,
    assess_pool,
    predict_miss_ratios,
    predict_pool_miss_ratios,
    shared_partition_pages,
)
from .analyzer import DecisionManager, LogAnalyzer
from .controller import AppIntervalReport, ClusterController, ControllerConfig
from .diagnosis import (
    Action,
    ActionKind,
    Diagnosis,
    DiagnosisConfig,
    ReplicaView,
    diagnose,
)
from .metrics import MEMORY_METRICS, Metric, MetricVector, vector_from_stats
from .mrc_sampling import SamplingStats, sample_trace, sampled_mrc
from .mrc import (
    DEFAULT_ACCEPTABLE_THRESHOLD,
    MissRatioCurve,
    MRCParameters,
    stack_distances,
)
from .outliers import (
    Fences,
    OutlierPoint,
    OutlierReport,
    Severity,
    compute_impact_values,
    compute_weights,
    detect_outliers,
    iqr_fences,
    top_k_heavyweight,
)
from .quota import QuotaPlan, find_quotas, placement_fits_totals

__all__ = [
    "Action",
    "ClassPrediction",
    "ClusterAssessment",
    "PlanAssessment",
    "PoolAssignment",
    "ActionKind",
    "AppIntervalReport",
    "ClusterController",
    "ControllerConfig",
    "DEFAULT_ACCEPTABLE_THRESHOLD",
    "DecisionManager",
    "Diagnosis",
    "DiagnosisConfig",
    "Fences",
    "LogAnalyzer",
    "MEMORY_METRICS",
    "Metric",
    "MetricVector",
    "MissRatioCurve",
    "MRCParameters",
    "OutlierPoint",
    "OutlierReport",
    "QuotaPlan",
    "ReplicaView",
    "Severity",
    "SamplingStats",
    "compute_impact_values",
    "compute_weights",
    "detect_outliers",
    "diagnose",
    "find_quotas",
    "iqr_fences",
    "placement_fits_totals",
    "assess_cluster",
    "assess_plan",
    "assess_pool",
    "predict_miss_ratios",
    "predict_pool_miss_ratios",
    "shared_partition_pages",
    "sample_trace",
    "sampled_mrc",
    "stack_distances",
    "top_k_heavyweight",
    "vector_from_stats",
]
