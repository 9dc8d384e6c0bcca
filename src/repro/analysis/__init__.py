"""Result analysis helpers: tables, series, latency, traces, export."""

from .export import export_result, to_jsonable
from .incidents import Incident, extract_incidents, render_incident_report
from .latency import LatencyAggregate, summarize_latencies
from .quality import (
    DetectionEvent,
    QualityReport,
    quality_records,
    score_detections,
)
from .report import Table, format_series, format_table
from .tracefile import load_traces, save_traces, trace_summary
from .traceload import (
    ClassModel,
    CompressionReport,
    FittedPattern,
    compress_trace,
    fit_class_model,
    pages_by_class,
    read_csv_trace,
    replay_model,
    validate_compression,
)

__all__ = [
    "ClassModel",
    "CompressionReport",
    "DetectionEvent",
    "FittedPattern",
    "Incident",
    "LatencyAggregate",
    "QualityReport",
    "Table",
    "compress_trace",
    "export_result",
    "extract_incidents",
    "render_incident_report",
    "fit_class_model",
    "format_series",
    "format_table",
    "load_traces",
    "pages_by_class",
    "quality_records",
    "read_csv_trace",
    "replay_model",
    "save_traces",
    "score_detections",
    "summarize_latencies",
    "to_jsonable",
    "trace_summary",
    "validate_compression",
]
