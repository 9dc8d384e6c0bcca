"""Result analysis helpers: tables, series, traces, export."""

from .export import export_result, to_jsonable
from .quality import (
    DetectionEvent,
    QualityReport,
    quality_records,
    score_detections,
)
from .report import Table, format_series, format_table
from .tracefile import load_traces, save_traces, trace_summary

__all__ = [
    "DetectionEvent",
    "QualityReport",
    "Table",
    "export_result",
    "format_series",
    "format_table",
    "load_traces",
    "quality_records",
    "save_traces",
    "score_detections",
    "to_jsonable",
    "trace_summary",
]
