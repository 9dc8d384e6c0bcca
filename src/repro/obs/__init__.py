"""Observability substrate: metrics registry + span tracing.

The paper's contribution is instrumentation-driven control, and this package
turns the reproduction's *own* control loop into an observable system: a
:class:`MetricRegistry` of counters/gauges/histograms keyed by name + labels,
and a sim-clock-aware :class:`Tracer` producing nested spans across the
retuning pipeline (``controller.interval`` → ``analyzer.drain`` →
``diagnosis.run`` → ``mrc.recompute`` → ``actions.apply``).

Design constraints:

* **zero overhead when disabled** — every instrumented component defaults to
  :data:`NULL_OBS`, whose registry and tracer are shared no-op singletons, so
  the hot paths never branch on an "is telemetry on?" flag;
* **deterministic** — spans are stamped with *simulated* time and carry
  deterministic work-unit costs; no wall-clock value ever reaches the
  telemetry, so two identically-seeded runs export byte-identical JSONL and
  telemetry itself becomes a regression-testable artefact.
"""

from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NULL_REGISTRY,
    NullRegistry,
)
from .tracer import NULL_TRACER, NullTracer, Span, Tracer
from .provider import NULL_OBS, Observability
from .export import (
    read_records,
    record_lines,
    telemetry_lines,
    telemetry_records,
    write_records,
    write_telemetry,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "Observability",
    "Span",
    "Tracer",
    "read_records",
    "record_lines",
    "telemetry_lines",
    "telemetry_records",
    "write_records",
    "write_telemetry",
]
