"""The observability handle instrumented components share.

One :class:`Observability` bundles a metric registry and a tracer; the
controller hands its handle down to everything it wires (schedulers,
decision managers, log analyzers, MRC stores), so a single object enables
telemetry for an entire cluster.  The default is :data:`NULL_OBS`, whose
parts are shared no-op singletons — instrumented call sites pay one
attribute lookup and an empty method call, nothing more.
"""

from __future__ import annotations

from .registry import MetricRegistry, NULL_REGISTRY
from .tracer import Tracer, NULL_TRACER

__all__ = ["Observability", "NULL_OBS"]


class Observability:
    """A registry + tracer pair, enabled by construction."""

    def __init__(
        self,
        registry: MetricRegistry | None = None,
        tracer: Tracer | None = None,
        clock=None,
        enabled: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = tracer if tracer is not None else Tracer(clock)
        self.enabled = enabled

    def bind_clock(self, clock) -> None:
        """Point the tracer at the simulation clock driving the run."""
        if self.enabled:  # never mutate the shared no-op singletons
            self.tracer.bind_clock(clock)


NULL_OBS = Observability(
    registry=NULL_REGISTRY, tracer=NULL_TRACER, enabled=False
)
"""The zero-overhead default every instrumented component starts with."""
