"""The zoo's determinism probe: a scenario's mixes and patterns sampled into
a flat access trace, and its SHA-256.  Two scenarios built from the same
seed must give byte-identical probes (``test_zoo``, ``test_prop_zoo``)."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.sim.rng import SeedSequenceFactory
from repro.workloads.zoo import ZooScenario

__all__ = ["probe_trace", "probe_digest"]


def probe_trace(
    scenario: ZooScenario, samples: int = 300
) -> tuple[list[str], np.ndarray]:
    """Sample the scenario's mixes and patterns into a flat access trace.

    Draws ``samples`` queries from every workload's mix (via a probe stream
    derived from the scenario seed) and concatenates the page accesses each
    execution produces.  A probe consumes pattern state, so build a fresh
    scenario per probe rather than probing one scenario twice.
    """
    stream = SeedSequenceFactory(scenario.seed).stream(
        f"zoo-probe-{scenario.name}"
    )
    classes: list[str] = []
    pages: list[int] = []
    for workload in scenario.workloads:
        for _ in range(samples):
            query_class = workload.sample_class(stream)
            access = query_class.execute_pages()
            classes.append(query_class.context_key)
            pages.extend(access.demand)
            pages.extend(access.prefetch)
    return classes, np.asarray(pages, dtype=np.int64)


def probe_digest(scenario: ZooScenario, samples: int = 300) -> str:
    """SHA-256 over the probe trace — the byte-identity fingerprint."""
    classes, pages = probe_trace(scenario, samples=samples)
    digest = hashlib.sha256()
    digest.update("\n".join(classes).encode())
    digest.update(pages.tobytes())
    return digest.hexdigest()
