"""Stable-state signatures.

"A stable state record of average values for all metrics is made whenever
the SLA is continuously met for an application during a measurement
interval" (paper §1).  One signature is kept **per query context per
server**; it also carries the context's MRC, which is taken when the class
is first scheduled and refreshed only when diagnosis recomputes it.  The
signature holds the tracker's :class:`~repro.core.mrc.MRCEntry`, so its
parameters are analysed when first read (:meth:`SignatureStore.mrc_of`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import Metric, MetricVector
from .mrc import MRCEntry, MRCParameters

__all__ = ["StableStateSignature", "SignatureStore"]


@dataclass
class StableStateSignature:
    """Last-known-good metric averages (and MRC) of one context."""

    context_key: str
    metrics: MetricVector
    mrc: MRCEntry | None = None
    recorded_at: float = 0.0
    intervals_observed: int = 1

    def refresh(self, metrics: MetricVector, timestamp: float) -> None:
        """Overwrite the metric averages with a newer stable interval's."""
        if metrics.context_key != self.context_key:
            raise ValueError(
                f"signature for {self.context_key!r} cannot absorb metrics "
                f"of {metrics.context_key!r}"
            )
        self.metrics = metrics
        self.recorded_at = timestamp
        self.intervals_observed += 1


class SignatureStore:
    """All stable-state signatures of one server, keyed by query context."""

    def __init__(self, server: str) -> None:
        self.server = server
        self._signatures: dict[str, StableStateSignature] = {}

    def __len__(self) -> int:
        return len(self._signatures)

    def __contains__(self, context_key: str) -> bool:
        return context_key in self._signatures

    def record_stable(
        self, vectors: dict[str, MetricVector], timestamp: float
    ) -> None:
        """Absorb a stable interval: refresh (or create) every signature."""
        for context_key, vector in vectors.items():
            signature = self._signatures.get(context_key)
            if signature is None:
                self._signatures[context_key] = StableStateSignature(
                    context_key=context_key,
                    metrics=vector,
                    recorded_at=timestamp,
                )
            else:
                signature.refresh(vector, timestamp)

    def get(self, context_key: str) -> StableStateSignature | None:
        return self._signatures.get(context_key)

    def require(self, context_key: str) -> StableStateSignature:
        signature = self._signatures.get(context_key)
        if signature is None:
            raise KeyError(
                f"server {self.server!r} has no stable signature for "
                f"{context_key!r}"
            )
        return signature

    def set_mrc(self, context_key: str, entry: MRCEntry) -> None:
        """Attach an MRC to a context's signature, pending or not.

        Contexts can acquire an MRC before their first stable interval (the
        MRC is determined when a class is first scheduled); a placeholder
        signature with empty metrics is created in that case.
        """
        signature = self._signatures.get(context_key)
        if signature is None:
            signature = StableStateSignature(
                context_key=context_key,
                metrics=MetricVector(context_key=context_key, values={}),
            )
            self._signatures[context_key] = signature
        signature.mrc = entry

    def mrc_of(self, context_key: str) -> MRCParameters | None:
        """The context's MRC parameters, analysing a pending curve first."""
        signature = self._signatures.get(context_key)
        if signature is None or signature.mrc is None:
            return None
        return signature.mrc.parameters

    def stable_vectors(self) -> dict[str, MetricVector]:
        """Context -> stable metric vector, for contexts that have one."""
        return {
            key: sig.metrics
            for key, sig in self._signatures.items()
            if sig.metrics.values
        }

    def contexts(self) -> list[str]:
        return sorted(self._signatures)

    def drop(self, context_key: str) -> None:
        self._signatures.pop(context_key, None)
