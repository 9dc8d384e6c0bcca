"""Digest-verified checkpoints of the control plane's decision state.

A checkpoint is one canonical-JSON payload plus its SHA-256 digest, taken
periodically on the simulated clock.  The store keeps a small ring of
recent checkpoints: restore walks from the newest backwards, verifying
each digest, and skips anything corrupt — the ``checkpoint_corruption``
fault flips bytes in the latest payload exactly to exercise this fallback
(restore lands on the previous good checkpoint, or cold-starts when none
survives).

Payloads are serialized *without* key sorting: Python dicts preserve
insertion order through a JSON round-trip, and analyzer state is
order-sensitive (signature and vector iteration order feeds downstream
dict-ordered code paths).  Determinism comes from the state itself being
deterministic, not from canonicalising the bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

__all__ = ["Checkpoint", "CheckpointStore"]


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class Checkpoint:
    """One snapshot: metadata plus the serialized state and its digest."""

    seq: int
    interval_index: int
    epoch: int
    timestamp: float
    journal_seq: int
    """Length of the action journal when the snapshot was taken; restart
    replays journal entries from this sequence number onwards."""
    payload: str
    digest: str

    @property
    def valid(self) -> bool:
        return _digest(self.payload) == self.digest


class CheckpointStore:
    """A bounded ring of digest-verified checkpoints."""

    def __init__(self, max_checkpoints: int = 4) -> None:
        if max_checkpoints < 1:
            raise ValueError(
                f"checkpoint ring needs at least one slot: {max_checkpoints}"
            )
        self.max_checkpoints = max_checkpoints
        self.checkpoints: list[Checkpoint] = []
        self.taken = 0
        self.corrupt_skipped = 0

    def save(
        self,
        state: dict,
        interval_index: int,
        epoch: int,
        timestamp: float,
        journal_seq: int,
    ) -> Checkpoint:
        payload = json.dumps(state, separators=(",", ":"))
        checkpoint = Checkpoint(
            seq=self.taken,
            interval_index=interval_index,
            epoch=epoch,
            timestamp=timestamp,
            journal_seq=journal_seq,
            payload=payload,
            digest=_digest(payload),
        )
        self.taken += 1
        self.checkpoints.append(checkpoint)
        if len(self.checkpoints) > self.max_checkpoints:
            del self.checkpoints[0]
        return checkpoint

    def latest(self) -> Checkpoint | None:
        return self.checkpoints[-1] if self.checkpoints else None

    def latest_valid(self) -> tuple[Checkpoint, dict] | None:
        """Newest checkpoint whose digest verifies, parsed; ``None`` if the
        whole ring is corrupt or empty.  Corrupt candidates are counted in
        ``corrupt_skipped`` (and left in place as forensic evidence)."""
        for checkpoint in reversed(self.checkpoints):
            if not checkpoint.valid:
                self.corrupt_skipped += 1
                continue
            return checkpoint, json.loads(checkpoint.payload)
        return None

    def corrupt_latest(self) -> bool:
        """Flip bytes in the newest payload (the corruption fault hook).

        The digest is left untouched, so the mismatch is detectable —
        modelling storage corruption underneath an honest checksum.
        Returns ``False`` when there is nothing to corrupt.
        """
        checkpoint = self.latest()
        if checkpoint is None:
            return False
        checkpoint.payload = checkpoint.payload[:-8] + "#corrupt"
        return True
