"""The append-only action journal: every decision, written before it acts.

The journal is the controller's write-ahead log.  For each action the
controller records an ``intent`` entry *before* actuating and an
``applied`` entry after (carrying whether anything actually changed);
actions rejected by the epoch fence are recorded as ``fenced``; crash,
checkpoint and restart markers land as ``control`` entries.  On restart
the supervisor replays the suffix of the journal past the restored
checkpoint to rebuild the controller's action-grace bookkeeping, and the
reconcile pass folds the applied entries into the placement/quota intent
it diffs against the live cluster.

The journal emits no observability: journaling is part of the recovery
subsystem's zero-byte default contract (a run that never crashes must
export telemetry byte-identical to one without the journal installed).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["JournalRecord", "ActionJournal", "journal_records"]

INTENT = "intent"
APPLIED = "applied"
FENCED = "fenced"
CONTROL = "control"

_PAYLOAD = ("app", "replica", "context_key", "quotas", "server", "target")
"""The :class:`Action` fields a record copies (beside ``kind``)."""


@dataclass(frozen=True)
class JournalRecord:
    """One journal entry (plain data; :func:`journal_records` exports it)."""

    seq: int
    kind: str  # intent | applied | fenced | control
    epoch: int
    interval_index: int
    timestamp: float
    action_kind: str | None = None
    app: str | None = None
    replica: str | None = None
    context_key: str | None = None
    quotas: tuple[tuple[str, int | None], ...] = ()
    server: str | None = None
    target: str | None = None
    applied: bool | None = None
    note: str = ""

    def payload_key(self) -> tuple:
        """What makes two actions "the same action" for duplicate checks."""
        return (self.action_kind, *(getattr(self, name) for name in _PAYLOAD))


@dataclass
class ActionJournal:
    """Append-only record of everything the controller decided."""

    records: list[JournalRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------ #
    # Appending                                                          #
    # ------------------------------------------------------------------ #

    def _append(self, kind: str, action, epoch: int, interval_index: int,
                timestamp: float, applied: bool | None = None,
                note: str = "") -> JournalRecord:
        payload = {} if action is None else {
            "action_kind": action.kind.value,
            **{name: getattr(action, name) for name in _PAYLOAD},
        }
        record = JournalRecord(
            seq=len(self.records),
            kind=kind,
            epoch=epoch,
            interval_index=interval_index,
            timestamp=timestamp,
            applied=applied,
            note=note,
            **payload,
        )
        self.records.append(record)
        return record

    def record_intent(self, action, epoch: int, interval_index: int,
                      timestamp: float) -> JournalRecord:
        """Write-ahead entry: the controller is *about to* actuate."""
        return self._append(INTENT, action, epoch, interval_index, timestamp)

    def record_applied(self, action, epoch: int, interval_index: int,
                       timestamp: float, applied: bool) -> JournalRecord:
        """Post-actuation entry; ``applied`` is whether anything changed."""
        return self._append(
            APPLIED, action, epoch, interval_index, timestamp, applied=applied
        )

    def record_fenced(self, action, epoch: int, interval_index: int,
                      timestamp: float) -> JournalRecord:
        """An action rejected by the epoch fence (stale incarnation)."""
        return self._append(FENCED, action, epoch, interval_index, timestamp)

    def record_control(self, note: str, epoch: int, interval_index: int,
                       timestamp: float) -> JournalRecord:
        """A lifecycle marker: checkpoint, crash, restart, reconcile, and
        ``plan-begin:<app>`` / ``plan-end:<app>`` around one plan's steps."""
        return self._append(
            CONTROL, None, epoch, interval_index, timestamp, note=note
        )

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def entries(self, kind: str | None = None) -> list[JournalRecord]:
        if kind is None:
            return list(self.records)
        return [record for record in self.records if record.kind == kind]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for record in self.records:
            out[record.kind] = out.get(record.kind, 0) + 1
        return dict(sorted(out.items()))

    def applied_after(self, seq: int) -> list[JournalRecord]:
        """Applied entries with sequence number strictly beyond ``seq``."""
        return [
            record
            for record in self.records
            if record.kind == APPLIED and record.seq > seq
        ]

    def plans(self) -> list[tuple[str, list[JournalRecord], bool]]:
        """Every journaled plan: the app it was searched for (whose grace it
        starts; a step's own record names the app it *touches*), its
        ``applied`` entries, and whether its ``plan-end`` marker was the
        next marker after ``plan-begin`` (if not, a crash cut it short)."""
        found: list[list] = []
        for record in self.records:
            running = found[-1] if found and found[-1][2] is None else None
            if record.kind == APPLIED and running:
                running[1].append(record)
            elif record.kind == CONTROL:
                if running:
                    running[2] = record.note == f"plan-end:{running[0]}"
                if record.note.startswith("plan-begin:"):
                    found.append([record.note.partition(":")[2], [], None])
        return [(app, steps, bool(done)) for app, steps, done in found]

    def open_intents(self) -> list[JournalRecord]:
        """Intents the crashed incarnation never confirmed as applied.

        An intent is *open* when no later ``applied`` entry with the same
        payload exists — the crash landed between the write-ahead entry and
        the actuation (or between the actuation and its confirmation).
        Open intents are exactly what reconcile must treat as "may or may
        not have happened": they are never blindly re-issued.
        """
        return [
            record
            for record in self.records
            if record.kind == INTENT
            and not any(
                later.kind == APPLIED
                and later.seq > record.seq
                and later.payload_key() == record.payload_key()
                for later in self.records
            )
        ]

    def duplicate_applied(self) -> list[tuple]:
        """Payload keys actuated (``applied=True``) more than once.

        The duplicate-suppression contract of recovery: replay and
        reconcile must never re-actuate an action whose effect already
        happened.  (A payload *rejected* by the thrash guard — ``applied``
        False — is not an actuation and does not count.)
        """
        seen: dict[tuple, int] = {}
        for record in self.records:
            if record.kind == APPLIED and record.applied:
                key = record.payload_key()
                seen[key] = seen.get(key, 0) + 1
        return [key for key, count in seen.items() if count > 1]


def journal_records(journal: ActionJournal) -> list[dict]:
    """The journal as ``{"record": "journal", ...}`` dicts, in ``seq`` order."""
    return [
        {
            "record": "journal",
            **asdict(record),
            "quotas": [list(quota) for quota in record.quotas],
        }
        for record in journal.records
    ]
