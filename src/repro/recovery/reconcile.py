"""Reconcile-on-restart: diff journaled intent against the live cluster.

A restarted controller must not blindly re-issue what the journal says it
did — most of it already happened and still holds, and re-actuating a
buffer-pool quota cold-restarts the partition it protects.  Instead the
reconcile pass folds the journal's *applied* entries (in sequence order,
later entries overriding earlier ones) into the final intended quotas and
placements, compares each against what the cluster actually has, and
repairs only genuine divergence:

* a quota the journal actuated but the engine no longer carries (or
  carries at a different size) is re-imposed at the journaled value
  (``None`` pages: cleared again);
* a class the journal pinned that routing no longer pins is re-isolated:
  onto the replica a plan step named, else through the controller's
  normal rescheduling path, away from the contended host;
* provisioning, releases and lock-contention reports are durable or
  report-only — the replica physically exists (or is gone), the report was
  already made — so they are confirmed without touching anything;
* a **plan cut short** (``plan-begin`` marker, no ``plan-end``) keeps the
  steps that landed, folded as above, and is *not resumed*: like an open
  intent, the rest of it stands on stale evidence;
* **open intents** (a write-ahead entry with no matching applied entry:
  the crash landed mid-actuation) are *abandoned*, never re-issued — the
  evidence that justified them is one incarnation stale.

The pass emits no observability; its outcome is returned as a
:class:`ReconcileReport` and surfaced through experiment artefacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.diagnosis import ActionKind
from ..engine.query import app_of
from .journal import ActionJournal

__all__ = ["ReconcileReport", "reconcile"]

_QUOTA_KIND = ActionKind.APPLY_QUOTAS.value
_PLACEMENT_KINDS = (
    ActionKind.RESCHEDULE_CLASS.value,
    ActionKind.REMOVE_CLASS_FOR_IO.value,
)


@dataclass
class ReconcileReport:
    """What the restart pass found and did, item by item."""

    confirmed: list[str] = field(default_factory=list)
    repaired: list[str] = field(default_factory=list)
    abandoned: list[str] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        return {
            "confirmed": len(self.confirmed),
            "repaired": len(self.repaired),
            "abandoned": len(self.abandoned),
        }


def _fold_intent(journal: ActionJournal):
    """Final intended quotas and placements from the applied entries."""
    quotas: dict[tuple[str, str, str], int] = {}
    placements: dict[str, object] = {}  # context -> latest reschedule record
    for record in journal.entries("applied"):
        if not record.applied:
            continue  # rejected by the thrash guard: nothing changed
        if record.action_kind == _QUOTA_KIND and record.replica is not None:
            for context, pages in record.quotas:
                quotas[(record.app, record.replica, context)] = pages
        elif record.action_kind in _PLACEMENT_KINDS:
            if record.context_key is not None:
                placements[record.context_key] = record
    return quotas, placements


def reconcile(
    controller, journal: ActionJournal, timestamp: float
) -> ReconcileReport:
    """Diff journaled intent against the cluster; repair divergence."""
    report = ReconcileReport()
    quotas, placements = _fold_intent(journal)

    for (app, replica_name, context), pages in sorted(quotas.items()):
        scheduler = controller.schedulers.get(app)
        replica = (
            scheduler.replicas.get(replica_name) if scheduler is not None
            else None
        )
        if replica is None:
            report.abandoned.append(
                f"quota:{replica_name}:{context} (replica released)"
            )
            continue
        actual = replica.engine.quotas.get(context)
        if actual == pages:
            report.confirmed.append(f"quota:{replica_name}:{context}={pages}")
            continue
        if pages is None:
            replica.engine.clear_quota(context)
        else:
            replica.engine.set_quota(context, pages)
        report.repaired.append(
            f"quota:{replica_name}:{context}={pages} (was {actual})"
        )

    for context, record in sorted(placements.items()):
        owner_app = app_of(context)
        owner_scheduler = controller.schedulers.get(owner_app)
        if owner_scheduler is None:
            report.abandoned.append(f"placement:{context} (app gone)")
            continue
        if record.target is not None:
            # A plan step: the class was pinned *to* the replica it names.
            if record.target not in owner_scheduler.replicas:
                report.abandoned.append(
                    f"placement:{context} (replica released)"
                )
            elif owner_scheduler.placement_of(context) == [record.target]:
                report.confirmed.append(f"placement:{context}")
            else:
                owner_scheduler.move_class(context, record.target)
                report.repaired.append(f"placement:{context}")
            continue
        if context in owner_scheduler.pinned_contexts():
            report.confirmed.append(f"placement:{context}")
            continue
        # The journal names the contended replica the class was moved away
        # from; resolve its host so the repair re-applies the same avoidance.
        avoid_host = None
        violated = controller.schedulers.get(record.app)
        if violated is not None and record.replica in violated.replicas:
            avoid_host = violated.replicas[record.replica].host.name
        moved = controller._reschedule(
            owner_scheduler, context, avoid_host, timestamp
        )
        if moved:
            report.repaired.append(f"placement:{context}")
        else:
            report.confirmed.append(f"placement:{context} (already satisfied)")

    for record in journal.entries("applied"):
        if record.applied and record.action_kind not in (
            (_QUOTA_KIND,) + _PLACEMENT_KINDS
        ):
            report.confirmed.append(
                f"{record.action_kind}:{record.app} (durable)"
            )

    for app, steps, finished in journal.plans():
        if not finished:
            report.abandoned.append(
                f"plan:{app} (cut short after {len(steps)} steps, not resumed)"
            )

    for record in journal.open_intents():
        report.abandoned.append(
            f"intent:{record.action_kind}:{record.app} (never confirmed)"
        )
    return report
