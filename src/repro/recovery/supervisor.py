"""The control-plane supervisor: checkpoints, crash, watchdog, restart.

:class:`ControlPlaneSupervisor` is the one object the harness creates when
recovery is enabled (``harness.enable_recovery()``).  It owns the three
recovery primitives — the :class:`~repro.recovery.fence.EpochFence`, the
:class:`~repro.recovery.journal.ActionJournal` and the
:class:`~repro.recovery.checkpoint.CheckpointStore` — and installs the
fence and journal on the controller, every scheduler and the resource
manager, so one epoch bump fences every actuation path at once.

The crash model: the controller *process* dies but the cluster survives.
Crashing wipes the controller's decision bookkeeping and gives every log
analyzer amnesia (signatures, MRCs, watermarks — all process memory);
engines, buffer pools, replicas and placement are the data plane and keep
serving.  While down, the harness skips interval closes entirely — a
monitoring gap, exactly what a dead controller produces.  A watchdog
scheduled on the harness event loop restarts the controller after a
configurable delay; restart restores the newest digest-valid checkpoint
(cold-starting when none survives), replays the journal suffix past the
checkpoint to rebuild action-grace bookkeeping, bumps the epoch so
anything in flight from the dead incarnation is fenced, and runs the
reconcile pass to repair divergence between journaled intent and the
live cluster.

Nothing in this module touches observability: with recovery enabled but
no crash in the plan, telemetry is byte-identical to a run without
recovery at all (the Hypothesis suite pins this).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.diagnosis import FINE_ACTION_KINDS, ActionKind
from .checkpoint import Checkpoint, CheckpointStore
from .fence import EpochFence
from .journal import ActionJournal
from .reconcile import ReconcileReport, reconcile
from .state import (
    export_cluster_state,
    restore_cluster_state,
    wipe_cluster_state,
)

__all__ = ["RecoveryConfig", "ControlPlaneSupervisor"]

_FINE_KIND_VALUES = frozenset(kind.value for kind in FINE_ACTION_KINDS)
"""The journal spells an action's kind as its ``ActionKind`` value."""


@dataclass(frozen=True)
class RecoveryConfig:
    """Tunables of the control-plane recovery subsystem."""

    checkpoint_every_intervals: int = 2
    watchdog_restart_delay: float = 20.0
    max_checkpoints: int = 4

    def __post_init__(self) -> None:
        if self.checkpoint_every_intervals < 1:
            raise ValueError("checkpoint cadence must be at least 1 interval")
        if self.watchdog_restart_delay <= 0:
            raise ValueError("watchdog restart delay must be positive")
        if self.max_checkpoints < 1:
            raise ValueError("checkpoint ring needs at least one slot")


class ControlPlaneSupervisor:
    """Owns one harness's recovery machinery and lifecycle transitions."""

    def __init__(self, harness, config: RecoveryConfig | None = None) -> None:
        self.harness = harness
        self.controller = harness.controller
        self.config = config if config is not None else RecoveryConfig()
        self.fence = EpochFence()
        self.journal = ActionJournal()
        self.checkpoints = CheckpointStore(self.config.max_checkpoints)
        self.down = False
        self.crashes = 0
        self.restarts = 0
        self.cold_starts = 0
        self.missed_intervals = 0
        self.replayed_records = 0
        self.restored_interval: int | None = None
        self.last_reconcile: ReconcileReport | None = None
        self._last_checkpoint_interval: int | None = None
        self._install()

    def _install(self) -> None:
        controller = self.controller
        controller.fence = self.fence
        controller.journal = self.journal
        controller.resource_manager.fence = self.fence
        for scheduler in controller.schedulers.values():
            scheduler.fence = self.fence
        # Schedulers added later inherit the fence via add_scheduler.

    @property
    def epoch(self) -> int:
        return self.fence.epoch

    # ------------------------------------------------------------------ #
    # Checkpointing                                                      #
    # ------------------------------------------------------------------ #

    def maybe_checkpoint(self, timestamp: float) -> Checkpoint | None:
        """Checkpoint on the configured interval cadence (harness calls
        this after every interval close)."""
        if self.down:
            return None
        index = self.controller.interval_index
        if index == 0 or index % self.config.checkpoint_every_intervals:
            return None
        if index == self._last_checkpoint_interval:
            return None
        return self.checkpoint_now(timestamp)

    def checkpoint_now(self, timestamp: float) -> Checkpoint:
        state = export_cluster_state(self.controller, epoch=self.fence.epoch)
        checkpoint = self.checkpoints.save(
            state,
            interval_index=self.controller.interval_index,
            epoch=self.fence.epoch,
            timestamp=timestamp,
            journal_seq=len(self.journal),
        )
        self._last_checkpoint_interval = checkpoint.interval_index
        self.journal.record_control(
            f"checkpoint#{checkpoint.seq}@interval{checkpoint.interval_index}",
            self.fence.epoch,
            self.controller.interval_index,
            timestamp,
        )
        return checkpoint

    def corrupt_latest_checkpoint(self) -> bool:
        """The ``checkpoint_corruption`` fault hook."""
        return self.checkpoints.corrupt_latest()

    # ------------------------------------------------------------------ #
    # Crash / restart lifecycle                                          #
    # ------------------------------------------------------------------ #

    def crash(self, now: float, restart_delay: float | None = None) -> None:
        """Kill the controller: wipe decision state, schedule the watchdog.

        ``restart_delay`` overrides the configured watchdog delay (a fault
        event's ``duration`` maps here); the watchdog is a no-op if an
        explicit ``controller_restart`` event brings the controller back
        first.
        """
        if self.down:
            raise RuntimeError("controller is already down")
        self.down = True
        self.crashes += 1
        self.journal.record_control(
            "controller-crash", self.fence.epoch,
            self.controller.interval_index, now,
        )
        wipe_cluster_state(self.controller)
        delay = (
            restart_delay
            if restart_delay is not None and restart_delay > 0
            else self.config.watchdog_restart_delay
        )
        self.harness.events.schedule_at(now + delay, self._watchdog_restart)

    def _watchdog_restart(self) -> None:
        if not self.down:
            return  # an explicit restart event beat the watchdog to it
        self.restart(self.harness.clock.now)

    def restart(self, now: float) -> bool:
        """Bring the controller back: restore, replay, fence, reconcile."""
        if not self.down:
            return False
        found = self.checkpoints.latest_valid()
        if found is None:
            # Cold start: no surviving checkpoint.  The journal's interval
            # indexes belong to a numbering the reset controller no longer
            # shares, so grace bookkeeping cannot be replayed — but the
            # reconcile pass below still repairs quotas and placements
            # (journaled *intent* is index-free).
            self.cold_starts += 1
            self.restored_interval = None
        else:
            checkpoint, state = found
            restore_cluster_state(self.controller, state)
            self.restored_interval = checkpoint.interval_index
            self._replay_since(checkpoint.journal_seq)
        # The restored controller re-walks interval indexes from the
        # checkpoint's value; re-arm the cadence guard to match.
        self._last_checkpoint_interval = self.restored_interval
        new_epoch = self.fence.bump()
        self.last_reconcile = reconcile(self.controller, self.journal, now)
        self.down = False
        self.restarts += 1
        self.journal.record_control(
            f"controller-restart epoch={new_epoch} "
            f"reconcile={self.last_reconcile.counts()}",
            new_epoch,
            self.controller.interval_index,
            now,
        )
        return True

    def _replay_since(self, journal_seq: int) -> None:
        """Rebuild grace bookkeeping from post-checkpoint applied entries.

        The checkpoint has everything up to its own moment; actions taken
        between the checkpoint and the crash exist only in the journal.
        Replaying them restores ``_last_action_interval`` (so the restarted
        controller honours the grace window of an action it no longer
        remembers taking) and the fine-action escalation flags, for the app
        the live controller stamped: the action's own or, for a plan step,
        the one the plan was searched for.  A release starts no grace.
        """
        plan_app = {
            record.seq: app
            for app, steps, _ in self.journal.plans()
            for record in steps
        }
        release = ActionKind.RELEASE_REPLICA.value
        for record in self.journal.applied_after(journal_seq - 1):
            if not record.applied or record.action_kind == release:
                continue
            self.replayed_records += 1
            app = plan_app.get(record.seq, record.app)
            last = self.controller._last_action_interval.get(app)
            if last is None or record.interval_index > last:
                self.controller._last_action_interval[app] = (
                    record.interval_index
                )
            if record.seq in plan_app or record.action_kind in _FINE_KIND_VALUES:
                self.controller._fine_action_tried[app] = True

    def note_missed_interval(self) -> None:
        """The harness records each interval close skipped while down."""
        self.missed_intervals += 1

    # ------------------------------------------------------------------ #
    # Property-test helpers (no lifecycle side effects)                  #
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Export current state without saving a checkpoint."""
        return export_cluster_state(self.controller, epoch=self.fence.epoch)

    def wipe(self) -> None:
        """Wipe decision state without the crash lifecycle."""
        wipe_cluster_state(self.controller)

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`snapshot` without bumping the epoch or
        reconciling — the byte-identity property needs restore alone."""
        restore_cluster_state(self.controller, state)
