"""Epoch fencing: stale controller incarnations cannot actuate.

Every controller incarnation owns an *epoch*, a monotonically increasing
integer bumped on each restart.  Actions are stamped with the epoch of the
incarnation that decided them; the actuation layer (controller dispatch,
scheduler placement, resource-manager provisioning) compares an action's
epoch against the fence and rejects anything older.  This is the classic
generation-number fence: an in-flight decision from a crashed controller
can arrive *after* the restarted controller has already reconciled the
cluster, and blindly applying it would undo the reconciliation.

The fence is a tiny shared mutable cell rather than an attribute copied
around precisely so one bump is visible to every component at once.
"""

from __future__ import annotations

__all__ = ["StaleEpochError", "EpochFence"]


class StaleEpochError(RuntimeError):
    """An actuation carried an epoch older than the current incarnation's."""

    def __init__(self, stale_epoch: int, current_epoch: int, what: str) -> None:
        super().__init__(
            f"{what} carries epoch {stale_epoch} but the controller is at "
            f"epoch {current_epoch}; the action belongs to a crashed "
            "incarnation and must not actuate"
        )
        self.stale_epoch = stale_epoch
        self.current_epoch = current_epoch


class EpochFence:
    """The shared epoch cell all actuation paths consult."""

    def __init__(self, epoch: int = 1) -> None:
        if epoch < 1:
            raise ValueError(f"epoch must be positive: {epoch}")
        self.epoch = epoch
        self.rejections = 0

    def bump(self) -> int:
        """Start a new incarnation; everything older is now fenced."""
        self.epoch += 1
        return self.epoch

    def admits(self, epoch: int) -> bool:
        """Whether an action stamped with ``epoch`` may still actuate."""
        return epoch >= self.epoch

    def check(self, epoch: int | None, what: str) -> None:
        """Raise :class:`StaleEpochError` for a stale ``epoch``.

        ``None`` means the caller is not epoch-aware (direct test or
        experiment calls); those pass — fencing only constrains calls that
        declare which incarnation they act for.
        """
        if epoch is None:
            return
        if not self.admits(epoch):
            self.rejections += 1
            raise StaleEpochError(epoch, self.epoch, what)
