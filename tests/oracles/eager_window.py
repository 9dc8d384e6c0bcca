"""Oracle: the access window that copies a slice where a curve takes it.

``repro.sim.trace.AccessWindow`` hands a curve a reference to its slice of
the window and copies the slice out only just before an append would
overwrite it.  This is the formulation it replaced: the slice is copied at
once, as ``snapshot(last=…)`` and ``ending_at`` did for every curve taken
and every checkpointed curve restored.  Whether and when a copy happens may
change cost only, so an analyzer over these windows reads, counts and
checkpoints exactly what one over the engine's own windows does; the
on-demand suite runs both side by side.
"""

from __future__ import annotations

from repro.sim.trace import AccessWindow, WindowSlice

__all__ = ["EagerCopyWindow"]


class EagerCopyWindow(AccessWindow):
    """A window whose every slice is a copy taken when the slice is."""

    def slice_ending_at(self, watermark: int, count: int) -> WindowSlice:
        if not self.holds(watermark, count):
            raise ValueError(
                f"the window no longer holds {count} accesses ending at {watermark}"
            )
        reference = WindowSlice(self, watermark, count)
        reference._copy = self.ending_at(watermark, count)
        return reference
