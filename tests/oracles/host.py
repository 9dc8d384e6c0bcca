"""Oracle: host demand through the three-call chain it replaced.

A host's ``note_demand`` checks one query's demand and adds it to the open
interval's :class:`~repro.cluster.server.IntervalLoad` itself, one call
below ``Replica.execute``.  This is what it replaced on a bare-metal
server: ``PhysicalServer.note_demand`` forwarding to
``LoadModel.note_demand``, forwarding to ``IntervalLoad.add``, which checked
(``x < 0``, which NaN passes) and added.

:class:`ChainedDemandServer` is a server that accounts that way.  The server
tests drive it beside the stock server through the same demands, and the
query-path micro-benchmark times one against the other.
"""

from __future__ import annotations

from repro.cluster.server import IntervalLoad, LoadModel, PhysicalServer

__all__ = ["ChainedDemandServer", "add_demand", "note_load_demand"]


def add_demand(load: IntervalLoad, cpu_seconds: float, io_pages: float) -> None:
    """``IntervalLoad.add`` as it was."""
    if cpu_seconds < 0 or io_pages < 0:
        raise ValueError("demand must be non-negative")
    load.cpu_seconds += cpu_seconds
    load.io_pages += io_pages


def note_load_demand(model: LoadModel, cpu_seconds: float, io_pages: float) -> None:
    """``LoadModel.note_demand`` as it was."""
    add_demand(model.current, cpu_seconds, io_pages)


class ChainedDemandServer(PhysicalServer):
    """``PhysicalServer`` with the demand chain of before."""

    def note_demand(self, cpu_seconds: float, io_pages: float) -> None:
        note_load_demand(self.load, cpu_seconds, io_pages)
