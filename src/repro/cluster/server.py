"""Physical-server model: CPU and I/O capacity with contention feedback.

Latency inflation under load is what turns a workload change into an SLA
violation, so the server model is the part of the substrate that closes the
loop.  Each server tracks, per measurement interval, the CPU-seconds and the
I/O page reads demanded of it; utilisation feeds simple open-queueing
inflation factors that the executor applies to the *next* interval's
queries (one-interval feedback lag, like a real monitoring loop).

* CPU: an M/M/1-style response-time factor ``1 / (1 - rho)`` with the
  utilisation capped just below 1 so saturation yields a large-but-finite
  latency blow-up rather than an infinity.
* I/O: same shape over the storage channel's pages/second.  On a Xen host
  the channel is dom0's, shared by every guest VM (see ``vm.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServerSpec", "IntervalLoad", "LoadModel", "PhysicalServer"]

UTILISATION_CAP = 0.98
"""CPU utilisation is clamped here so inflation factors stay finite."""

IO_UTILISATION_CAP = 0.90
"""The I/O channel factor caps at 10x: beyond this a closed-loop client
population is throughput-bound and per-request inflation stops growing."""


@dataclass(frozen=True)
class ServerSpec:
    """Static capacities of one physical machine.

    Mirrors the paper's testbed shape: 4-way Xeon boxes.  ``io_pages_per_sec``
    is the random-read throughput of the storage channel; 4000 pages/s of
    16 KiB pages is ~62 MiB/s of random I/O.
    """

    cores: int = 4
    memory_pages: int = 65536  # 1 GiB of 16 KiB pages
    io_pages_per_sec: float = 4000.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"cores must be positive: {self.cores}")
        if self.memory_pages <= 0:
            raise ValueError(f"memory must be positive: {self.memory_pages}")
        if self.io_pages_per_sec <= 0:
            raise ValueError(f"io capacity must be positive: {self.io_pages_per_sec}")


@dataclass
class IntervalLoad:
    """Demand accumulated on one server during one measurement interval.

    A host's ``note_demand`` checks a query's demand and adds to it
    directly: one call per query, below ``Replica.execute``.
    """

    cpu_seconds: float = 0.0
    io_pages: float = 0.0


class LoadModel:
    """Utilisation accounting and contention factors for one resource pair.

    Raw per-interval utilisations are smoothed with an EWMA before feeding
    the inflation factors and the saturation predicates: the one-interval
    feedback lag otherwise produces a burst/idle oscillation (a demand burst
    inflates the next interval's factors, which throttles demand, which
    deflates the factors, …).
    """

    SMOOTHING = 0.5

    def __init__(self, spec: ServerSpec) -> None:
        self.spec = spec
        self.current = IntervalLoad()  # the open interval's demand
        self.raw_cpu_utilisation = 0.0
        self.raw_io_utilisation = 0.0
        self.cpu_utilisation = 0.0
        self.io_utilisation = 0.0
        self.cpu_factor = 1.0
        self.io_factor = 1.0

    def close_interval(self, interval_length: float) -> IntervalLoad:
        """Fold the interval's demand into utilisations and factors."""
        if interval_length <= 0:
            raise ValueError(f"interval length must be positive: {interval_length}")
        closed = self.current
        self.raw_cpu_utilisation = closed.cpu_seconds / (
            self.spec.cores * interval_length
        )
        self.raw_io_utilisation = closed.io_pages / (
            self.spec.io_pages_per_sec * interval_length
        )
        alpha = self.SMOOTHING
        self.cpu_utilisation = (
            alpha * self.raw_cpu_utilisation + (1 - alpha) * self.cpu_utilisation
        )
        self.io_utilisation = (
            alpha * self.raw_io_utilisation + (1 - alpha) * self.io_utilisation
        )
        self.cpu_factor = self._cpu_inflation(self.cpu_utilisation, self.spec.cores)
        self.io_factor = self._io_inflation(self.io_utilisation)
        self.current = IntervalLoad()
        return closed

    @staticmethod
    def _cpu_inflation(utilisation: float, servers: int) -> float:
        """M/M/c response-time factor via the Sakasegawa approximation.

        ``1 + rho^sqrt(2(c+1)) / (c (1 - rho))`` — negligible below ~70 %
        utilisation on a multi-core box, with a sharp knee approaching 1.
        """
        rho = min(max(utilisation, 0.0), UTILISATION_CAP)
        exponent = (2.0 * (servers + 1)) ** 0.5
        return 1.0 + (rho**exponent) / (servers * (1.0 - rho))

    @staticmethod
    def _io_inflation(utilisation: float) -> float:
        """M/M/1 response-time factor for the storage channel, capped at
        10x (closed-loop populations bound the queue length)."""
        rho = min(max(utilisation, 0.0), IO_UTILISATION_CAP)
        return 1.0 / (1.0 - rho)


class PhysicalServer:
    """One machine in the database tier.

    Engines are attached by the replica layer; VM hosting (with the shared
    dom0 I/O channel) is layered on top in ``vm.py``.  The server exposes the
    two contention factors the executor needs and the saturation predicates
    the diagnosis logic tests.
    """

    def __init__(self, name: str, spec: ServerSpec | None = None) -> None:
        self.name = name
        self.spec = spec if spec is not None else ServerSpec()
        self.load = LoadModel(self.spec)
        # Fault-injection slowdown multipliers (1.0 = nominal hardware).
        # They scale the *contention factors*, not the utilisations: a
        # degrading disk or a noisy neighbour stretches every request
        # without this cluster's own demand explaining it.
        self.fault_cpu_multiplier = 1.0
        self.fault_io_multiplier = 1.0
        self.cpu_saturation_threshold = 0.9
        # Bare-metal I/O overload is diagnosed through the memory path (the
        # per-class counters live in the engines), so the direct predicate
        # is conservative; the shared Xen dom0 channel (vm.py) uses its own,
        # lower threshold because guests lack those counters.
        self.io_saturation_threshold = 0.95

    @property
    def memory_pages(self) -> int:
        return self.spec.memory_pages

    def note_demand(self, cpu_seconds: float, io_pages: float) -> None:
        """Record demand generated by a query execution on this server."""
        if not (cpu_seconds >= 0 and io_pages >= 0):  # NaN fails this too
            raise ValueError(f"demand must be non-negative: {cpu_seconds}, {io_pages}")
        current = self.load.current
        current.cpu_seconds += cpu_seconds
        current.io_pages += io_pages

    def close_interval(self, interval_length: float) -> IntervalLoad:
        return self.load.close_interval(interval_length)

    def set_fault_slowdown(
        self, cpu: float | None = None, io: float | None = None
    ) -> None:
        """Set injected slowdown multipliers (``1.0`` restores nominal).

        Only the named channels change; an I/O slowdown leaves the CPU
        multiplier untouched and vice versa.
        """
        if cpu is not None:
            if not cpu >= 1.0:  # NaN fails this too
                raise ValueError(f"CPU slowdown cannot speed up: {cpu}")
            self.fault_cpu_multiplier = float(cpu)
        if io is not None:
            if not io >= 1.0:
                raise ValueError(f"I/O slowdown cannot speed up: {io}")
            self.fault_io_multiplier = float(io)

    @property
    def cpu_factor(self) -> float:
        factor = self.load.cpu_factor
        if self.fault_cpu_multiplier != 1.0:
            factor *= self.fault_cpu_multiplier
        return factor

    @property
    def cpu_utilisation(self) -> float:
        return self.load.cpu_utilisation

    @property
    def io_utilisation(self) -> float:
        return self.load.io_utilisation

    @property
    def io_factor(self) -> float:
        factor = self.load.io_factor
        if self.fault_io_multiplier != 1.0:
            factor *= self.fault_io_multiplier
        return factor

    @property
    def cpu_saturated(self) -> bool:
        return self.load.cpu_utilisation >= self.cpu_saturation_threshold

    @property
    def io_saturated(self) -> bool:
        return self.load.io_utilisation >= self.io_saturation_threshold
