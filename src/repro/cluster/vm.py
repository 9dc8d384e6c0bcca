"""Virtual machines and the shared Xen dom0 I/O channel.

VMs give fault/security isolation but — as the paper's Table 3 experiment
demonstrates — *not* performance isolation: all guest I/O is serviced by
the driver domain (dom0), so two I/O-intensive guests on one host contend
on a single channel even though their CPU and memory are partitioned.

The model: a :class:`XenHost` wraps a :class:`PhysicalServer`; every
:class:`VirtualMachine` on the host gets its own CPU-load accounting (its
vCPUs), but all VM I/O demand funnels into one dom0 :class:`LoadModel`
whose effective capacity is the host channel derated by a virtualisation
overhead factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .server import IntervalLoad, LoadModel, PhysicalServer, ServerSpec

__all__ = ["VirtualMachine", "XenHost"]


@dataclass
class _VMSpec:
    vcpus: int
    memory_pages: int


class VirtualMachine:
    """One guest domain: private vCPUs and memory, shared host I/O."""

    def __init__(
        self,
        name: str,
        host: "XenHost",
        vcpus: int = 2,
        memory_pages: int = 16384,  # 256 MiB
    ) -> None:
        if vcpus <= 0:
            raise ValueError(f"vcpus must be positive: {vcpus}")
        if memory_pages <= 0:
            raise ValueError(f"memory must be positive: {memory_pages}")
        self.name = name
        self.host = host
        self.spec = _VMSpec(vcpus=vcpus, memory_pages=memory_pages)
        # The VM's private CPU model: its vCPUs, but I/O capacity is nominal
        # here — real I/O contention is accounted at the dom0 channel.
        self._cpu_load = LoadModel(
            ServerSpec(
                cores=vcpus,
                memory_pages=memory_pages,
                io_pages_per_sec=host.dom0_capacity,
            )
        )

    @property
    def memory_pages(self) -> int:
        return self.spec.memory_pages

    def note_demand(self, cpu_seconds: float, io_pages: float) -> None:
        """CPU demand stays in the guest; I/O demand goes through dom0."""
        self._cpu_load.note_demand(cpu_seconds, 0.0)
        self.host.note_dom0_io(io_pages)

    def close_interval(self, interval_length: float) -> IntervalLoad:
        return self._cpu_load.close_interval(interval_length)

    @property
    def cpu_factor(self) -> float:
        return self._cpu_load.cpu_factor

    @property
    def io_factor(self) -> float:
        """Guests see dom0's inflation — the whole point of the model."""
        return self.host.dom0_io_factor

    @property
    def cpu_utilisation(self) -> float:
        return self._cpu_load.cpu_utilisation

    @property
    def cpu_saturated(self) -> bool:
        return self._cpu_load.cpu_utilisation >= 0.9

    @property
    def io_saturated(self) -> bool:
        """Guests experience I/O saturation when the shared dom0 channel is
        contended, regardless of their own demand."""
        return self.host.io_contended


class XenHost:
    """A physical server running Xen, hosting guest domains.

    ``dom0_overhead`` derates the raw storage channel: dom0 copies and
    multiplexes every guest block request, so the effective channel is a
    fraction of bare metal (0.75 by default).
    """

    def __init__(
        self,
        server: PhysicalServer,
        dom0_overhead: float = 0.75,
        contention_threshold: float = 0.70,
    ) -> None:
        if not 0 < dom0_overhead <= 1:
            raise ValueError(f"dom0 overhead must be in (0, 1]: {dom0_overhead}")
        if not 0 < contention_threshold <= 1:
            raise ValueError(
                f"contention threshold must be in (0, 1]: {contention_threshold}"
            )
        self.server = server
        self.dom0_overhead = dom0_overhead
        self.contention_threshold = contention_threshold
        self.vms: dict[str, VirtualMachine] = {}
        self._dom0_load = LoadModel(
            ServerSpec(
                cores=server.spec.cores,
                memory_pages=server.spec.memory_pages,
                io_pages_per_sec=server.spec.io_pages_per_sec * dom0_overhead,
            )
        )

    @property
    def dom0_capacity(self) -> float:
        """Effective dom0 I/O channel capacity, pages/second."""
        return self.server.spec.io_pages_per_sec * self.dom0_overhead

    def create_vm(
        self, name: str, vcpus: int = 2, memory_pages: int = 16384
    ) -> VirtualMachine:
        if name in self.vms:
            raise ValueError(f"VM {name!r} already exists on {self.server.name!r}")
        total_vcpus = sum(vm.spec.vcpus for vm in self.vms.values()) + vcpus
        if total_vcpus > self.server.spec.cores * 2:
            raise ValueError(
                f"host {self.server.name!r} over-subscribed beyond 2x: "
                f"{total_vcpus} vcpus on {self.server.spec.cores} cores"
            )
        vm = VirtualMachine(name, self, vcpus=vcpus, memory_pages=memory_pages)
        self.vms[name] = vm
        return vm

    def note_dom0_io(self, io_pages: float) -> None:
        self._dom0_load.note_demand(0.0, io_pages)

    def close_interval(self, interval_length: float) -> None:
        """Close the dom0 channel's interval and every guest's."""
        self._dom0_load.close_interval(interval_length)
        for vm in self.vms.values():
            vm.close_interval(interval_length)

    @property
    def dom0_io_factor(self) -> float:
        return self._dom0_load.io_factor

    @property
    def dom0_io_utilisation(self) -> float:
        return self._dom0_load.io_utilisation

    @property
    def io_contended(self) -> bool:
        """dom0 channel saturation — the Table 3 failure signature.

        Uses the smoothed utilisation and a lower threshold than bare-metal
        saturation: the dom0 channel serves *every* guest, so sustained high
        occupancy is already a multi-tenant interference signal.
        """
        return self._dom0_load.io_utilisation >= self.contention_threshold
