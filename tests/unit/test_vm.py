"""Unit tests for VMs and the shared Xen dom0 I/O channel."""

import pytest

from repro.cluster.server import PhysicalServer, ServerSpec
from repro.cluster.vm import XenHost


def make_host(io=1000.0, overhead=0.75, cores=8):
    server = PhysicalServer("xen", ServerSpec(cores=cores, io_pages_per_sec=io))
    return XenHost(server, dom0_overhead=overhead)


class TestXenHost:
    def test_dom0_capacity_derated(self):
        host = make_host(io=1000.0, overhead=0.75)
        assert host.dom0_capacity == 750.0

    def test_rejects_bad_overhead(self):
        with pytest.raises(ValueError):
            make_host(overhead=0.0)

    def test_create_vm(self):
        host = make_host()
        vm = host.create_vm("d1", vcpus=2)
        assert host.vms["d1"] is vm

    def test_duplicate_vm_rejected(self):
        host = make_host()
        host.create_vm("d1")
        with pytest.raises(ValueError):
            host.create_vm("d1")

    def test_vcpu_oversubscription_capped(self):
        host = make_host(cores=2)
        host.create_vm("d1", vcpus=4)  # 2x of 2 cores
        with pytest.raises(ValueError):
            host.create_vm("d2", vcpus=1)


class TestDom0Sharing:
    def test_vm_io_lands_on_dom0(self):
        host = make_host(io=1000.0, overhead=1.0)
        vm = host.create_vm("d1")
        for _ in range(10):
            vm.note_demand(cpu_seconds=0.0, io_pages=5000.0)
            host.close_interval(10.0)
        assert host.dom0_io_utilisation == pytest.approx(0.5, rel=0.05)

    def test_two_vms_share_one_channel(self):
        host = make_host(io=1000.0, overhead=1.0)
        vm1 = host.create_vm("d1")
        vm2 = host.create_vm("d2")
        for _ in range(10):
            vm1.note_demand(0.0, 4000.0)
            vm2.note_demand(0.0, 4000.0)
            host.close_interval(10.0)
        assert host.dom0_io_utilisation == pytest.approx(0.8, rel=0.05)

    def test_guest_sees_dom0_inflation(self):
        host = make_host(io=1000.0, overhead=1.0)
        vm1 = host.create_vm("d1")
        vm2 = host.create_vm("d2")
        for _ in range(10):
            vm2.note_demand(0.0, 9000.0)  # vm2 hammers the channel
            host.close_interval(10.0)
        # vm1 is idle but still suffers dom0's inflation.
        assert vm1.io_factor > 5.0

    def test_contention_flag(self):
        host = make_host(io=1000.0, overhead=1.0)
        vm = host.create_vm("d1")
        for _ in range(10):
            vm.note_demand(0.0, 9000.0)
            host.close_interval(10.0)
        assert host.io_contended
        assert vm.io_saturated

    def test_no_contention_when_light(self):
        host = make_host(io=1000.0)
        vm = host.create_vm("d1")
        for _ in range(5):
            vm.note_demand(0.0, 100.0)
            host.close_interval(10.0)
        assert not host.io_contended


class TestVMDemand:
    @pytest.mark.parametrize(
        "cpu, io", [(-1.0, 0.0), (0.0, -1.0), (float("nan"), 0.0), (0.0, float("nan"))]
    )
    def test_rejects_negative_or_nan_demand(self, cpu, io):
        host = make_host()
        vm = host.create_vm("d1")
        with pytest.raises(ValueError):
            vm.note_demand(cpu, io)
        assert vm.close_interval(10.0).cpu_seconds == 0.0
        assert host.dom0_load.current.io_pages == 0.0


class TestVMCpuIsolation:
    def test_cpu_stays_in_guest(self):
        host = make_host(cores=8)
        vm1 = host.create_vm("d1", vcpus=2)
        vm2 = host.create_vm("d2", vcpus=2)
        for _ in range(10):
            vm1.note_demand(cpu_seconds=30.0, io_pages=0.0)
            host.close_interval(10.0)
        assert vm1.cpu_saturated
        assert not vm2.cpu_saturated
        assert vm2.cpu_factor == pytest.approx(1.0)

    def test_vm_memory(self):
        host = make_host()
        vm = host.create_vm("d1", memory_pages=4096)
        assert vm.memory_pages == 4096

    def test_vm_rejects_bad_vcpus(self):
        host = make_host()
        with pytest.raises(ValueError):
            host.create_vm("d1", vcpus=0)
