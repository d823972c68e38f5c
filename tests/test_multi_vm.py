"""Multi-VM simulation."""

import pytest

from repro.config import SimConfig
from repro.core import make_policy
from repro.errors import ConfigurationError
from repro.guestos.balloon import TierReservation
from repro.guestos.numa import NodeTier
from repro.hw.cache import CacheConfig
from repro.hw.memdevice import DRAM, NVM_PCM
from repro.mem.extent import PageType
from repro.sim.multi_vm import MultiVmSimulation, VmSpec
from repro.units import MIB, pages_of_bytes
from repro.vmm.drf import WeightedDrf
from repro.vmm.hotness import HotnessConfig
from repro.vmm.sharing import MaxMinSharing
from repro.workloads.base import RegionSpec, StatisticalWorkload


def devices(fast_mib=32, slow_mib=128):
    return {
        NodeTier.FAST: DRAM.with_capacity(fast_mib * MIB),
        NodeTier.SLOW: NVM_PCM.with_capacity(slow_mib * MIB),
    }


def workload(name="w", pages=1024, alloc_epoch=0):
    return StatisticalWorkload(
        name=name,
        mlp=4.0,
        instructions_per_epoch=1e6,
        accesses_per_epoch=5000.0,
        resident=[
            RegionSpec(
                "data", PageType.HEAP, pages, reuse=0.7, access_share=1.0,
                alloc_epoch=alloc_epoch,
            ),
        ],
    )


def vm(name, wl, fast=(1024, 2048), slow=(4096, 8192)):
    return VmSpec(
        name=name,
        workload=wl,
        policy=make_policy("heap-od"),
        reservations={
            NodeTier.FAST: TierReservation(*fast),
            NodeTier.SLOW: TierReservation(*slow),
        },
    )


def test_two_vms_run_and_report():
    sim = MultiVmSimulation(
        devices(),
        [vm("a", workload("a")), vm("b", workload("b"))],
        sharing_policy=MaxMinSharing(),
    )
    results = sim.run(5)
    assert set(results) == {"a", "b"}
    for result in results.values():
        assert result.stats.epochs == 5
        assert result.stats.runtime_ns > 0


def test_llc_partitioned_across_vms():
    config = SimConfig(
        fast_capacity_bytes=32 * MIB,
        slow_capacity_bytes=128 * MIB,
        llc=CacheConfig(capacity_bytes=16 * MIB),
    )
    sim = MultiVmSimulation(
        devices(),
        [vm("a", workload("a")), vm("b", workload("b"))],
        sharing_policy=MaxMinSharing(),
        config=config,
    )
    for engine in sim.engines.values():
        assert engine.cache.config.capacity_bytes == 8 * MIB


def test_empty_vm_list_rejected():
    with pytest.raises(ConfigurationError):
        MultiVmSimulation(devices(), [], sharing_policy=MaxMinSharing())


def test_boot_reservations_respect_machine_capacity():
    fast_total = pages_of_bytes(32 * MIB)
    with pytest.raises(Exception):
        MultiVmSimulation(
            devices(),
            [
                vm("a", workload("a"), fast=(fast_total, fast_total)),
                vm("b", workload("b"), fast=(fast_total, fast_total)),
            ],
            sharing_policy=MaxMinSharing(),
        )


def test_late_grower_balloons_from_pool_under_drf():
    """A VM whose demand grows later can still balloon free machine
    memory under DRF."""
    slow_total = pages_of_bytes(128 * MIB)
    grower = vm(
        "grower",
        workload("grower", pages=6000, alloc_epoch=2),
        slow=(4096, slow_total),
    )
    small = vm("small", workload("small", pages=512))
    sim = MultiVmSimulation(
        devices(), [grower, small], sharing_policy=WeightedDrf()
    )
    results = sim.run(6)
    domain = next(
        d for d in sim.hypervisor.domains.values() if d.name == "grower"
    )
    assert domain.pages(NodeTier.SLOW) > 4096  # ballooned beyond the min
    assert results["grower"].stats.dropped_allocation_pages == 0


def test_hotness_config_reaches_every_domain_tracker():
    custom = HotnessConfig(scan_batch_pages=1024, hot_density=2.0)
    sim = MultiVmSimulation(
        devices(),
        [vm("a", workload("a")), vm("b", workload("b"))],
        sharing_policy=MaxMinSharing(),
        config=SimConfig(hotness_config=custom),
    )
    sim.run(2)
    trackers = sim.hypervisor.trackers
    assert len(trackers) == 2
    assert all(tracker.config is custom for tracker in trackers.values())
