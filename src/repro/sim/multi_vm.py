"""Multi-VM simulation with VMM-mediated heterogeneous memory sharing.

Reproduces the Figure 13 setup: several guests on one machine, each with
per-tier minimum/maximum reservations, ballooning extra memory through
the back-end whose grants are arbitrated by the configured sharing
policy (single-resource max-min or weighted DRF).  Guests advance in
lock-step, one epoch at a time, so reclaim pressure from one VM lands on
its neighbours within the same virtual interval.

The LLC is statically partitioned across VMs (way partitioning), the
conservative model for co-located cache contention.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from repro.config import SimConfig
from repro.core.policy import PlacementPolicy
from repro.errors import ConfigurationError
from repro.guestos.balloon import TierReservation
from repro.guestos.numa import NodeTier
from repro.hw.memdevice import MemoryDevice
from repro.sim.engine import SimulationEngine, boot_guest, make_hypervisor
from repro.sim.stats import RunResult
from repro.vmm.sharing import SharingPolicy
from repro.workloads.base import Workload


@dataclass
class VmSpec:
    """One guest's configuration."""

    name: str
    workload: Workload
    policy: PlacementPolicy
    reservations: dict[NodeTier, TierReservation]
    weights: dict[NodeTier, float] = field(default_factory=dict)


class MultiVmSimulation:
    """Lock-step co-simulation of several guests under one VMM."""

    def __init__(
        self,
        devices: dict[NodeTier, MemoryDevice],
        vms: list[VmSpec],
        sharing_policy: SharingPolicy,
        config: SimConfig | None = None,
    ) -> None:
        if not vms:
            raise ConfigurationError("need at least one VM")
        self.config = config or SimConfig()
        self.hypervisor = make_hypervisor(devices, self.config, sharing_policy)
        self.engines: dict[str, SimulationEngine] = {}
        llc_share = dataclasses.replace(
            self.config.llc,
            capacity_bytes=max(
                1, self.config.llc.capacity_bytes // len(vms)
            ),
        )
        for index, spec in enumerate(vms):
            domain = self.hypervisor.create_domain(
                spec.name, spec.reservations, weights=spec.weights or None
            )
            vm_config = dataclasses.replace(
                self.config,
                llc=llc_share,
                seed=self.config.seed + index,
            )
            self.engines[spec.name] = SimulationEngine(
                vm_config,
                spec.workload,
                spec.policy,
                hypervisor=self.hypervisor,
                domain=domain,
                kernel=boot_guest(self.hypervisor, domain, vm_config),
            )
        self._vms = list(vms)
        self.rng = random.Random(self.config.seed)

    def run(self, epochs: int | None = None) -> dict[str, RunResult]:
        """Advance all guests in lock-step; returns per-VM results."""
        count = epochs
        if count is None:
            count = max(spec.workload.default_epochs() for spec in self._vms)
        iterators = {
            spec.name: spec.workload.epochs(count) for spec in self._vms
        }
        for _ in range(count):
            for spec in self._vms:
                demand = next(iterators[spec.name], None)
                if demand is not None:
                    self.engines[spec.name].step(demand)
        return {name: engine.result() for name, engine in self.engines.items()}
