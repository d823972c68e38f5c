"""The Figure 13 multi-VM scenario helpers and dynamics (scaled down
where possible; the full driver runs in the benchmark suite), plus a
golden pin of the committed multi-VM tables."""

import importlib.util
import pathlib
import sys

import pytest

from repro.experiments.sharing import (
    fig13_devices,
    fig13_vmspecs,
    run_fig13,
)
from repro.experiments.report import format_table
from repro.guestos.numa import NodeTier
from repro.sim.multi_vm import MultiVmSimulation
from repro.units import GIB
from repro.vmm.drf import WeightedDrf
from repro.vmm.sharing import MaxMinSharing


def test_fig13_machine_matches_paper():
    devices = fig13_devices()
    assert devices[NodeTier.FAST].capacity_bytes == 4 * GIB
    assert devices[NodeTier.SLOW].capacity_bytes == 8 * GIB
    assert devices[NodeTier.SLOW].load_latency_ns > devices[
        NodeTier.FAST
    ].load_latency_ns


def test_fig13_resource_vectors_match_paper():
    specs = {spec.name: spec for spec in fig13_vmspecs("heap-od")}
    graphchi = specs["graphchi-vm"].reservations
    metis = specs["metis-vm"].reservations
    # <2*1GB, 1*4GB> and <2*3GB, 1*4GB> (Section 5.5).
    assert graphchi[NodeTier.FAST].min_pages == GIB // 4096
    assert metis[NodeTier.FAST].min_pages == 3 * GIB // 4096
    assert graphchi[NodeTier.SLOW].min_pages == 4 * GIB // 4096
    # Boot minimums exactly fill the machine: all growth is contended.
    total_fast = sum(
        spec.reservations[NodeTier.FAST].min_pages
        for spec in specs.values()
    )
    assert total_fast == 4 * GIB // 4096


def test_maxmin_lets_the_hungry_vm_take_idle_slowmem():
    sim = MultiVmSimulation(
        fig13_devices(), fig13_vmspecs("heap-od"),
        sharing_policy=MaxMinSharing(),
    )
    results = sim.run(40)
    domains = {d.name: d for d in sim.hypervisor.domains.values()}
    # Metis grew past its 4 GB SlowMem minimum at GraphChi's expense.
    metis_slow = domains["metis-vm"].pages(NodeTier.SLOW)
    graphchi_slow = domains["graphchi-vm"].pages(NodeTier.SLOW)
    assert metis_slow > 4 * GIB // 4096
    assert graphchi_slow < 4 * GIB // 4096
    assert results["metis-vm"].swap_pages_out == 0


def test_drf_protects_the_reservation():
    sim = MultiVmSimulation(
        fig13_devices(), fig13_vmspecs("heap-od"),
        sharing_policy=WeightedDrf(),
    )
    sim.run(40)
    domains = {d.name: d for d in sim.hypervisor.domains.values()}
    # Under DRF nobody digs into GraphChi's reserved SlowMem.
    assert domains["graphchi-vm"].pages(NodeTier.SLOW) >= 4 * GIB // 4096


def test_run_fig13_driver_rows():
    rows = run_fig13(epochs=30)
    by_vm = {row["vm"]: row for row in rows}
    assert set(by_vm) == {"graphchi-vm", "metis-vm", "TOTAL-runtime-sec"}
    for vm in ("graphchi-vm", "metis-vm"):
        assert "coordinated(weighted-drf)" in by_vm[vm]
        assert "single-vm-coordinated" in by_vm[vm]


BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _load_benchmark(filename):
    spec = importlib.util.spec_from_file_location(
        f"benchmarks_{filename[:-3]}", BENCHMARKS / filename
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_multi_vm_tables_match_committed_results(monkeypatch):
    """Full-length Figure 13 and Ablation G render byte-identical to
    ``benchmarks/_results``."""
    # The ablation module's ``from conftest import once`` must resolve to
    # the benchmarks conftest, not this suite's.
    monkeypatch.setitem(
        sys.modules, "conftest", _load_benchmark("conftest.py")
    )
    ablations = _load_benchmark("test_ablation_design.py")
    for rows, title, name in (
        (
            run_fig13(),
            "Figure 13: multi-VM gains (%) over SlowMem-only floor",
            "figure_13",
        ),
        (
            ablations.run_drf_weight_ablation(),
            "Ablation G: DRF FastMem weighting (Figure 13 scenario)",
            "ablation_g",
        ),
    ):
        expected = (BENCHMARKS / "_results" / f"{name}.txt").read_text()
        assert format_table(rows, title=title) + "\n" == expected, name
