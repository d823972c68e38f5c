"""Differential oracle for the array-backed fast path.

``repro.sim.fast`` re-implements the hottest ``SimulationEngine.step()``
phases with flat array-backed structures.  Its contract is *bit
identity*: with ``fast_path`` on, every :class:`RunResult` field —
stats, wear, timeline, final placement — must equal the slow path's
field for field (``dataclasses.asdict`` comparison, so nested floats
must match exactly, which pins allocation order, float addition order,
and dict insertion order).

The slow path is the oracle.  These tests sweep every registered
policy, the fault/telemetry/sanitizer modes, (via Hypothesis) the
synthetic-workload generator, and the Figure 13 multi-VM scenarios, so
any fast-path divergence fails here before it can skew a figure.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.policy import available_policies, make_policy
from repro.experiments.sharing import fig13_devices, fig13_vmspecs
from repro.faults import FaultPlan
from repro.guestos.numa import NodeTier
from repro.obs.bus import Telemetry
from repro.sim.multi_vm import MultiVmSimulation
from repro.sim.runner import build_config, run_experiment
from repro.vmm.drf import WeightedDrf
from repro.vmm.sharing import MaxMinSharing
from repro.workloads.synthetic import make_synthetic

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FAULT_PLAN = FaultPlan.from_dict(
    json.loads((REPO_ROOT / "examples" / "faultplan.json").read_text(encoding="utf-8"))
)


def _run(app, policy_name, fast, *, epochs, slow_gib=2.0, faults=None,
         telemetry=False, sanitize=False):
    policy = make_policy(policy_name)
    config = build_config(
        fast_ratio=0.25,
        slow_gib=slow_gib,
        unlimited_fast=policy.requires_unlimited_fast,
    )
    config.fast_path = fast
    config.sanitize = sanitize
    bus = Telemetry() if telemetry else None
    result = run_experiment(
        app, policy, epochs=epochs, config=config, telemetry=bus, faults=faults
    )
    return dataclasses.asdict(result)


@pytest.mark.parametrize("policy_name", available_policies())
def test_every_policy_is_bit_identical(policy_name):
    reference = _run("redis", policy_name, False, epochs=3)
    fast = _run("redis", policy_name, True, epochs=3)
    assert fast == reference


@pytest.mark.parametrize(
    "label, kwargs",
    [
        ("faults", dict(faults=FAULT_PLAN)),
        ("telemetry", dict(telemetry=True)),
        ("faults+telemetry", dict(faults=FAULT_PLAN, telemetry=True)),
        ("sanitize", dict(sanitize=True)),
        ("sanitize+faults", dict(sanitize=True, faults=FAULT_PLAN)),
    ],
)
def test_modes_are_bit_identical(label, kwargs):
    reference = _run("redis", "hetero-lru", False, epochs=4, **kwargs)
    fast = _run("redis", "hetero-lru", True, epochs=4, **kwargs)
    assert fast == reference, label


def _plan_from(seed, drop_p, derate_p):
    """A small deterministic fault plan built from drawn parameters."""
    return FaultPlan.from_dict(
        {
            "seed": seed,
            "faults": [
                {"kind": "channel-drop", "probability": drop_p},
                {
                    "kind": "device-derate",
                    "probability": derate_p,
                    "start_epoch": 1,
                    "latency_factor": 2.0,
                },
            ],
        }
    )


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    footprint_gib=st.sampled_from([0.25, 0.5, 1.0]),
    io_intensity=st.sampled_from([0.1, 0.3, 0.6]),
    locality_skew=st.sampled_from([0.4, 0.7, 0.9]),
    mpki=st.sampled_from([4.0, 12.0, 24.0]),
    periodic_cold=st.booleans(),
    with_faults=st.booleans(),
    drop_p=st.sampled_from([0.1, 0.2, 0.5]),
)
@settings(max_examples=8, deadline=None)
def test_synthetic_workloads_are_bit_identical(
    seed, footprint_gib, io_intensity, locality_skew, mpki,
    periodic_cold, with_faults, drop_p,
):
    def workload():
        # Rebuilt per run: statistical workloads carry RNG state.
        return make_synthetic(
            seed,
            footprint_gib=footprint_gib,
            io_intensity=io_intensity,
            locality_skew=locality_skew,
            mpki=mpki,
            run_epochs=4,
            periodic_cold=periodic_cold,
        )

    faults = _plan_from(seed, drop_p, 0.3) if with_faults else None
    reference = _run(workload(), "hetero-lru", False,
                     epochs=4, slow_gib=1.0, faults=faults)
    fast = _run(workload(), "hetero-lru", True,
                epochs=4, slow_gib=1.0, faults=faults)
    assert fast == reference


def _multi_vm(policy_name, sharing_cls, fast, *, weights=None,
              sanitize=False, epochs=20):
    """One Figure 13 scenario: per-VM results, dominant shares and
    per-domain grants."""
    specs = fig13_vmspecs(policy_name)
    for spec in specs:
        spec.weights.update(weights or {})
    sim = MultiVmSimulation(
        fig13_devices(),
        specs,
        sharing_policy=sharing_cls(),
        config=SimConfig(fast_path=fast, sanitize=sanitize),
    )
    results = sim.run(epochs)
    # Every guest really ran on the structures the flag selects.
    lrus = {
        type(lru).__name__
        for engine in sim.engines.values()
        for lru in engine.kernel.lru.values()
    }
    assert lrus == {"FastSplitLru" if fast else "SplitLru"}
    domains = list(sim.hypervisor.domains.values())
    return (
        {name: dataclasses.asdict(result) for name, result in results.items()},
        WeightedDrf().dominant_shares(sim.hypervisor.machine, domains),
        {d.name: (d.granted_pages, d.granted_frames) for d in domains},
    )


@pytest.mark.parametrize(
    "policy_name, sharing_cls, kwargs",
    [
        ("vmm-exclusive", MaxMinSharing, {}),
        ("slowmem-only", MaxMinSharing, {}),
        ("hetero-coordinated", MaxMinSharing, {}),
        ("hetero-coordinated", WeightedDrf, {}),
        # Ablation G's unweighted DRF.
        ("hetero-coordinated", WeightedDrf,
         dict(weights={NodeTier.FAST: 1.0, NodeTier.SLOW: 1.0})),
        # The per-page shadow checks make sanitized epochs ~40x dearer.
        ("hetero-coordinated", MaxMinSharing, dict(sanitize=True, epochs=4)),
    ],
    ids=["vmm-exclusive", "slowmem-only", "coordinated-maxmin",
         "coordinated-drf", "coordinated-unweighted-drf",
         "coordinated-maxmin-sanitize"],
)
def test_multi_vm_is_bit_identical(policy_name, sharing_cls, kwargs):
    reference = _multi_vm(policy_name, sharing_cls, False, **kwargs)
    fast = _multi_vm(policy_name, sharing_cls, True, **kwargs)
    assert fast == reference
