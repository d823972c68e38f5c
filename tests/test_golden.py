"""Golden-digest corpus: recorded evidence that simulated results stay put.

Every case runs one simulation and hashes its result: sha256 of the
canonical JSON of ``dataclasses.asdict(RunResult)`` — sorted keys, enums
as ``Type.NAME``, dict keys as ``str``, the timeline kept.  The digests
in ``golden_digests.json`` pin every field's value bit for bit, so a
change of allocation choices or float addition order that moves any
simulated number fails here.

The corpus covers every registered workload under every policy, the
fault/telemetry/sanitizer modes, fixed draws of the synthetic-workload
generator, and the Figure 13 multi-VM scenarios (per-VM results,
dominant shares and per-domain grants).

Regenerate the digest file by running this module as a script::

    PYTHONPATH=src python tests/test_golden.py

A digest update is a change of simulated results: say in CHANGES.md
which numbers moved and why.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pathlib
import sys

import pytest

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
from repro.workloads.registry import available_workloads
from repro.workloads.synthetic import make_synthetic

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden_digests.json"
FAULT_PLAN = FaultPlan.from_dict(
    json.loads((REPO_ROOT / "examples" / "faultplan.json").read_text(encoding="utf-8"))
)
#: The example plan's kinds at probability 0.6 for the whole run: the
#: example plan fires nothing on a short redis x hetero-lru run, this
#: one fires channel drops, derates, stale scans and swap write errors.
DENSE_FAULT_PLAN = FaultPlan.from_dict(
    {
        "seed": FAULT_PLAN.seed,
        "faults": [
            {"kind": spec.kind, "probability": 0.6,
             "start_epoch": spec.start_epoch,
             "latency_factor": spec.latency_factor,
             "bandwidth_factor": spec.bandwidth_factor}
            for spec in FAULT_PLAN.faults
        ],
    }
)


def _plain(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        return {str(_plain(key)): _plain(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def digest(value) -> str:
    """sha256 of ``value`` as canonical JSON (see the module docstring)."""
    payload = json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------


def _run(app, policy_name, *, epochs, slow_gib=2.0, faults=None,
         telemetry=False, sanitize=False):
    policy = make_policy(policy_name)
    config = build_config(
        fast_ratio=0.25,
        slow_gib=slow_gib,
        unlimited_fast=policy.requires_unlimited_fast,
    )
    config.sanitize = sanitize
    bus = Telemetry() if telemetry else None
    return run_experiment(
        app, policy, epochs=epochs, config=config, telemetry=bus, faults=faults
    )


def _synthetic(seed, footprint_gib, io_intensity, locality_skew, mpki,
               periodic_cold, drop_p):
    workload = make_synthetic(
        seed,
        footprint_gib=footprint_gib,
        io_intensity=io_intensity,
        locality_skew=locality_skew,
        mpki=mpki,
        run_epochs=4,
        periodic_cold=periodic_cold,
    )
    faults = None
    if drop_p is not None:
        faults = FaultPlan.from_dict(
            {
                "seed": seed,
                "faults": [
                    {"kind": "channel-drop", "probability": drop_p},
                    {
                        "kind": "device-derate",
                        "probability": 0.3,
                        "start_epoch": 1,
                        "latency_factor": 2.0,
                    },
                ],
            }
        )
    return _run(workload, "hetero-lru", epochs=4, slow_gib=1.0, faults=faults)


def _multi_vm(policy_name, sharing_cls, *, weights=None, sanitize=False,
              epochs=20):
    specs = fig13_vmspecs(policy_name)
    for spec in specs:
        spec.weights.update(weights or {})
    sim = MultiVmSimulation(
        fig13_devices(),
        specs,
        sharing_policy=sharing_cls(),
        config=SimConfig(sanitize=sanitize),
    )
    results = sim.run(epochs)
    domains = list(sim.hypervisor.domains.values())
    return (
        results,
        WeightedDrf().dominant_shares(sim.hypervisor.machine, domains),
        {d.name: (d.granted_pages, d.granted_frames) for d in domains},
    )


def _cases() -> dict:
    """Case id -> zero-argument callable producing the value to hash."""
    cases = {}
    for app in available_workloads():
        for policy_name in available_policies():
            cases[f"grid/{app}/{policy_name}"] = (
                lambda app=app, policy_name=policy_name:
                _run(app, policy_name, epochs=6)
            )
    for label, kwargs in (
        ("faults", dict(faults=FAULT_PLAN)),
        ("telemetry", dict(telemetry=True)),
        ("faults+telemetry", dict(faults=FAULT_PLAN, telemetry=True)),
        ("sanitize", dict(sanitize=True)),
        ("sanitize+faults", dict(sanitize=True, faults=FAULT_PLAN)),
    ):
        cases[f"mode/{label}"] = (
            lambda kwargs=kwargs: _run("redis", "hetero-lru", epochs=4, **kwargs)
        )
    for label, policy_name, sanitize in (
        ("dense-faults/hetero-lru", "hetero-lru", False),
        ("dense-faults/hetero-coordinated", "hetero-coordinated", False),
        ("dense-faults+sanitize/hetero-coordinated", "hetero-coordinated", True),
    ):
        cases[f"mode/{label}"] = (
            lambda policy_name=policy_name, sanitize=sanitize: _run(
                "graphchi", policy_name, epochs=8, faults=DENSE_FAULT_PLAN,
                sanitize=sanitize,
            )
        )
    # Fixed draws over the synthetic generator's parameter space:
    # (seed, footprint GiB, io intensity, locality skew, mpki,
    # periodic cold, channel-drop probability or None for no faults).
    for draw in (
        (0, 0.25, 0.1, 0.4, 4.0, False, None),
        (1, 0.5, 0.3, 0.7, 12.0, True, None),
        (2, 1.0, 0.6, 0.9, 24.0, True, 0.2),
        (17, 0.25, 0.6, 0.7, 24.0, False, 0.5),
        (257, 0.5, 0.1, 0.9, 4.0, True, 0.1),
        (4099, 1.0, 0.3, 0.4, 12.0, False, None),
        (31337, 0.5, 0.6, 0.4, 12.0, True, 0.5),
        (65536, 1.0, 0.1, 0.7, 24.0, False, 0.2),
    ):
        cases["synthetic/" + "-".join(map(str, draw))] = (
            lambda draw=draw: _synthetic(*draw)
        )
    for label, policy_name, sharing_cls, kwargs in (
        ("vmm-exclusive", "vmm-exclusive", MaxMinSharing, {}),
        ("slowmem-only", "slowmem-only", MaxMinSharing, {}),
        ("coordinated-maxmin", "hetero-coordinated", MaxMinSharing, {}),
        ("coordinated-drf", "hetero-coordinated", WeightedDrf, {}),
        # Ablation G's unweighted DRF.
        ("coordinated-unweighted-drf", "hetero-coordinated", WeightedDrf,
         dict(weights={NodeTier.FAST: 1.0, NodeTier.SLOW: 1.0})),
        # The per-page shadow checks make sanitized epochs ~40x dearer.
        ("coordinated-maxmin-sanitize", "hetero-coordinated", MaxMinSharing,
         dict(sanitize=True, epochs=4)),
    ):
        cases[f"multi-vm/{label}"] = (
            lambda policy_name=policy_name, sharing_cls=sharing_cls,
            kwargs=kwargs: _multi_vm(policy_name, sharing_cls, **kwargs)
        )
    return cases


CASES = _cases()


def _recorded() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_corpus_covers_exactly_the_recorded_cases():
    assert sorted(CASES) == sorted(_recorded())


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_digest_matches_recorded(case_id):
    assert digest(CASES[case_id]()) == _recorded()[case_id], case_id


def main() -> int:
    digests = {case_id: digest(CASES[case_id]()) for case_id in sorted(CASES)}
    GOLDEN_PATH.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
