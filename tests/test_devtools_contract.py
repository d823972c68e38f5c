"""Meta-tests: each heterocontract rule demonstrably fires.

A contract checker that never fires is indistinguishable from one that
checks nothing, so every rule gets the same treatment the effect
certifier got in test_effect_clean.py: copy the real package, seed one
specific contract drift with an anchored string replacement (the
assert on the anchor count makes a silently-moved anchor a test
failure, not a silent no-op), re-run :class:`ContractRules`, and
assert the matching rule reports the drifted name.  The seeded drifts
are exactly the regressions the rules were built for:

* dropping a field from ``ExperimentSpec.canonical`` (a cache-key
  collision in waiting) -> ``contract-spec-field``;
* adding a ``RunStats`` counter no epoch sample feeds (a number that
  can only ever read zero) -> ``contract-sample-sum``;
* declaring a fault kind that no component ever fires (dead chaos
  coverage) -> ``contract-fault-kind``;
* writing a module global from the telemetry plane (breaks the PR 4
  no-perturbation contract) -> ``contract-obs-pure``;
* unregistering a workload factory (silently unreachable from the
  CLI) -> ``contract-registry``.
"""

from __future__ import annotations

import pathlib
import shutil

import repro
from repro.devtools.contract import ContractRules, contract_rule_metadata
from repro.devtools.effect import EffectAnalysis
from repro.devtools.flow import ProjectIndex

PACKAGE_DIR = pathlib.Path(repro.__file__).parent

CONTRACT_RULE_IDS = {
    "contract-spec-field",
    "contract-sample-sum",
    "contract-fault-kind",
    "contract-obs-pure",
    "contract-registry",
}


def _seeded_findings(tmp_path, edits, with_analysis=False):
    """Contract findings over a package copy with ``edits`` applied.

    ``edits`` is a list of ``(relpath, anchor, replacement)``; each
    anchor must occur exactly once so a refactor that moves it breaks
    the test loudly instead of turning it into a no-op.
    """
    copy_dir = tmp_path / "repro"
    shutil.copytree(
        PACKAGE_DIR, copy_dir, ignore=shutil.ignore_patterns("__pycache__")
    )
    for relpath, anchor, replacement in edits:
        target = copy_dir / relpath
        source = target.read_text(encoding="utf-8")
        assert source.count(anchor) == 1, (
            f"seed anchor moved in {relpath}; update test"
        )
        target.write_text(
            source.replace(anchor, replacement), encoding="utf-8"
        )
    index = ProjectIndex.build([copy_dir])
    analysis = EffectAnalysis(index) if with_analysis else None
    return [
        finding for _anchor, finding in ContractRules(index, analysis).check()
    ]


def _matching(findings, rule_id, needle):
    return [
        f
        for f in findings
        if f.rule_id == rule_id and needle in f.message
    ]


def test_contract_rule_metadata_names_every_rule():
    metadata = contract_rule_metadata()
    assert set(metadata) == CONTRACT_RULE_IDS
    for rule_id, rationale in metadata.items():
        assert rationale and rationale != rule_id


def test_dropped_canonical_field_fires_spec_field(tmp_path):
    findings = _seeded_findings(
        tmp_path,
        [("sim/parallel.py", '            "seed": self.seed,\n', "")],
    )
    hits = _matching(findings, "contract-spec-field", "'seed'")
    assert hits, [f.format() for f in findings]
    # Anchored on the drifted declaration, not some unrelated file.
    assert any("parallel.py" in f.path for f in hits)


def test_uncovered_runstats_counter_fires_sample_sum(tmp_path):
    findings = _seeded_findings(
        tmp_path,
        [(
            "sim/stats.py",
            "    dropped_allocation_pages: int = 0\n",
            "    dropped_allocation_pages: int = 0\n"
            "    retry_count: int = 0\n",
        )],
    )
    hits = _matching(findings, "contract-sample-sum", "retry_count")
    assert hits, [f.format() for f in findings]


def test_unfired_fault_kind_fires_fault_kind(tmp_path):
    # Neutralize the only fires("swap-write-error") site: the kind
    # stays declared in FAULT_KINDS but nothing can ever trigger it.
    findings = _seeded_findings(
        tmp_path,
        [(
            "guestos/swap.py",
            'self.faults.fires("swap-write-error") is not None',
            "False",
        )],
    )
    hits = _matching(findings, "contract-fault-kind", "swap-write-error")
    assert hits, [f.format() for f in findings]


def test_obs_global_write_fires_obs_pure(tmp_path):
    findings = _seeded_findings(
        tmp_path,
        [
            (
                "obs/bus.py",
                "class Telemetry:",
                "_EVENT_TOTAL = 0\n\n\nclass Telemetry:",
            ),
            (
                "obs/bus.py",
                "        self._pending_events.append(record)\n",
                "        self._pending_events.append(record)\n"
                "        global _EVENT_TOTAL\n"
                "        _EVENT_TOTAL = _EVENT_TOTAL + 1\n",
            ),
        ],
        with_analysis=True,
    )
    hits = _matching(findings, "contract-obs-pure", "_EVENT_TOTAL")
    assert hits, [f.format() for f in findings]


def test_unregistered_factory_fires_registry(tmp_path):
    findings = _seeded_findings(
        tmp_path,
        [("workloads/registry.py", '    "nginx": make_nginx,\n', "")],
    )
    hits = _matching(findings, "contract-registry", "make_nginx")
    assert hits, [f.format() for f in findings]


def test_seeded_drift_only_fires_its_own_rule(tmp_path):
    # The registry seeding must not bleed into unrelated rules — each
    # contract rule watches its own declaration pair.
    findings = _seeded_findings(
        tmp_path,
        [("workloads/registry.py", '    "nginx": make_nginx,\n', "")],
    )
    assert {f.rule_id for f in findings} == {"contract-registry"}, [
        f.format() for f in findings
    ]
