"""heterocontract — cross-layer contract-drift analysis.

Fourth member of the devtools family (heterolint sees one file,
heteroflow sees the call graph, heteroeffect sees state, heterocontract
sees *parallel declarations*): the repo's correctness story rests on
several hand-maintained mirrored lists — spec fields vs. the canonical
cache key, sample fields vs. run aggregates, fault kinds vs. their
degradation handlers, policy/workload classes vs. their registries —
and each upcoming ROADMAP item adds entries to every one of them.
heterocontract turns that drift into a build break:

* a small declarative core — field-set extractors over dataclasses,
  registry literals, and canonical-JSON serializers
  (:mod:`~repro.devtools.contract.extract`) plus a generic
  *field-parity* primitive (:mod:`~repro.devtools.contract.parity`);
* five rules (:mod:`~repro.devtools.contract.rules`) instantiating it,
  run as ``repro lint --contracts`` (``contract-`` rule ids, fifth
  SARIF tool run, same suppressions/baseline as every other layer).

Modules under analysis declare their deliberate exceptions as
pure-literal markers read statically (``CACHE_KEY_EXCLUDED``,
``NON_ADDITIVE_FIELDS``, ``UNSAMPLED_AGGREGATES``,
``OBS_WRITE_ALLOWLIST``, ``UNREGISTERED_FACTORIES``) — the same
no-import idiom as ``WORKER_ENTRY_POINTS`` and ``STEP_PHASES``.
"""

from __future__ import annotations

from repro.devtools.contract.extract import (
    dataclass_fields,
    load_marker,
    returned_dict_keys,
)
from repro.devtools.contract.parity import (
    Exclusions,
    FieldSet,
    field_parity,
)
from repro.devtools.contract.rules import (
    ContractRules,
    contract_rule_metadata,
)

__all__ = [
    "ContractRules",
    "Exclusions",
    "FieldSet",
    "contract_rule_metadata",
    "dataclass_fields",
    "field_parity",
    "load_marker",
    "returned_dict_keys",
]
