"""The five heterocontract rules.

Each rule instantiates the :mod:`~repro.devtools.contract.parity`
primitive (or the effect summaries) over a pair of hand-maintained
declarations that PR history shows drift apart:

* ``contract-spec-field`` — ExperimentSpec / ThrottleConfig /
  HotnessConfig / FaultPlan fields vs. the canonical-JSON cache key in
  ``sim/parallel.py``; a silently-dropped field is a silent cache
  collision across the whole sweep substrate.
* ``contract-sample-sum`` — EpochSample additive fields vs. RunStats /
  RunResult aggregates, both directions, modulo the declared
  ``NON_ADDITIVE_FIELDS`` / ``UNSAMPLED_AGGREGATES`` lists in
  ``obs/sample.py``.
* ``contract-fault-kind`` — every ``FAULT_KINDS`` entry has a
  ``KIND_SOURCES`` telemetry source naming a real module and a
  ``fires("<kind>")`` degradation handler reachable from the engine.
* ``contract-obs-pure`` — the PR 4 no-perturbation contract, certified
  statically: nothing reachable from ``obs/`` writes state outside
  obs-owned classes (plus the declared ``OBS_WRITE_ALLOWLIST``).
* ``contract-registry`` — policy/workload registries are exhaustive
  against the classes and factories actually defined.

Findings reuse heterolint's :class:`Finding` shape, so suppression
comments, the committed baseline, and SARIF output all apply; the
SARIF log groups them under a fifth ``heterocontract`` tool run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.devtools.contract.extract import (
    call_sites_of,
    dataclass_fields,
    decorated_registrations,
    dict_literal_entries,
    load_marker,
    marker_site,
    returned_dict_keys,
    used_attribute_names,
    used_call_names,
)
from repro.devtools.contract.parity import (
    Exclusions,
    FieldSet,
    field_parity,
)
from repro.devtools.effect.summary import EffectAnalysis
from repro.devtools.flow.graph import ClassInfo, ProjectIndex
from repro.devtools.lint import FileContext, Finding

__all__ = ["ContractRules", "contract_rule_metadata"]


def contract_rule_metadata() -> "dict[str, str]":
    """Every contract rule id -> one-line rationale (the ``contract-``
    part of the namespace documented in docs/devtools.md)."""
    return {
        "contract-spec-field": (
            "a spec/config field that does not flow into the canonical "
            "cache key makes two different experiments share one cache "
            "entry — silent cache collisions across the sweep substrate"
        ),
        "contract-sample-sum": (
            "EpochSample additive fields and RunStats/RunResult "
            "aggregates must mirror each other (modulo the declared "
            "non-additive list) or timeline sums silently stop "
            "reproducing run totals"
        ),
        "contract-fault-kind": (
            "a fault kind without a reachable fires() degradation "
            "handler or a telemetry source is injectable but inert — "
            "chaos runs silently test nothing"
        ),
        "contract-obs-pure": (
            "nothing reachable from the observability plane may write "
            "non-obs state (the no-perturbation contract): telemetry "
            "observes, never steers"
        ),
        "contract-registry": (
            "a policy class or workload factory missing from its "
            "registry is invisible to sweeps, figures, and the "
            "equivalence harness — dead code that looks implemented"
        ),
    }


@dataclass
class _Anchor:
    """Carries the finding's file context so ``deep_lint_paths`` can
    honor suppression comments, mirroring ``(FunctionInfo, Finding)``
    pairs from the other deep analyses."""

    ctx: FileContext


def _pattern_match(ident: str, patterns: "tuple[str, ...]") -> bool:
    for pattern in patterns:
        if pattern.endswith("*"):
            if ident.startswith(pattern[:-1]):
                return True
        elif ident == pattern:
            return True
    return False


class ContractRules:
    """Run the five contract rules over one project index.

    ``analysis`` (the heteroeffect fixpoint) powers the obs-purity rule
    and the fault-handler reachability check; pass ``None`` to skip
    those (the pure field-parity rules still run).
    """

    def __init__(
        self,
        index: ProjectIndex,
        analysis: "EffectAnalysis | None" = None,
    ) -> None:
        self.index = index
        self.analysis = analysis
        self._ctx_by_path: "dict[str, FileContext]" = {
            module.ctx.relpath: module.ctx
            for module in index.modules.values()
        }

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def check(self) -> "Iterator[tuple[_Anchor, Finding]]":
        for finding in self._spec_field():
            yield self._pair(finding)
        for finding in self._sample_sum():
            yield self._pair(finding)
        for finding in self._fault_kind():
            yield self._pair(finding)
        for finding in self._obs_pure():
            yield self._pair(finding)
        for finding in self._registry():
            yield self._pair(finding)

    def _pair(self, finding: Finding) -> "tuple[_Anchor, Finding]":
        ctx = self._ctx_by_path.get(finding.path)
        if ctx is None:
            # Finding in a file the index did not parse; synthesize an
            # empty context so suppression lookup is a no-op.
            ctx = FileContext.parse("", finding.path)
        return _Anchor(ctx), finding

    # ------------------------------------------------------------------
    # Shared extraction helpers
    # ------------------------------------------------------------------

    def _class(self, module: str, name: str) -> "ClassInfo | None":
        return self.index.classes.get(f"{module}.{name}")

    def _class_fieldset(
        self, cinfo: ClassInfo, label: str
    ) -> FieldSet:
        module = self.index.modules[cinfo.module]
        return FieldSet(
            label=label,
            path=module.ctx.relpath,
            line=cinfo.node.lineno,
            fields=dataclass_fields(cinfo),
        )

    def _serializer_fieldset(
        self, qualname: str, label: str
    ) -> "FieldSet | None":
        info = self.index.functions.get(qualname)
        if info is None:
            return None
        return FieldSet(
            label=label,
            path=info.ctx.relpath,
            line=info.node.lineno,
            fields=returned_dict_keys(info),
        )

    def _exclusions(self, module_name: str, marker: str) -> Exclusions:
        """The declared exclusion map, or an empty one anchored at the
        module head when the marker is absent."""
        value = load_marker(self.index, module_name, marker)
        site = marker_site(self.index, module_name, marker)
        module = self.index.modules.get(module_name)
        path = module.ctx.relpath if module is not None else module_name
        if site is not None and isinstance(value, dict):
            return Exclusions(
                label=marker, path=site[0], line=site[1], reasons=value
            )
        return Exclusions(label=marker, path=path, line=1, reasons={})

    def _tuple_fieldset(
        self, module_name: str, marker: str, label: str
    ) -> "FieldSet | None":
        value = load_marker(self.index, module_name, marker)
        site = marker_site(self.index, module_name, marker)
        if site is None or not isinstance(value, (tuple, list)):
            return None
        return FieldSet(
            label=label,
            path=site[0],
            line=site[1],
            fields={str(name): site[1] for name in value},
        )

    def _reachable_from(
        self, root_modules: "tuple[str, ...]"
    ) -> "set[str]":
        """Qualnames reachable (BFS over effect reach edges) from every
        function defined in the given modules."""
        assert self.analysis is not None
        reached: "set[str]" = set()
        queue: "list[str]" = [
            qualname
            for qualname, info in self.index.functions.items()
            if info.module in root_modules
        ]
        reached.update(queue)
        while queue:
            current = queue.pop()
            for callee in self.analysis.reach_edges.get(current, ()):
                if callee not in reached:
                    reached.add(callee)
                    queue.append(callee)
        return reached

    # ------------------------------------------------------------------
    # contract-spec-field
    # ------------------------------------------------------------------

    #: (module, dataclass, canonical-serializer qualname) triples whose
    #: field sets must mirror their serializer's dict keys exactly.
    _CANONICAL_PAIRS = (
        ("sim.parallel", "ExperimentSpec", "ExperimentSpec.canonical"),
        ("faults", "FaultPlan", "FaultPlan.canonical"),
        ("faults", "FaultSpec", "FaultSpec.canonical"),
    )

    #: Config classes that reach the cache key through make_spec
    #: normalization: "attrs" means every field must be read by name in
    #: make_spec; "asdict" means a dataclasses.asdict() call carries
    #: all fields wholesale (future fields flow automatically).
    _SPEC_SOURCES = (
        ("hw.throttle", "ThrottleConfig", "attrs"),
        ("vmm.hotness", "HotnessConfig", "asdict"),
    )

    _SPEC_MODULE = "sim.parallel"

    def _spec_field(self) -> "Iterator[Finding]":
        rule = "contract-spec-field"
        excluded = self._exclusions(self._SPEC_MODULE, "CACHE_KEY_EXCLUDED")
        spec_field_names: "set[str]" = set()
        canonical_keys: "set[str]" = set()
        for module, cls_name, serializer in self._CANONICAL_PAIRS:
            cinfo = self._class(module, cls_name)
            keys = self._serializer_fieldset(
                f"{module}.{serializer}",
                f"{cls_name}.canonical() cache-key dict",
            )
            if cinfo is None or keys is None:
                continue
            fields = self._class_fieldset(cinfo, f"{cls_name}")
            if cls_name == "ExperimentSpec":
                spec_field_names = set(fields.fields)
                canonical_keys = set(keys.fields)
            yield from field_parity(
                rule, fields, keys,
                excluded=excluded if cls_name == "ExperimentSpec" else None,
                check_stale=False,
                function=f"{module}.{serializer}",
            )
        make_spec = self.index.functions.get(f"{self._SPEC_MODULE}.make_spec")
        spec_cls = self._class(self._SPEC_MODULE, "ExperimentSpec")
        if make_spec is not None and spec_cls is not None:
            params = {
                arg.arg: arg.lineno
                for arg in (
                    make_spec.node.args.posonlyargs
                    + make_spec.node.args.args
                    + make_spec.node.args.kwonlyargs
                )
                if arg.arg not in ("self", "cls")
            }
            param_set = FieldSet(
                label="make_spec() parameters",
                path=make_spec.ctx.relpath,
                line=make_spec.node.lineno,
                fields=params,
            )
            spec_fields = self._class_fieldset(
                spec_cls, "ExperimentSpec fields"
            )
            # A make_spec argument that never lands in the spec is
            # silently dropped from the key; a spec field make_spec
            # cannot populate is unreachable from every driver.
            yield from field_parity(
                rule, param_set, spec_fields,
                function=f"{self._SPEC_MODULE}.make_spec",
            )
            spec_attrs = used_attribute_names(make_spec)
            spec_calls = used_call_names(make_spec)
            for module, cls_name, mode in self._SPEC_SOURCES:
                cinfo = self._class(module, cls_name)
                if cinfo is None:
                    continue
                mod = self.index.modules[cinfo.module]
                if mode == "asdict":
                    if "asdict" not in spec_calls:
                        yield Finding(
                            rule_id=rule,
                            path=mod.ctx.relpath,
                            line=cinfo.node.lineno,
                            col=0,
                            message=(
                                f"{cls_name} is declared to flow into the "
                                "cache key wholesale, but make_spec() has "
                                "no dataclasses.asdict() call flattening "
                                "it; its fields no longer reach the key"
                            ),
                            function=f"{self._SPEC_MODULE}.make_spec",
                        )
                    continue
                for name, line in sorted(
                    dataclass_fields(cinfo).items()
                ):
                    if name in spec_attrs or excluded.covers(name):
                        continue
                    yield Finding(
                        rule_id=rule,
                        path=mod.ctx.relpath,
                        line=line,
                        col=0,
                        message=(
                            f"{cls_name} field {name!r} never flows into "
                            "the ExperimentSpec cache key (make_spec() "
                            "does not read it); normalize it in "
                            "make_spec or declare it in "
                            "CACHE_KEY_EXCLUDED with a reason"
                        ),
                        function=f"{self._SPEC_MODULE}.make_spec",
                    )
        run_spec = self.index.functions.get(f"{self._SPEC_MODULE}.run_spec")
        run_extras: "dict[str, int]" = {}
        if run_spec is not None:
            run_extras = {
                arg.arg: arg.lineno
                for arg in run_spec.node.args.args[1:]
                + run_spec.node.args.kwonlyargs
            }
            yield from field_parity(
                rule,
                FieldSet(
                    label="run_spec() non-spec parameters",
                    path=run_spec.ctx.relpath,
                    line=run_spec.node.lineno,
                    fields=run_extras,
                ),
                FieldSet(
                    label="the ExperimentSpec cache key",
                    path=run_spec.ctx.relpath,
                    line=run_spec.node.lineno,
                ),
                excluded=excluded,
                check_right=False,
                check_stale=False,
                function=f"{self._SPEC_MODULE}.run_spec",
            )
        # Validate the shared exclusion map once: every entry must still
        # name either a non-spec run input or a spec field deliberately
        # kept out of the canonical key.
        for name in sorted(excluded.reasons):
            reason = excluded.reasons[name]
            if not isinstance(reason, str) or not reason.strip():
                yield Finding(
                    rule_id=rule,
                    path=excluded.path,
                    line=excluded.line,
                    col=0,
                    message=(
                        f"CACHE_KEY_EXCLUDED entry {name!r} needs a "
                        "non-empty reason string"
                    ),
                    function=f"{self._SPEC_MODULE}.run_spec",
                )
            elif name in canonical_keys:
                yield Finding(
                    rule_id=rule,
                    path=excluded.path,
                    line=excluded.line,
                    col=0,
                    message=(
                        f"stale CACHE_KEY_EXCLUDED entry {name!r}: the "
                        "field is part of the canonical cache key after "
                        "all"
                    ),
                    function=f"{self._SPEC_MODULE}.run_spec",
                )
            elif name not in run_extras and name not in spec_field_names:
                yield Finding(
                    rule_id=rule,
                    path=excluded.path,
                    line=excluded.line,
                    col=0,
                    message=(
                        f"stale CACHE_KEY_EXCLUDED entry {name!r}: "
                        "neither a run_spec parameter nor an "
                        "ExperimentSpec field uses that name"
                    ),
                    function=f"{self._SPEC_MODULE}.run_spec",
                )

    # ------------------------------------------------------------------
    # contract-sample-sum
    # ------------------------------------------------------------------

    _SAMPLE_MODULE = "obs.sample"
    _STATS_MODULE = "sim.stats"

    def _sample_sum(self) -> "Iterator[Finding]":
        rule = "contract-sample-sum"
        sample_cls = self._class(self._SAMPLE_MODULE, "EpochSample")
        stats_cls = self._class(self._STATS_MODULE, "RunStats")
        result_cls = self._class(self._STATS_MODULE, "RunResult")
        if sample_cls is None or stats_cls is None:
            return
        sample_fields = self._class_fieldset(sample_cls, "EpochSample")
        # (a) The dataclass and the serialization-order tuples must
        # agree exactly, or to_dict()/from_dict() silently drop fields.
        scalar = self._tuple_fieldset(
            self._SAMPLE_MODULE, "_SCALAR_FIELDS", "_SCALAR_FIELDS"
        )
        dicts = self._tuple_fieldset(
            self._SAMPLE_MODULE, "_DICT_FIELDS", "_DICT_FIELDS"
        )
        if scalar is not None and dicts is not None:
            serialized = FieldSet(
                label="the _SCALAR_FIELDS/_DICT_FIELDS serialization order",
                path=scalar.path,
                line=scalar.line,
                fields={**scalar.fields, **dicts.fields},
            )
            yield from field_parity(
                rule, sample_fields, serialized,
                function=f"{self._SAMPLE_MODULE}.EpochSample.to_dict",
            )
        # (b) Additive sample fields must re-sum into a same-named
        # RunStats/RunResult aggregate; declared non-additive fields
        # (gauges, ordinals, cumulative counter readings) are exempt.
        aggregates: "dict[str, int]" = dict(
            dataclass_fields(stats_cls)
        )
        if result_cls is not None:
            for name, line in dataclass_fields(result_cls).items():
                aggregates.setdefault(name, line)
        stats_path = self.index.modules[stats_cls.module].ctx.relpath
        aggregate_set = FieldSet(
            label="RunStats/RunResult aggregates",
            path=stats_path,
            line=stats_cls.node.lineno,
            fields=aggregates,
        )
        non_additive = self._exclusions(
            self._SAMPLE_MODULE, "NON_ADDITIVE_FIELDS"
        )
        yield from field_parity(
            rule, sample_fields, aggregate_set,
            excluded=non_additive,
            check_right=False,
            function=f"{self._SAMPLE_MODULE}.EpochSample",
        )
        # (c) Reverse direction: every RunStats aggregate is fed by a
        # same-named sample field or is declared unsampled.
        unsampled = self._exclusions(
            self._SAMPLE_MODULE, "UNSAMPLED_AGGREGATES"
        )
        yield from field_parity(
            rule,
            FieldSet(
                label="RunStats",
                path=stats_path,
                line=stats_cls.node.lineno,
                fields=dataclass_fields(stats_cls),
            ),
            FieldSet(
                label="EpochSample per-epoch fields",
                path=sample_fields.path,
                line=sample_fields.line,
                fields=sample_fields.fields,
            ),
            excluded=unsampled,
            check_right=False,
            function=f"{self._STATS_MODULE}.RunStats",
        )

    # ------------------------------------------------------------------
    # contract-fault-kind
    # ------------------------------------------------------------------

    _FAULTS_MODULE = "faults"
    #: Modules whose functions root the engine-reachability walk for
    #: degradation handlers (the simulation paths a sweep exercises).
    _ENGINE_ROOTS = ("sim.engine", "sim.runner", "sim.parallel")

    def _fault_kind(self) -> "Iterator[Finding]":
        rule = "contract-fault-kind"
        kinds = self._tuple_fieldset(
            self._FAULTS_MODULE, "FAULT_KINDS", "FAULT_KINDS"
        )
        if kinds is None:
            return
        sources = load_marker(
            self.index, self._FAULTS_MODULE, "KIND_SOURCES"
        )
        sources_site = marker_site(
            self.index, self._FAULTS_MODULE, "KIND_SOURCES"
        )
        if isinstance(sources, dict) and sources_site is not None:
            source_set = FieldSet(
                label="KIND_SOURCES telemetry sources",
                path=sources_site[0],
                line=sources_site[1],
                fields={name: sources_site[1] for name in sources},
            )
            yield from field_parity(
                rule, kinds, source_set,
                function=f"{self._FAULTS_MODULE}.KIND_SOURCES",
            )
            for kind in sorted(sources):
                component = sources[kind]
                if (
                    isinstance(component, str)
                    and component in self.index.modules
                ):
                    continue
                yield Finding(
                    rule_id=rule,
                    path=source_set.path,
                    line=source_set.line,
                    col=0,
                    message=(
                        f"KIND_SOURCES[{kind!r}] names component "
                        f"{component!r}, which is not a project module; "
                        "telemetry events would carry a dangling source"
                    ),
                    function=f"{self._FAULTS_MODULE}.KIND_SOURCES",
                )
        sites: "dict[str, list]" = {}
        for info, kind, line, col in call_sites_of(self.index, "fires"):
            if info.module == self._FAULTS_MODULE:
                continue
            sites.setdefault(kind, []).append((info, line, col))
        for kind, kind_sites in sorted(sites.items()):
            if kind in kinds.fields:
                continue
            info, line, col = kind_sites[0]
            yield Finding(
                rule_id=rule,
                path=info.ctx.relpath,
                line=line,
                col=col,
                message=(
                    f"fires({kind!r}) names a fault kind missing from "
                    "FAULT_KINDS; the spec validator would reject any "
                    "plan that could ever trigger this handler"
                ),
                function=info.qualname,
            )
        reachable: "set[str] | None" = None
        constructed: "set[str] | None" = None
        if self.analysis is not None:
            reachable = self._reachable_from(self._ENGINE_ROOTS)
            constructed = self._constructed_class_names()
        for kind in sorted(kinds.fields):
            kind_sites = sites.get(kind, [])
            if not kind_sites:
                yield Finding(
                    rule_id=rule,
                    path=kinds.path,
                    line=kinds.line,
                    col=0,
                    message=(
                        f"fault kind {kind!r} has no fires({kind!r}) "
                        "degradation handler in any component; it is "
                        "injectable but inert"
                    ),
                    function=f"{self._FAULTS_MODULE}.FAULT_KINDS",
                )
                continue
            if reachable is None:
                continue
            # A handler is live if the call graph reaches it from the
            # engine, something resolvable calls it, or (for methods
            # invoked through dynamic dispatch the graph cannot
            # resolve) its component class is constructed somewhere.
            if not any(
                self._handler_live(info, reachable, constructed or set())
                for info, _l, _c in kind_sites
            ):
                info, line, col = kind_sites[0]
                yield Finding(
                    rule_id=rule,
                    path=info.ctx.relpath,
                    line=line,
                    col=col,
                    message=(
                        f"the fires({kind!r}) handler in "
                        f"{info.qualname} is dead code: not reachable "
                        "from the simulation engine, never called, and "
                        "its component class is never constructed — "
                        "the fault can never actually degrade a run"
                    ),
                    function=info.qualname,
                )

    def _handler_live(
        self, info, reachable: "set[str]", constructed: "set[str]"
    ) -> bool:
        if info.qualname in reachable:
            return True
        if self.index.callers.get(info.qualname):
            return True
        parts = info.qualname.rsplit(".", 2)
        if len(parts) == 3 and parts[1] in constructed:
            return True
        return False

    def _constructed_class_names(self) -> "set[str]":
        """Simple names of project classes constructed anywhere."""
        import ast as ast_module

        class_names = {
            cinfo.name for cinfo in self.index.classes.values()
        }
        constructed: "set[str]" = set()
        for info in self.index.functions.values():
            for node in ast_module.walk(info.node):
                if not isinstance(node, ast_module.Call):
                    continue
                func = node.func
                name = None
                if isinstance(func, ast_module.Name):
                    name = func.id
                elif isinstance(func, ast_module.Attribute):
                    name = func.attr
                if name in class_names:
                    constructed.add(name)
        return constructed

    # ------------------------------------------------------------------
    # contract-obs-pure
    # ------------------------------------------------------------------

    _OBS_PREFIX = "obs"

    def _obs_pure(self) -> "Iterator[Finding]":
        rule = "contract-obs-pure"
        if self.analysis is None:
            return
        obs_functions = [
            info
            for qualname, info in sorted(self.index.functions.items())
            if info.module == self._OBS_PREFIX
            or info.module.startswith(self._OBS_PREFIX + ".")
        ]
        if not obs_functions:
            return
        allowed_owners = {
            cinfo.name
            for cinfo in self.index.classes.values()
            if cinfo.module == self._OBS_PREFIX
            or cinfo.module.startswith(self._OBS_PREFIX + ".")
        }
        allowlist = load_marker(
            self.index, self._OBS_PREFIX, "OBS_WRITE_ALLOWLIST"
        )
        patterns: "tuple[str, ...]" = ()
        if isinstance(allowlist, (tuple, list)):
            patterns = tuple(str(item) for item in allowlist)
        reported: "set[str]" = set()
        for info in obs_functions:
            summary = self.analysis.summaries[info.qualname]
            direct_lines = {
                (site.kind, site.ident): (site.line, site.col)
                for site in self.analysis.direct[info.qualname]
            }
            for ident in sorted(summary.global_writes):
                yield from self._obs_violation(
                    rule, info, "global-write", ident,
                    summary.global_writes[ident], direct_lines, reported,
                    f"writes module global {ident!r}",
                )
            for ident in sorted(summary.forks):
                yield from self._obs_violation(
                    rule, info, "fork", ident,
                    summary.forks[ident], direct_lines, reported,
                    f"calls {ident}()",
                )
            for ident in sorted(summary.attr_writes):
                owner = ident.split(".", 1)[0]
                if owner in allowed_owners:
                    continue
                if _pattern_match(ident, patterns):
                    continue
                detail = (
                    f"writes attribute {ident!r} of a non-obs object"
                    if owner != "?"
                    else (
                        f"writes attribute {ident!r} on a receiver the "
                        "analysis cannot prove is obs-owned"
                    )
                )
                yield from self._obs_violation(
                    rule, info, "attr-write", ident,
                    summary.attr_writes[ident], direct_lines, reported,
                    detail,
                )

    def _obs_violation(
        self,
        rule: str,
        info,
        kind: str,
        ident: str,
        via: str,
        direct_lines: "dict[tuple[str, str], tuple[int, int]]",
        reported: "set[str]",
        detail: str,
    ) -> "Iterator[Finding]":
        # One finding per offending ident across the whole plane; prefer
        # the function holding the direct site (via == "").
        key = f"{kind}:{ident}"
        if key in reported:
            return
        if via:
            # Only report transitive evidence if no obs function holds
            # the effect directly (the direct holder reports it better).
            for other_q, other_summary in self.analysis.summaries.items():
                other = self.index.functions.get(other_q)
                if other is None:
                    continue
                if not (
                    other.module == self._OBS_PREFIX
                    or other.module.startswith(self._OBS_PREFIX + ".")
                ):
                    continue
                table = {
                    "global-write": other_summary.global_writes,
                    "fork": other_summary.forks,
                    "attr-write": other_summary.attr_writes,
                }[kind]
                if table.get(ident) == "":
                    return
        reported.add(key)
        line, col = direct_lines.get(
            (kind, ident), (info.node.lineno, info.node.col_offset)
        )
        chain = f" [via {via}]" if via else ""
        yield Finding(
            rule_id=rule,
            path=info.ctx.relpath,
            line=line,
            col=col,
            message=(
                f"observability code {detail}{chain}; telemetry must "
                "observe, never steer — move the write out of the obs "
                "plane or add the owner to OBS_WRITE_ALLOWLIST with "
                "justification"
            ),
            function=info.qualname,
        )

    # ------------------------------------------------------------------
    # contract-registry
    # ------------------------------------------------------------------

    _WORKLOADS_PREFIX = "workloads."
    _WORKLOAD_REGISTRY = "workloads.registry"
    _POLICY_BASE = "core.policy.PlacementPolicy"

    def _registry(self) -> "Iterator[Finding]":
        rule = "contract-registry"
        yield from self._workload_registry(rule)
        yield from self._policy_registry(rule)

    def _workload_registry(self, rule: str) -> "Iterator[Finding]":
        registry_module = self.index.modules.get(self._WORKLOAD_REGISTRY)
        if registry_module is None:
            return
        site = marker_site(self.index, self._WORKLOAD_REGISTRY, "_REGISTRY")
        if site is None:
            return
        import ast as ast_module

        node = None
        for candidate in registry_module.ctx.tree.body:
            if (
                isinstance(candidate, ast_module.AnnAssign)
                and isinstance(candidate.target, ast_module.Name)
                and candidate.target.id == "_REGISTRY"
            ):
                node = candidate.value
            elif (
                isinstance(candidate, ast_module.Assign)
                and len(candidate.targets) == 1
                and isinstance(candidate.targets[0], ast_module.Name)
                and candidate.targets[0].id == "_REGISTRY"
            ):
                node = candidate.value
        if node is None:
            return
        registered: "dict[str, int]" = {}
        seen_apps: "set[str]" = set()
        for app, value, line in dict_literal_entries(node):
            if app in seen_apps:
                yield Finding(
                    rule_id=rule,
                    path=site[0],
                    line=line,
                    col=0,
                    message=(
                        f"workload registry key {app!r} appears twice; "
                        "the second entry silently shadows the first"
                    ),
                    function=self._WORKLOAD_REGISTRY,
                )
            seen_apps.add(app)
            if isinstance(value, ast_module.Name):
                registered[value.id] = line
        factories: "dict[str, int]" = {}
        factory_paths: "dict[str, str]" = {}
        for qualname, info in sorted(self.index.functions.items()):
            if not info.module.startswith(self._WORKLOADS_PREFIX):
                continue
            if info.module == self._WORKLOAD_REGISTRY:
                continue
            if qualname != f"{info.module}.{info.name}":
                continue  # methods and nested functions are not factories
            if info.name.startswith("make_"):
                factories[info.name] = info.node.lineno
                factory_paths[info.name] = info.ctx.relpath
        excluded = self._exclusions(
            self._WORKLOAD_REGISTRY, "UNREGISTERED_FACTORIES"
        )
        registered_set = FieldSet(
            label="the workload registry (_REGISTRY)",
            path=site[0],
            line=site[1],
            fields=registered,
        )
        for name in sorted(factories):
            if name in registered or excluded.covers(name):
                continue
            yield Finding(
                rule_id=rule,
                path=factory_paths[name],
                line=factories[name],
                col=0,
                message=(
                    f"workload factory {name}() is not in the registry "
                    "(_REGISTRY) and not declared in "
                    "UNREGISTERED_FACTORIES; sweeps and figures cannot "
                    "reach it"
                ),
                function=self._WORKLOAD_REGISTRY,
            )
        for name in sorted(registered):
            if name not in factories:
                yield Finding(
                    rule_id=rule,
                    path=site[0],
                    line=registered[name],
                    col=0,
                    message=(
                        f"the workload registry references {name}(), "
                        "which is not a factory defined under "
                        "workloads/; make_workload would raise at call "
                        "time"
                    ),
                    function=self._WORKLOAD_REGISTRY,
                )
        # Stale exclusion declarations rot like any other parallel list.
        for name in sorted(excluded.reasons):
            reason = excluded.reasons[name]
            if not isinstance(reason, str) or not reason.strip():
                yield Finding(
                    rule_id=rule,
                    path=excluded.path,
                    line=excluded.line,
                    col=0,
                    message=(
                        f"UNREGISTERED_FACTORIES entry {name!r} needs a "
                        "non-empty reason string"
                    ),
                    function=self._WORKLOAD_REGISTRY,
                )
            elif name not in factories:
                yield Finding(
                    rule_id=rule,
                    path=excluded.path,
                    line=excluded.line,
                    col=0,
                    message=(
                        f"stale UNREGISTERED_FACTORIES entry {name!r}: "
                        "no such workload factory exists"
                    ),
                    function=self._WORKLOAD_REGISTRY,
                )
            elif name in registered_set.fields:
                yield Finding(
                    rule_id=rule,
                    path=excluded.path,
                    line=excluded.line,
                    col=0,
                    message=(
                        f"stale UNREGISTERED_FACTORIES entry {name!r}: "
                        "the factory is registered after all"
                    ),
                    function=self._WORKLOAD_REGISTRY,
                )

    def _policy_registry(self, rule: str) -> "Iterator[Finding]":
        base = self.index.classes.get(self._POLICY_BASE)
        if base is None:
            return
        registrations = decorated_registrations(
            self.index, "register_policy", "core"
        )
        registered_classes = {cinfo.qualname for _n, cinfo, _l in registrations}
        names_seen: "dict[str, str]" = {}
        for name, cinfo, line in registrations:
            module = self.index.modules[cinfo.module]
            if name in names_seen:
                yield Finding(
                    rule_id=rule,
                    path=module.ctx.relpath,
                    line=line,
                    col=0,
                    message=(
                        f"policy name {name!r} is registered twice "
                        f"(also by {names_seen[name]}); importing the "
                        "package would raise at registration time"
                    ),
                    function=cinfo.qualname,
                )
            names_seen.setdefault(name, cinfo.qualname)
        for cinfo in self.index.subclasses_of(base):
            if not cinfo.module.startswith("core"):
                continue
            if cinfo.qualname in registered_classes:
                continue
            if self._is_abstract(cinfo):
                continue
            module = self.index.modules[cinfo.module]
            yield Finding(
                rule_id=rule,
                path=module.ctx.relpath,
                line=cinfo.node.lineno,
                col=0,
                message=(
                    f"placement policy {cinfo.name} is not registered "
                    "with @register_policy; sweeps, the CLI, and the "
                    "equivalence harness cannot instantiate it"
                ),
                function=cinfo.qualname,
            )

    @staticmethod
    def _is_abstract(cinfo: ClassInfo) -> bool:
        import ast as ast_module

        if any("ABC" in base for base in cinfo.bases):
            return True
        for node in cinfo.node.body:
            if isinstance(
                node,
                (ast_module.FunctionDef, ast_module.AsyncFunctionDef),
            ):
                for decorator in node.decorator_list:
                    text = ast_module.dump(decorator)
                    if "abstractmethod" in text:
                        return True
        return False
