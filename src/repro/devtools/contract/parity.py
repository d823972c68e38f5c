"""The field-parity primitive.

Every contract rule is some instance of: two hand-maintained name sets
must stay equal, modulo an *explicitly declared* exclusion list that
carries a human reason.  ``field_parity`` checks one such pair and
emits findings anchored on the drifted declaration; stale exclusions
(entries that no longer exclude anything) are findings too, so the
declared lists cannot rot.  A new mirrored declaration is one more
``field_parity`` call with an extractor on each side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.devtools.lint import Finding

__all__ = ["Exclusions", "FieldSet", "field_parity"]


@dataclass(frozen=True)
class FieldSet:
    """One side of a parity check: named fields with source anchors."""

    #: Human description used in messages ("ExperimentSpec fields").
    label: str
    #: File the set is declared in (finding path for missing names).
    path: str
    #: Line of the declaration itself (fallback finding anchor).
    line: int
    #: name -> declaration line (0 when unknown; falls back to `line`).
    fields: "Mapping[str, int]" = field(default_factory=dict)

    def line_of(self, name: str) -> int:
        return self.fields.get(name) or self.line


@dataclass(frozen=True)
class Exclusions:
    """A declared name -> reason map with its own source anchor."""

    #: Marker name as written in the source ("NON_ADDITIVE_FIELDS").
    label: str
    path: str
    line: int
    reasons: "Mapping[str, str]" = field(default_factory=dict)

    def covers(self, name: str) -> bool:
        return bool(self.reasons.get(name))


_NO_EXCLUSIONS = Exclusions(label="", path="", line=0, reasons={})


def field_parity(
    rule_id: str,
    left: FieldSet,
    right: FieldSet,
    excluded: "Exclusions | None" = None,
    check_right: bool = True,
    check_stale: bool = True,
    function: str = "",
) -> "Iterator[Finding]":
    """Findings for every parity violation between two field sets.

    ``excluded`` declares names allowed in ``left`` without a ``right``
    counterpart; each entry needs a non-empty reason, and entries that
    no longer name a ``left`` field (or whose field reappeared in
    ``right``) are reported as stale.  ``check_right=False`` makes the
    check one-directional (``right`` may be a superset);
    ``check_stale=False`` skips the stale-entry validation for callers
    that share one exclusion map across several parity checks and
    validate it once themselves.
    """
    exclusions = excluded if excluded is not None else _NO_EXCLUSIONS
    left_names = set(left.fields)
    right_names = set(right.fields)
    for name in sorted(left_names - right_names):
        if exclusions.covers(name):
            continue
        hint = (
            f" or declare it in {exclusions.label} with a reason"
            if exclusions.label
            else ""
        )
        yield Finding(
            rule_id=rule_id,
            path=left.path,
            line=left.line_of(name),
            col=0,
            message=(
                f"{left.label} field {name!r} has no counterpart in "
                f"{right.label} ({right.path}); add it{hint}"
            ),
            function=function,
        )
    if check_right:
        for name in sorted(right_names - left_names):
            yield Finding(
                rule_id=rule_id,
                path=right.path,
                line=right.line_of(name),
                col=0,
                message=(
                    f"{right.label} lists {name!r} but {left.label} has "
                    "no such field; remove it or add the field"
                ),
                function=function,
            )
    if not check_stale:
        return
    for name in sorted(exclusions.reasons):
        reason = exclusions.reasons[name]
        if not isinstance(reason, str) or not reason.strip():
            yield Finding(
                rule_id=rule_id,
                path=exclusions.path,
                line=exclusions.line,
                col=0,
                message=(
                    f"{exclusions.label} entry {name!r} needs a "
                    "non-empty reason string"
                ),
                function=function,
            )
            continue
        if name not in left_names:
            yield Finding(
                rule_id=rule_id,
                path=exclusions.path,
                line=exclusions.line,
                col=0,
                message=(
                    f"stale {exclusions.label} entry {name!r}: "
                    f"{left.label} has no such field"
                ),
                function=function,
            )
        elif name in right_names:
            yield Finding(
                rule_id=rule_id,
                path=exclusions.path,
                line=exclusions.line,
                col=0,
                message=(
                    f"stale {exclusions.label} entry {name!r}: the field "
                    f"is present in {right.label}, so the exclusion no "
                    "longer applies"
                ),
                function=function,
            )
