"""The verifier's rule catalogue and report (``repro.verify``).

Every check the verifier performs is a *rule* with a stable dotted
identifier (``dag.cycle``, ``sched.fu-overlap``, ...), a default
severity, and a one-line summary.  Rules are registered at import time
into :data:`RULES`, which doubles as the machine-readable catalogue
behind ``docs/verification.md`` (a doc test asserts the two stay in
sync).

Running a rule pack produces a :class:`VerifyReport` — an ordered list
of :class:`~repro.diagnostics.Diagnostic` records (the core shared with
the analyzer, :mod:`repro.diagnostics`) plus rendering (text or JSON)
and escalation of error-severity findings into a :class:`VerifyError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.diagnostics import Diagnostic, DiagnosticCode, Report, Severity

#: Bumped whenever a consumer of ``repro verify --format json`` output
#: would misinterpret newer reports.
REPORT_SCHEMA_VERSION = 1


class VerifyError(Exception):
    """A rule pack found error-severity diagnostics.

    Carries the offending :class:`VerifyReport` so callers can render
    or serialize the full findings.
    """

    def __init__(self, report: "VerifyReport", context: str = "") -> None:
        self.report = report
        prefix = f"{context}: " if context else ""
        errors = report.errors()
        detail = "; ".join(
            f"[{d.code}] {d.message}"
            + (f" ({d.location})" if d.location else "")
            for d in errors[:4]
        )
        if len(errors) > 4:
            detail += f"; ... ({len(errors) - 4} more)"
        super().__init__(f"{prefix}{len(errors)} invariant violation(s): {detail}")


class RuleInfo(DiagnosticCode):
    """One registered verifier rule (the catalogue entry)."""

    @property
    def pack(self) -> str:
        return self.code.split(".", 1)[0]


#: rule id -> catalogue entry; populated by the pack modules at import.
RULES: Dict[str, RuleInfo] = {}


def register(rule_id: str, severity: Severity, summary: str) -> RuleInfo:
    """Register a rule id in the catalogue (idempotence is an error)."""
    if rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    info = RULES[rule_id] = RuleInfo(rule_id, severity, summary)
    return info


@dataclass
class VerifyReport(Report):
    """Ordered diagnostics from one or more rule packs over one artifact."""

    artifact: str = ""
    #: rule packs that actually ran (a clean report still names them).
    packs: List[str] = field(default_factory=list)

    def extend(self, *others: "VerifyReport") -> "VerifyReport":
        super().extend(*others)
        for other in others:
            for pack in other.packs:
                if pack not in self.packs:
                    self.packs.append(pack)
        return self

    def rules_fired(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})

    def raise_if_errors(self, context: str = "") -> None:
        if not self.ok:
            raise VerifyError(self, context=context or self.artifact)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable multi-line report."""
        counts = self.counts()
        head = (
            f"verify {self.artifact or '<artifact>'}: "
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info"
        )
        if self.packs:
            head += f"  [packs: {', '.join(self.packs)}]"
        lines = [head]
        ordered = sorted(
            self.diagnostics, key=lambda d: (d.severity.rank, d.code)
        )
        for diagnostic in ordered:
            where = f"  @ {diagnostic.location}" if diagnostic.location else ""
            lines.append(
                f"  {diagnostic.severity.value.upper():7s} "
                f"{diagnostic.code:24s} {diagnostic.message}{where}"
            )
        if not self.diagnostics:
            lines.append("  clean: no diagnostics")
        return "\n".join(lines)

    @staticmethod
    def row(diagnostic: Diagnostic) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "rule": diagnostic.code,
            "severity": diagnostic.severity.value,
            "message": diagnostic.message,
        }
        if diagnostic.location is not None:
            record["location"] = diagnostic.location
        if diagnostic.data:
            record["data"] = dict(diagnostic.data)
        return record

    @staticmethod
    def from_row(record: Mapping[str, Any]) -> Diagnostic:
        """Inverse of :meth:`row`."""
        return Diagnostic(
            code=record["rule"],
            severity=Severity(record["severity"]),
            message=record["message"],
            location=record.get("location"),
            data=dict(record.get("data", {})),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The ``repro verify --format json`` payload (see docs)."""
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "artifact": self.artifact,
            "packs": list(self.packs),
            "counts": self.counts(),
            "ok": self.ok,
            "diagnostics": [self.row(d) for d in self.diagnostics],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return super().to_json(indent)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "VerifyReport":
        if payload.get("schema") != REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported verify-report schema {payload.get('schema')!r}"
            )
        return cls(
            artifact=payload.get("artifact", ""),
            diagnostics=[
                cls.from_row(r) for r in payload.get("diagnostics", ())
            ],
            packs=list(payload.get("packs", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "VerifyReport":
        return cls.from_dict(json.loads(text))
