"""One diagnostics core for the analyzer and the verifier.

Both static checkers report findings as :class:`Diagnostic` records: a
stable code (``A101`` for the analyzer, ``dag.cycle`` for the
verifier), a :class:`Severity`, a message, and where the finding points
— a :class:`SourceSpan` into ursa-lang text, or a free-form artifact
``location`` plus structured ``data``.  Each family keeps a catalogue
of :class:`DiagnosticCode` entries that fixes every code's severity
once (``repro.analyze.diagnostics.CODES``,
``repro.verify.diagnostics.RULES``), and a :class:`Report` subclass
that owns its wire rows and its rendering.

Every compile-path failure derives from :class:`CompileError`, whose
``code`` says what the failure means to a caller: ``parse_error`` (the
input does not parse), ``compile_error`` (a valid input no method or
check accepted) or ``timeout`` (a deadline expired).  The CLI, the
serve protocol, the escalation ladder and the portfolio read that code;
an exception that is not a ``CompileError`` is a bug.

Like ``repro.obs``, this module imports nothing else from ``repro``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional


class CompileError(Exception):
    """Base of every compile-path failure; ``code`` classifies it."""

    code = "compile_error"


def first_line(exc: BaseException, default: Optional[str] = None) -> str:
    """The first line of ``str(exc)``; ``default`` (or the type name)
    when the message is empty."""
    text = str(exc)
    return text.splitlines()[0] if text else default or type(exc).__name__


class Severity(enum.Enum):
    """How bad a finding is.  Order: ERROR > WARNING > INFO."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class SourceSpan:
    """A ``file:line`` location with optional caret column."""

    line_no: int
    line: str = ""
    filename: Optional[str] = None
    column: Optional[int] = None  # 1-based; None = no caret

    def location(self) -> str:
        return f"{self.filename or '<source>'}:{self.line_no}"

    def caret_lines(self) -> List[str]:
        """The quoted source line plus a caret marker, if any text."""
        if not self.line.strip():
            return []
        stripped = self.line.rstrip()
        gutter = f"{self.line_no:>4} | "
        out = [f"{gutter}{stripped}"]
        if self.column is not None and 1 <= self.column <= len(stripped) + 1:
            out.append(" " * 4 + " | " + " " * (self.column - 1) + "^")
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "file": self.filename,
            "line": self.line_no,
            "column": self.column,
            "text": self.line.rstrip() or None,
        }


@dataclass(frozen=True)
class Diagnostic:
    """One finding: code, severity, message, and where it points."""

    code: str
    severity: Severity
    message: str
    span: Optional[SourceSpan] = None
    location: Optional[str] = None
    data: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class DiagnosticCode:
    """One catalogue entry: a stable code, its severity and a summary."""

    code: str
    severity: Severity
    summary: str

    def diag(
        self,
        message: str,
        span: Optional[SourceSpan] = None,
        location: Optional[str] = None,
        severity: Optional[Severity] = None,
        **data: Any,
    ) -> Diagnostic:
        """Instantiate a finding of this code."""
        return Diagnostic(
            self.code, severity or self.severity, message, span, location,
            dict(data),
        )


@dataclass
class Report:
    """Ordered diagnostics.  Each family's subclass owns its wire format:
    ``row(diagnostic)``, ``to_dict()`` and ``render()``."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, *others: "Report") -> "Report":
        for other in others:
            self.diagnostics.extend(other.diagnostics)
        return self

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was produced."""
        return not self.errors()

    def counts(self) -> Dict[str, int]:
        totals = {severity.value: 0 for severity in Severity}
        for diagnostic in self.diagnostics:
            totals[diagnostic.severity.value] += 1
        return totals

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)
