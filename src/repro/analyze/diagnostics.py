"""Source-mapped diagnostics for the ahead-of-time analyzer.

Every finding carries a stable code (``A1xx`` well-formedness, ``A9xx``
parse), the severity its :data:`CODES` entry fixes, and — when the
parser recorded one — a :class:`~repro.diagnostics.SourceSpan` rendered
gcc-style with the offending line and a caret column::

    trace.ursa:5: error[A101]: value 'x' may be used before definition
      5 | y = x + 1
        |     ^

The records, severities and report base are the shared core in
:mod:`repro.diagnostics`.  The code catalogue is documented in
``docs/analysis.md``; codes are append-only so downstream tooling can
match on them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.diagnostics import (
    Diagnostic,
    DiagnosticCode,
    Report,
    Severity,
    SourceSpan,
    first_line,
)

#: Stable diagnostic codes.  Append-only; never renumber.
CODES: Dict[str, DiagnosticCode] = {
    code: DiagnosticCode(code, severity, summary)
    for code, severity, summary in (
        ("A001", Severity.ERROR, "source does not parse"),
        ("A101", Severity.ERROR, "value may be used before its definition"),
        ("A102", Severity.WARNING,
         "branch to a label not defined in this program"),
        ("A103", Severity.WARNING,
         "basic block is unreachable from the entry block"),
        ("A104", Severity.WARNING,
         "store is dead (overwritten before any read)"),
        ("A105", Severity.INFO, "value is defined but never used"),
        ("A106", Severity.ERROR,
         "opcode is not executable on the target machine"),
    )
}

#: Report JSON schema version (``docs/analysis.md``).
REPORT_SCHEMA_VERSION = 1


def span_for(
    line_no: Optional[int],
    source_lines: Optional[Sequence[str]] = None,
    filename: Optional[str] = None,
    anchor: Optional[str] = None,
) -> Optional[SourceSpan]:
    """Build a span for ``line_no``, pointing the caret at ``anchor``.

    ``anchor`` is an identifier to underline; the caret lands on its
    first word-boundary occurrence in the line (or is omitted).
    """
    if line_no is None or line_no <= 0:
        return None
    line = ""
    if source_lines is not None and 1 <= line_no <= len(source_lines):
        line = source_lines[line_no - 1]
    column: Optional[int] = None
    if anchor and line:
        match = re.search(rf"\b{re.escape(anchor)}\b", line)
        if match is not None:
            column = match.start() + 1
    return SourceSpan(line_no, line, filename, column)


def _render(diagnostic: Diagnostic) -> str:
    """gcc-style: location, severity[code], message, then the caret."""
    span = diagnostic.span
    prefix = f"{span.location()}: " if span else ""
    lines = [
        f"{prefix}{diagnostic.severity.value}[{diagnostic.code}]: "
        f"{diagnostic.message}"
    ]
    if span is not None:
        lines.extend(f"  {text}" for text in span.caret_lines())
    return "\n".join(lines)


def parse_error_diagnostic(
    exc: Exception,
    source: Optional[str] = None,
    filename: Optional[str] = None,
) -> Diagnostic:
    """Wrap a :class:`repro.ir.parser.ParseError` as an ``A001``.

    Works for any exception exposing ``line_no``/``line`` attributes;
    other exceptions get a span-less diagnostic.
    """
    line_no = getattr(exc, "line_no", None)
    line = getattr(exc, "line", "") or ""
    span: Optional[SourceSpan] = None
    if line_no:
        lines = source.splitlines() if source else None
        span = span_for(line_no, lines, filename)
        if span is not None and not span.line and line:
            span = SourceSpan(line_no, line, filename)
    message = first_line(exc)
    if line_no and span is not None:
        # The span already renders the location and line text; drop the
        # redundant "line N: ...: 'text'" envelope ParseError carries.
        message = re.sub(rf"^line {line_no}: ", "", message)
        message = re.sub(r": '[^']*'$", "", message)
    return CODES["A001"].diag(message, span)


def render_parse_error(
    exc: Exception,
    source: Optional[str] = None,
    filename: Optional[str] = None,
) -> str:
    """Caret-rendered one-stop formatting for CLI ``ParseError`` paths."""
    return _render(parse_error_diagnostic(exc, source, filename))


@dataclass
class AnalyzeReport(Report):
    """Everything the analyzer found for one source: diagnostics plus
    (when the source was analyzable) per-trace feasibility reports."""

    #: Block label -> :class:`repro.analyze.bounds.FeasibilityReport`.
    feasibility: Dict[str, Any] = field(default_factory=dict)
    filename: Optional[str] = None

    @staticmethod
    def row(diagnostic: Diagnostic) -> Dict[str, Any]:
        span = diagnostic.span
        return {
            "code": diagnostic.code,
            "severity": diagnostic.severity.value,
            "message": diagnostic.message,
            "span": span.to_dict() if span else None,
        }

    def render(self) -> str:
        lines = [_render(diagnostic) for diagnostic in self.diagnostics]
        for label, report in sorted(self.feasibility.items()):
            lines.append(f"trace {label}:")
            lines.extend(f"  {row}" for row in report.render().splitlines())
        summary = (
            f"analysis: {len(self.errors())} error(s), "
            f"{len(self.warnings())} warning(s), "
            f"{len(self.feasibility)} trace(s) bounded"
        )
        lines.append(summary)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "ok": self.ok,
            "file": self.filename,
            "diagnostics": [self.row(d) for d in self.diagnostics],
            "feasibility": {
                label: report.to_dict()
                for label, report in sorted(self.feasibility.items())
            },
        }
