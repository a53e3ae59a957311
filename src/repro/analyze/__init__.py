"""``repro.analyze`` — ahead-of-time static analysis of ursa-lang.

Everything here runs *before* compilation: well-formedness diagnostics
with ``file:line`` caret spans (:mod:`repro.analyze.wellformed`), and
sound resource/length lower bounds derived from the paper's reuse
orders (:mod:`repro.analyze.bounds`).  The `repro analyze` CLI, the
``POST /v1/analyze`` serve endpoint, and serve admission control all
call :func:`analyze_source`; the resilience ladder consumes
:class:`FeasibilityReport` hints via
``compile_with_fallback(hints=...)``.  See ``docs/analysis.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro import obs
from repro.analyze.bounds import (
    FeasibilityReport,
    FUClassBound,
    LengthBound,
    RegisterClassBound,
    feasibility_report,
    fu_lower_bound,
    length_lower_bound,
    necessary_reuse_order,
    register_lower_bound,
    register_pressure_floor,
)
from repro.analyze.diagnostics import (
    CODES,
    AnalyzeReport,
    parse_error_diagnostic,
    render_parse_error,
)
from repro.analyze.wellformed import check_program
from repro.diagnostics import Diagnostic, SourceSpan
from repro.ir.program import Program
from repro.machine.model import MachineModel

__all__ = [
    "AnalyzeReport",
    "CODES",
    "Diagnostic",
    "FUClassBound",
    "FeasibilityReport",
    "LengthBound",
    "RegisterClassBound",
    "SourceSpan",
    "analyze_program",
    "analyze_source",
    "check_program",
    "feasibility_report",
    "fu_lower_bound",
    "length_lower_bound",
    "necessary_reuse_order",
    "parse_error_diagnostic",
    "register_lower_bound",
    "register_pressure_floor",
    "render_parse_error",
]


def analyze_program(
    program: Program,
    machine: Optional[MachineModel] = None,
    source: Optional[str] = None,
    filename: Optional[str] = None,
    bounds: bool = True,
) -> AnalyzeReport:
    """Analyze a parsed program: diagnostics plus per-trace bounds.

    ``bounds=True`` (and a ``machine``) additionally builds one
    dependence DAG per basic block — the same per-trace granularity the
    program compiler uses — and attaches a
    :class:`~repro.analyze.bounds.FeasibilityReport` per block label.
    Bound computation is skipped when well-formedness errors exist (the
    DAGs would be meaningless).
    """
    with obs.span("analyze.program", blocks=len(program.blocks)):
        report = AnalyzeReport(filename=filename)
        report.diagnostics = check_program(
            program, machine=machine, source=source, filename=filename
        )
        if bounds and machine is not None and report.ok:
            from repro.analysis.liveness import block_live_sets
            from repro.graph.dag import DependenceDAG

            _, live_out = block_live_sets(program)
            for block in program:
                dag = DependenceDAG.from_trace(
                    block.instructions, live_out=live_out[block.label]
                )
                report.feasibility[block.label] = feasibility_report(
                    dag, machine
                )
    return report


def analyze_source(
    source: str,
    machine: Optional[MachineModel] = None,
    filename: Optional[str] = None,
    bounds: bool = True,
) -> AnalyzeReport:
    """Parse and analyze ursa-lang text; never raises on bad source.

    A parse failure becomes a single ``A001`` error diagnostic in the
    returned report (``report.ok`` is False), so callers get uniform
    structured output for every failure mode.
    """
    from repro.ir.parser import ParseError, parse_program
    from repro.ir.program import IRError

    obs.count("analyze.sources")
    try:
        program = parse_program(source)
    except (ParseError, IRError, ValueError) as exc:
        report = AnalyzeReport(filename=filename)
        report.add(parse_error_diagnostic(exc, source, filename))
        return report
    return analyze_program(
        program, machine=machine, source=source, filename=filename,
        bounds=bounds,
    )
