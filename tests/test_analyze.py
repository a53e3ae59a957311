"""Tests for ``repro.analyze``: diagnostics, bounds, CLI, serve, hints.

The soundness *sweep* (static bounds vs measured requirements across
random workloads) lives in ``tests/test_analyze_fuzz.py``; this module
covers the units, the integration points, and the contract lint.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.analyze import (
    CODES,
    AnalyzeReport,
    Diagnostic,
    SourceSpan,
    analyze_source,
    check_program,
    feasibility_report,
    fu_lower_bound,
    length_lower_bound,
    parse_error_diagnostic,
    register_lower_bound,
    register_pressure_floor,
)
from repro.analyze.diagnostics import span_for
from repro.cli import main
from repro.diagnostics import Severity
from repro.ir.parser import ParseError, parse_program
from repro.machine.model import FUClass, MachineModel
from repro.pipeline import PipelineError, build_dag, compile_trace
from repro.serve.protocol import handle_single
from repro.serve.server import ServeApp

REPO = Path(__file__).resolve().parent.parent
FIG2 = (REPO / "examples" / "traces" / "figure2.ursa").read_text()


def codes_of(diagnostics):
    return [d.code for d in diagnostics]


# ======================================================================
# Diagnostics rendering.
# ======================================================================
class TestDiagnostics:
    def test_span_location_and_caret(self):
        span = SourceSpan(5, "y = x + 1", "t.ursa", column=5)
        assert span.location() == "t.ursa:5"
        caret = span.caret_lines()
        assert caret == ["   5 | y = x + 1", "     |     ^"]
        # caret column points at the 'x'
        assert caret[0][caret[1].index("^")] == "x"

    def test_span_for_anchors_on_word_boundary(self):
        lines = ["xx = axe + x"]
        span = span_for(1, lines, anchor="x")
        assert span.column == 12  # not the 'xx' def, not inside 'axe'

    def test_render_includes_code_and_severity(self):
        d = Diagnostic("A101", Severity.ERROR, "boom", SourceSpan(1, "a = b"))
        text = AnalyzeReport([d]).render()
        assert "error[A101]: boom" in text
        assert "   1 | a = b" in text

    def test_parse_error_diagnostic_strips_envelope(self):
        source = "A = load [v]\nB = !!!\n"
        with pytest.raises(ParseError) as info:
            parse_program(source)
        d = parse_error_diagnostic(info.value, source, "t.ursa")
        assert d.code == "A001"
        assert d.span.line_no == 2
        assert not d.message.startswith("line 2")
        assert "'B = !!!'" not in d.message  # the span shows the text

    def test_report_ok_tracks_error_severity_only(self):
        report = AnalyzeReport()
        report.add(Diagnostic("A105", Severity.INFO, "unused"))
        report.add(Diagnostic("A103", Severity.WARNING, "unreachable"))
        assert report.ok
        report.add(Diagnostic("A101", Severity.ERROR, "use-before-def"))
        assert not report.ok
        assert json.loads(report.to_json())["ok"] is False

    def test_docs_catalogue_in_sync(self):
        text = (REPO / "docs" / "analysis.md").read_text()
        documented = dict(
            re.findall(r"^\| `(A\d{3})` \| (\w+) \|", text, re.MULTILINE)
        )
        assert documented == {
            code: entry.severity.value for code, entry in CODES.items()
        }, "docs/analysis.md code table out of sync with CODES"


# ======================================================================
# Well-formedness checks.
# ======================================================================
class TestWellformed:
    def check(self, source, machine=None):
        return check_program(parse_program(source), machine=machine,
                             source=source)

    def test_clean_program(self):
        assert self.check(FIG2) == []

    def test_use_before_def(self):
        diags = self.check("a = x + 1\nx = a + 2\n")
        assert codes_of(diags) == ["A101"]
        assert diags[0].severity is Severity.ERROR
        assert "'x'" in diags[0].message
        assert diags[0].span.line_no == 1

    def test_pure_live_in_is_legal(self):
        # x is never defined: a legal input, not use-before-def.
        assert self.check("a = x + 1\nstore [out], a\n") == []

    def test_undefined_branch_target_warns(self):
        diags = self.check(
            "L0:\n  c = a < b\n  if c goto Lelsewhere\nL1:\n  halt\n"
        )
        assert codes_of(diags) == ["A102"]
        assert diags[0].severity is Severity.WARNING

    def test_unreachable_block(self):
        diags = self.check(
            "L0:\n  a = b + c\n  halt\nL1:\n  d = e + f\n  halt\n"
        )
        assert "A103" in codes_of(diags)

    def test_dead_store(self):
        diags = self.check(
            "store [out], a\nstore [out], b\nhalt\n"
        )
        assert codes_of(diags) == ["A104"]
        # anchored at the earlier (dead) store
        assert diags[0].span.line_no == 1

    def test_read_between_stores_is_not_dead(self):
        assert self.check(
            "store [out], a\nb = load [out]\nstore [out], b\nhalt\n"
        ) == []

    def test_unused_value_is_info(self):
        diags = self.check("a = b + c\nhalt\n")
        assert codes_of(diags) == ["A105"]
        assert diags[0].severity is Severity.INFO

    def test_unexecutable_opcode(self):
        machine = MachineModel(
            "add-only", (FUClass("alu", 1, 1, frozenset({})),), {"gpr": 4}
        )
        # frozenset() executes nothing -> every op is A106.
        diags = self.check("a = b + c\nstore [out], a\n", machine=machine)
        assert set(codes_of(diags)) == {"A106"}
        assert all(d.severity is Severity.ERROR for d in diags)


# ======================================================================
# Bounds units (figure2 has known measured requirements: FU 4, reg 5
# on the base machine).
# ======================================================================
class TestBounds:
    def test_figure2_register_bound(self):
        machine = MachineModel.homogeneous(2, 3)
        dag = build_dag(FIG2)
        bound = register_lower_bound(dag, machine)
        assert 1 <= bound <= 5  # measured requirement is 5
        assert bound == 4  # the necessary-reuse width for this DAG

    def test_figure2_fu_bound(self):
        machine = MachineModel.homogeneous(2, 8)
        dag = build_dag(FIG2)
        assert 1 <= fu_lower_bound(dag, machine, "any") <= 4

    def test_pressure_floor_counts_live_in_out(self):
        machine = MachineModel.homogeneous(2, 8)
        names = [f"v{i}" for i in range(4)]
        src = "\n".join(f"{n} = load [x+{i}]" for i, n in enumerate(names))
        dag = build_dag(src, live_out=names)
        assert register_pressure_floor(dag, machine) >= 4

    def test_length_bound_not_above_compile(self):
        machine = MachineModel.homogeneous(2, 6)
        dag = build_dag(FIG2)
        bound = length_lower_bound(dag, machine)
        result = compile_trace(dag, machine, method="ursa")
        assert bound <= result.cycles

    def test_feasibility_verdicts(self):
        dag = build_dag(FIG2)
        tight = feasibility_report(dag, MachineModel.homogeneous(2, 3))
        roomy = feasibility_report(dag, MachineModel.homogeneous(4, 12))
        assert tight.registers["gpr"].forces_reduction
        assert tight.predictions()
        assert not roomy.registers["gpr"].forces_reduction
        assert not roomy.infeasible
        payload = tight.to_dict()
        assert payload["registers"]["gpr"]["lower_bound"] == 4
        assert payload["length"]["lower_bound"] >= payload["length"][
            "critical_path"]

    def test_infeasible_when_pinned_values_overflow(self):
        names = [f"v{i}" for i in range(5)]
        src = "\n".join(f"{n} = load [x+{i}]" for i, n in enumerate(names))
        dag = build_dag(src, live_out=names)
        report = feasibility_report(dag, MachineModel.homogeneous(2, 2))
        assert report.infeasible
        assert report.infeasible_reasons()

    def test_doomed_ursa_seq_rung(self):
        dag = build_dag(FIG2)
        report = feasibility_report(dag, MachineModel.homogeneous(2, 1))
        assert "ursa-seq" in report.doomed_rungs()


# ======================================================================
# analyze_source: uniform reports for every failure mode.
# ======================================================================
class TestAnalyzeSource:
    def test_parse_failure_is_a_report(self):
        report = analyze_source("A = !!!\n", filename="bad.ursa")
        assert not report.ok
        assert codes_of(report.diagnostics) == ["A001"]
        assert "bad.ursa:1" in report.render()

    def test_bounds_attached_per_block(self):
        report = analyze_source(FIG2, machine=MachineModel.homogeneous(2, 6))
        assert report.ok
        assert list(report.feasibility) == ["L0"]
        assert "feasibility on" in report.render()

    def test_bounds_skipped_on_errors(self):
        report = analyze_source(
            "a = x + 1\nx = a + 2\n", machine=MachineModel.homogeneous(2, 6)
        )
        assert not report.ok
        assert report.feasibility == {}


# ======================================================================
# CLI.
# ======================================================================
class TestAnalyzeCLI:
    def test_analyze_file_ok(self, capsys, tmp_path):
        path = tmp_path / "fig2.ursa"
        path.write_text(FIG2)
        assert main(["analyze", str(path), "--fus", "2", "--regs", "6"]) == 0
        out = capsys.readouterr().out
        assert "analysis: 0 error(s)" in out
        assert "feasibility on" in out

    def test_analyze_kernel(self, capsys):
        assert main([
            "analyze", "--kernel", "figure2", "--fus", "2", "--regs", "6",
        ]) == 0
        assert "feasibility on" in capsys.readouterr().out

    def test_analyze_errors_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.ursa"
        path.write_text("a = x + 1\nx = a + 2\n")
        assert main(["analyze", str(path)]) == 1
        assert "error[A101]" in capsys.readouterr().out

    def test_analyze_json(self, capsys, tmp_path):
        path = tmp_path / "fig2.ursa"
        path.write_text(FIG2)
        assert main([
            "analyze", str(path), "--fus", "2", "--regs", "6", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["ok"] is True
        assert payload["feasibility"]["L0"]["registers"]["gpr"]

    def test_parse_error_renders_caret_and_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.ursa"
        path.write_text("A = load [v]\nB = !!!\n")
        assert main(["compile", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error[A001]" in err
        assert "   2 | B = !!!" in err
        assert "repro compile: error: ParseError:" in err


# ======================================================================
# Serve: /v1/analyze and admission control.
# ======================================================================
class TestServeAnalyze:
    MACHINE = {"fus": 2, "regs": 8}

    def test_analyze_endpoint_roundtrip(self):
        app = ServeApp(cache=None)
        try:
            status, body = app.analyze(
                {"source": FIG2, "machine": self.MACHINE}
            )
            assert status == 200 and body["ok"]
            report = body["result"]["report"]
            assert report["ok"] and report["feasibility"]["L0"]
            assert body["result"]["kind"] == "analyze"
        finally:
            app.close()

    def test_analyze_endpoint_reports_parse_failures_as_result(self):
        app = ServeApp(cache=None)
        try:
            status, body = app.analyze(
                {"source": "A = !!!\n", "machine": self.MACHINE}
            )
            assert status == 200 and body["ok"]
            report = body["result"]["report"]
            assert report["ok"] is False
            assert report["diagnostics"][0]["code"] == "A001"
        finally:
            app.close()

    def test_ill_formed_compile_fast_rejected(self):
        request = {
            "kind": "trace",
            "source": "a = x + 1\nx = a + 2\n",
            "machine": self.MACHINE,
        }
        with obs.capture() as cap:
            response = handle_single(request, None)
        assert response["ok"] is False
        assert response["error"]["code"] == "ill_formed"
        diags = response["error"]["diagnostics"]
        assert diags[0]["code"] == "A101"
        # admission control fired, and the compiler never ran
        assert cap.counters["serve.analyze_reject"] == 1
        names = {e.get("name") for e in cap.events}
        assert not any(
            n and (n.startswith("phase.") or n.startswith("measure."))
            for n in names
        )

    def test_ill_formed_maps_to_http_422(self):
        from repro.serve.protocol import ERROR_STATUS

        assert ERROR_STATUS["ill_formed"] == 422

    def test_well_formed_trace_still_compiles(self):
        request = {"kind": "trace", "source": FIG2, "machine": self.MACHINE}
        response = handle_single(request, None)
        assert response["ok"] is True

    def test_program_requests_admitted_too(self):
        request = {
            "kind": "program",
            "source": "L0:\n  a = x + 1\n  x = a + 2\n  halt\n",
            "machine": self.MACHINE,
        }
        with obs.capture() as cap:
            response = handle_single(request, None)
        assert response["error"]["code"] == "ill_formed"
        assert cap.counters["serve.analyze_reject"] == 1

    def test_batch_analyze_isolation(self):
        app = ServeApp(cache=None)
        try:
            status, body = app.analyze({"requests": [
                {"source": FIG2, "machine": self.MACHINE},
                {"source": "A = !!!\n", "machine": self.MACHINE},
            ]})
            assert status == 200
            oks = [r["result"]["report"]["ok"] for r in body["responses"]]
            assert oks == [True, False]
        finally:
            app.close()

    def test_bounds_option_disables_feasibility(self):
        app = ServeApp(cache=None)
        try:
            _, body = app.analyze({
                "source": FIG2, "machine": self.MACHINE,
                "options": {"bounds": False},
            })
            assert body["result"]["report"]["feasibility"] == {}
        finally:
            app.close()


# ======================================================================
# Resilience ladder hints.
# ======================================================================
#: A trace whose pressure floor is 4 (at ``e``, values ``a`` and ``b``
#: cross untouched while ``c``/``d`` are read) but whose live-in and
#: live-out sets are empty — doomed for ursa-seq on 3 registers, yet
#: still compilable by the spill rungs.
HIGH_FLOOR = """\
a = load [x]
b = a + 1
c = a + b
d = b + c
e = c + d
f = a + e
g = b + f
store [out], g
"""


class TestLadderHints:
    def test_doomed_rung_skipped(self):
        machine = MachineModel.homogeneous(2, 3)
        dag = build_dag(HIGH_FLOOR)
        hints = feasibility_report(dag, machine)
        assert "ursa-seq" in hints.doomed_rungs()
        with obs.capture() as cap:
            result = compile_trace(
                HIGH_FLOOR, machine, method="ursa-seq", resilient=True,
                hints=hints,
            )
        skipped = [a for a in result.degradation.attempts
                   if a.outcome == "skipped"]
        assert skipped and skipped[0].method == "ursa-seq"
        assert "static analysis" in skipped[0].reason
        assert cap.counters["resilience.hint_skips"] == 1

    def test_infeasible_hints_fail_fast(self):
        machine = MachineModel.homogeneous(2, 2)
        names = [f"v{i}" for i in range(5)]
        src = "\n".join(f"{n} = load [x+{i}]" for i, n in enumerate(names))
        dag = build_dag(src, live_out=names)
        hints = feasibility_report(dag, machine)
        assert hints.infeasible
        with obs.capture() as cap:
            with pytest.raises(PipelineError, match="static analysis"):
                compile_trace(
                    src, machine, method="ursa", resilient=True,
                    hints=hints, live_out=names,
                )
        assert cap.counters["resilience.hint_infeasible"] == 1
        assert "resilience.fallback_attempts" not in cap.counters

    def test_no_hints_is_the_old_behavior(self):
        machine = MachineModel.homogeneous(2, 4)
        result = compile_trace(FIG2, machine, method="ursa", resilient=True)
        assert result.degradation is not None


# ======================================================================
# The contract lint.
# ======================================================================
class TestContractLint:
    def test_repo_is_clean(self):
        sys.path.insert(0, str(REPO / "tools"))
        try:
            import lint_contracts
            assert lint_contracts.run(REPO) == []
        finally:
            sys.path.pop(0)

    def test_lint_catches_violations(self, tmp_path):
        sys.path.insert(0, str(REPO / "tools"))
        try:
            import lint_contracts

            (tmp_path / "docs").mkdir()
            (tmp_path / "docs" / "observability.md").write_text(
                "<!-- obs-name-schema: "
                r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$ -->"
            )
            pkg = tmp_path / "src" / "repro"
            pkg.mkdir(parents=True)
            (pkg / "bad.py").write_text(
                "machine = MachineModel('m', fus, regs,\n"
                "                       reg_class_of=lambda n: 'gpr')\n"
                "obs.count('BadName')\n"
                "obs.span('ok.name', n=1)\n"
                "from repro.reference import measure_all\n"
                "from repro import reference\n"
                "import os, networkx as nx\n"
                "from numpy.linalg import norm\n"
                "from .networkx import shim\n"
                "import sys, multiprocessing\n"
                "from multiprocessing.pool import Pool\n"
                "from .multiprocessing import shim\n"
                "from repro.graph.bitset import BitsetKuhn as Matcher\n"
                "matcher = bitset.BitsetKuhn(4)\n"
                "koenig = bitset.koenig_cover_masks\n"
                "key = trace_key(trace, machine, 'ursa')\n"
                "self.cache.put(artifact)\n"
                "shards = pool.map_shards(pending, machine, 'ursa')\n"
                "artifact = pool_mod._compile_one(trace, machine)\n"
                "inbox.put(task)\n"
            )
            # The oracle itself may import anything, including its own
            # package; only other modules are held to C004.
            (pkg / "reference.py").write_text("import repro.reference\n")
            # The worker pool is the one module allowed to fork; it and
            # the cache own trace keys, cache puts and dispatch.
            (pkg / "serve").mkdir()
            (pkg / "serve" / "cache.py").write_text(
                "key = trace_key(trace, machine, 'ursa')\n"
            )
            (pkg / "serve" / "pool.py").write_text(
                "import multiprocessing\n"
                "cache.put(_compile_one(trace, machine))\n"
                "pool.map_shards(shards, machine, 'ursa')\n"
            )
            # The Dilworth front end is the one module allowed to match.
            (pkg / "graph").mkdir()
            (pkg / "graph" / "dilworth.py").write_text(
                "from repro.graph import bitset\n"
                "matcher = bitset.BitsetKuhn(4)\n"
            )
            findings = lint_contracts.run(tmp_path)
            codes = sorted(f.code for f in findings)
            assert codes == [
                "C001", "C002", "C004", "C004", "C005", "C005", "C006", "C006",
                "C007", "C007", "C008", "C008", "C008", "C008",
            ]
        finally:
            sys.path.pop(0)
