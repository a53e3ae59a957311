"""Golden wire formats of the analyzer and verifier reports.

Pins, byte for byte, what downstream tooling reads: the analyzer's
``to_json()``/``render()`` for an ill-formed source, the verifier's
``to_json()``/``render()`` for a rigged report, and the diagnostics of
a serve 422 admission rejection.  Any change here is a wire-format
change and needs a schema bump (``docs/analysis.md``,
``docs/verification.md``).
"""

from __future__ import annotations

import json

from repro.analyze import analyze_source
from repro.serve.protocol import handle_payload
from repro.verify import RULES, VerifyReport

#: A101 (use before def, with a caret) and an A105 info on ``b``.
ILL_FORMED = "a = x + 1\nb = a + 2\nstore [B], a\nx = load [A]\nstore [C], x\n"

A101_MESSAGE = (
    "value 'x' may be used before its definition (live into entry block 'L0')"
)

ANALYZE_JSON = (
    '{"schema": 1, "ok": false, "file": "golden.ursa", "diagnostics": ['
    '{"code": "A101", "severity": "error", "message": "' + A101_MESSAGE + '", '
    '"span": {"file": "golden.ursa", "line": 1, "column": 5, '
    '"text": "a = x + 1"}}, '
    '{"code": "A105", "severity": "info", '
    '"message": "value \'b\' is defined but never used", '
    '"span": {"file": "golden.ursa", "line": 2, "column": 1, '
    '"text": "b = a + 2"}}], "feasibility": {}}'
)

ANALYZE_TEXT = (
    "golden.ursa:1: error[A101]: " + A101_MESSAGE + "\n"
    "     1 | a = x + 1\n"
    "       |     ^\n"
    "golden.ursa:2: info[A105]: value 'b' is defined but never used\n"
    "     2 | b = a + 2\n"
    "       | ^\n"
    "analysis: 1 error(s), 0 warning(s), 0 trace(s) bounded"
)

VERIFY_JSON = """{
  "schema": 1,
  "artifact": "golden",
  "packs": [
    "lint",
    "dag"
  ],
  "counts": {
    "error": 1,
    "warning": 1,
    "info": 0
  },
  "ok": false,
  "diagnostics": [
    {
      "rule": "lint.unused-def",
      "severity": "warning",
      "message": "value 'b' is defined but never used",
      "location": "n3"
    },
    {
      "rule": "dag.cycle",
      "severity": "error",
      "message": "dependence cycle through 2 node(s)",
      "location": "n1 -> n2",
      "data": {
        "nodes": [
          1,
          2
        ]
      }
    }
  ]
}"""

VERIFY_TEXT = (
    "verify golden: 1 error(s), 1 warning(s), 0 info  [packs: lint, dag]\n"
    "  ERROR   dag.cycle                dependence cycle through 2 node(s)"
    "  @ n1 -> n2\n"
    "  WARNING lint.unused-def          value 'b' is defined but never used"
    "  @ n3"
)

#: Only the error-severity finding is carried; the A105 info passes.
REJECT_DIAGNOSTICS = (
    '[{"code": "A101", "severity": "error", "message": "' + A101_MESSAGE
    + '", "span": {"file": null, "line": 1, "column": 5, '
    '"text": "a = x + 1"}}]'
)


def test_analyze_report_wire_format():
    report = analyze_source(ILL_FORMED, filename="golden.ursa")
    assert report.to_json() == ANALYZE_JSON
    assert report.render() == ANALYZE_TEXT


def _rigged_verify_report() -> VerifyReport:
    report = VerifyReport(artifact="golden", packs=["lint", "dag"])
    report.add(RULES["lint.unused-def"].diag(
        "value 'b' is defined but never used", location="n3",
    ))
    report.add(RULES["dag.cycle"].diag(
        "dependence cycle through 2 node(s)", location="n1 -> n2",
        nodes=[1, 2],
    ))
    return report


def test_verify_report_wire_format():
    report = _rigged_verify_report()
    assert report.to_json() == VERIFY_JSON
    assert report.render() == VERIFY_TEXT
    assert VerifyReport.from_json(VERIFY_JSON).to_json() == VERIFY_JSON


def test_admission_rejection_wire_format():
    status, body = handle_payload({"kind": "trace", "source": ILL_FORMED}, None)
    assert status == 422
    assert body["error"]["code"] == "ill_formed"
    assert json.dumps(body["error"]["diagnostics"]) == REJECT_DIAGNOSTICS
