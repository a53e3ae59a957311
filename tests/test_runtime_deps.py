"""The compiler runs on the standard library alone.

networkx is a test-only dependency (the ``tests/test_dilworth.py``
cross-check) and numpy is not used at all.  A subprocess that makes
both unimportable before the first ``repro`` import must compile,
analyze and verify exactly what this process does.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main as cli_main
from repro.ir.parser import parse_program
from repro.machine.model import MachineModel
from repro.pipeline import compile_trace
from repro.program_compiler import compile_program, verify_compiled_program
from repro.serve.cache import program_signature
from repro.workloads.kernels import kernel

REPO = Path(__file__).resolve().parent.parent

BRANCHING_PROGRAM = """
entry:
  v = load [a]
  c = v < 10
  if c goto small
big:
  r = v * 2
  br join
small:
  r = v + 100
join:
  store [out], r
  halt
orphan:
  store [dead], v
  halt
"""

ISOLATED = """
import json
import sys

sys.modules["networkx"] = None
sys.modules["numpy"] = None
from tests.test_runtime_deps import run

out = run(sys.argv[1])
out["leaked"] = sorted(
    m for m, mod in sys.modules.items()
    if m.split(".")[0] in ("networkx", "numpy") and mod is not None
)
print(json.dumps(out))
"""


def run(program_path: str) -> dict:
    """Compile, verify and analyze; return every output as JSON data."""
    # Four registers make matmul spill, so postpass runs regalloc's
    # coloring with spill rounds.
    machine = MachineModel.homogeneous(2, 4)
    out = {}
    for method in ("ursa", "prepass", "postpass"):
        result = compile_trace(kernel("matmul"), machine, method=method)
        out[method] = [result.verified, program_signature(result.program)]
    compiled = compile_program(parse_program(BRANCHING_PROGRAM), machine)
    _, ok = verify_compiled_program(compiled, {("a", 0): 3})
    out["program"] = [ok] + [
        [label, program_signature(trace.program)]
        for label, trace in sorted(compiled.traces.items())
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(
            ["analyze", program_path, "--fus", "2", "--regs", "4", "--json"]
        )
    out["analyze"] = [code, stdout.getvalue()]
    return out


def test_compile_analyze_verify_without_networkx(tmp_path):
    program_path = tmp_path / "branching.ursa"
    program_path.write_text(BRANCHING_PROGRAM)
    proc = subprocess.run(
        [sys.executable, "-c", ISOLATED, str(program_path)],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    isolated = json.loads(proc.stdout.strip().splitlines()[-1])
    assert isolated.pop("leaked") == []

    assert isolated == json.loads(json.dumps(run(str(program_path))))
    for method in ("ursa", "prepass", "postpass"):
        assert isolated[method][0] is True, method
    assert isolated["program"][0] is True
    code, report = isolated["analyze"]
    assert code == 0
    assert "A103" in report  # the orphan block: the CFG worklist ran
