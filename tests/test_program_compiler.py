"""Tests for whole-program compilation (traces, boundaries, loops)."""

import pytest

from repro.ir.parser import parse_program
from repro.machine.model import MachineModel
from repro.program_compiler import (
    CompiledProgram,
    ProgramCompileError,
    compile_program,
    entry_safe_traces,
    prepare_trace,
    var_cell,
    verify_compiled_program,
)

LOOP_SOURCE = """
L0:
  i = 0
  acc = 0
Lloop:
  acc = acc + i
  i = i + 1
  c = i < 10
  if c goto Lloop
Ldone:
  s = load [scale]
  r = acc * s
  store [out], r
  halt
"""

DIAMOND_SOURCE = """
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
"""

NESTED_SOURCE = """
start:
  n = 3
  total = 0
  i = 0
outer:
  j = 0
inner:
  a = load [m]
  total = total + a
  total = total + j
  j = j + 1
  cj = j < n
  if cj goto inner
after:
  i = i + 1
  ci = i < n
  if ci goto outer
done:
  store [res], total
  halt
"""

MACHINE = MachineModel.homogeneous(2, 4)
METHODS = ("ursa", "prepass", "postpass", "goodman-hsu", "naive")


class TestTraceFormation:
    def test_every_transfer_targets_a_head(self):
        program = parse_program(NESTED_SOURCE)
        traces = entry_safe_traces(program)
        heads = {trace.labels[0] for trace in traces}
        in_trace_pred = {}
        for trace in traces:
            for earlier, later in zip(trace.labels, trace.labels[1:]):
                in_trace_pred[later] = earlier
        for src, succs in program.cfg().items():
            for dst in succs:
                if in_trace_pred.get(dst) != src:
                    assert dst in heads, f"{dst} entered mid-trace from {src}"

    def test_entry_heads_a_trace(self):
        program = parse_program(LOOP_SOURCE)
        traces = entry_safe_traces(program)
        assert any(t.labels[0] == "L0" for t in traces)

    def test_loop_header_is_a_head(self):
        program = parse_program(LOOP_SOURCE)
        heads = {t.labels[0] for t in entry_safe_traces(program)}
        assert "Lloop" in heads

    def test_traces_partition_blocks(self):
        program = parse_program(NESTED_SOURCE)
        traces = entry_safe_traces(program)
        labels = [label for t in traces for label in t.labels]
        assert sorted(labels) == sorted(b.label for b in program.blocks)


class TestPrepareTrace:
    def test_live_ins_loaded(self):
        program = parse_program(LOOP_SOURCE)
        trace = next(
            t for t in entry_safe_traces(program) if t.labels[0] == "Lloop"
        )
        prepared = prepare_trace(program, trace)
        loads = [
            i for i in prepared.instructions
            if i.is_memory_read and i.addr.base.startswith("%var:")
        ]
        loaded = {i.dest for i in loads}
        assert {"i", "acc"} <= loaded

    def test_exit_stores_before_branch(self):
        program = parse_program(LOOP_SOURCE)
        trace = next(
            t for t in entry_safe_traces(program) if t.labels[0] == "Lloop"
        )
        prepared = prepare_trace(program, trace)
        ops = prepared.instructions
        branch_pos = next(
            pos for pos, i in enumerate(ops) if i.op.value == "cbr"
        )
        stored = {
            i.addr.base
            for i in ops[:branch_pos]
            if i.is_memory_write and i.addr.base.startswith("%var:")
        }
        assert var_cell("i").base in stored
        assert var_cell("acc").base in stored

    def test_fallthrough_recorded(self):
        program = parse_program(DIAMOND_SOURCE)
        trace = next(
            t for t in entry_safe_traces(program) if t.labels[-1] == "small"
        )
        prepared = prepare_trace(program, trace)
        assert prepared.fallthrough == "join"

    def test_halt_trace_has_no_fallthrough(self):
        program = parse_program(DIAMOND_SOURCE)
        traces = {t.labels[0]: t for t in entry_safe_traces(program)}
        join_head = next(h for h in traces if "join" in traces[h].labels)
        prepared = prepare_trace(program, traces[join_head])
        assert prepared.fallthrough is None


class TestExecution:
    @pytest.mark.parametrize("method", METHODS)
    def test_loop_program(self, method):
        program = parse_program(LOOP_SOURCE)
        compiled = compile_program(program, MACHINE, method=method)
        run, ok = verify_compiled_program(compiled, {("scale", 0): 3})
        assert ok
        assert run.stores_to("out") == {0: 135}

    @pytest.mark.parametrize("method", ("ursa", "prepass", "naive"))
    def test_nested_loops(self, method):
        program = parse_program(NESTED_SOURCE)
        compiled = compile_program(program, MACHINE, method=method)
        run, ok = verify_compiled_program(compiled, {("m", 0): 7})
        assert ok
        # total = 3 outer x (3*7 + 0+1+2) = 3 * 24 = 72
        assert run.stores_to("res") == {0: 72}

    @pytest.mark.parametrize("taken", [3, 50])
    def test_diamond_both_paths(self, taken):
        program = parse_program(DIAMOND_SOURCE)
        compiled = compile_program(program, MACHINE, method="ursa")
        run, ok = verify_compiled_program(compiled, {("a", 0): taken})
        assert ok
        expected = taken + 100 if taken < 10 else taken * 2
        assert run.stores_to("out") == {0: expected}

    def test_trace_path_reflects_control_flow(self):
        program = parse_program(LOOP_SOURCE)
        compiled = compile_program(program, MACHINE, method="ursa")
        run = compiled.run({("scale", 0): 1})
        # L0 once, Lloop 10 times (the last iteration falls into Ldone,
        # which lives in the same trace as Lloop or its own).
        assert run.trace_path[0] == "L0"
        assert run.trace_path.count("Lloop") == 10

    def test_runaway_loop_detected(self):
        program = parse_program(
            "L0:\n  x = 1\nLloop:\n  c = 1\n  if c goto Lloop\nLend:\n  halt"
        )
        compiled = compile_program(program, MACHINE, method="naive")
        with pytest.raises(ProgramCompileError):
            compiled.run(max_dispatches=50)

    def test_var_cells_hidden_from_user_memory(self):
        program = parse_program(LOOP_SOURCE)
        compiled = compile_program(program, MACHINE, method="ursa")
        run = compiled.run({("scale", 0): 2})
        assert all(not base.startswith("%") for base, _ in run.user_memory())

    def test_tight_machine_still_correct(self):
        machine = MachineModel.homogeneous(1, 3)
        program = parse_program(NESTED_SOURCE)
        compiled = compile_program(program, machine, method="ursa")
        run, ok = verify_compiled_program(compiled, {("m", 0): 2})
        assert ok

    def test_static_op_count(self):
        program = parse_program(LOOP_SOURCE)
        compiled = compile_program(program, MACHINE, method="ursa")
        assert compiled.total_static_ops() > 10


# Both arms of the branch are the same trace once each block is its own.
REPEATED_SOURCE = """
L0:
  c = load [C]
  if c goto L2
L1:
  x = load [A]
  y = x + 1
  store [B], y
  halt
L2:
  x = load [A]
  y = x + 1
  store [B], y
  halt
"""


class TestRepeatedTraces:
    def test_serial_and_jobs_agree_and_compile_duplicates_once(self):
        from repro.serve import program_signature

        program = parse_program(REPEATED_SOURCE)
        serial = compile_program(program, MACHINE, max_trace_blocks=1)
        sharded = compile_program(
            program, MACHINE, max_trace_blocks=1, jobs=2
        )
        assert sorted(serial.traces) == ["L0", "L1", "L2"]
        assert sorted(sharded.traces) == sorted(serial.traces)
        for compiled in (serial, sharded):
            # No cache in use: the counters read 0/0.
            assert (compiled.cache_hits, compiled.cache_misses) == (0, 0)
            traces = compiled.traces
            assert traces["L1"].program is traces["L2"].program
            for taken in (0, 1):
                _, ok = verify_compiled_program(
                    compiled, {("C", 0): taken, ("A", 0): 5}
                )
                assert ok
        for head in serial.traces:
            assert program_signature(
                serial.traces[head].program
            ) == program_signature(sharded.traces[head].program), head
