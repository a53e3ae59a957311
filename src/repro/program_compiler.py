"""Whole-program compilation: every trace compiled, branches followed.

Extends the per-trace pipeline to full control-flow graphs — including
loops — with a simple, sound inter-trace convention:

* traces are split so control only ever *enters a trace at its head*
  (any label targeted by an outside branch, a loop back-edge, or a
  non-trace-predecessor fallthrough starts its own trace);
* values that cross trace boundaries travel through reserved memory
  cells (``%var:<name>``): each trace loads its live-ins on entry and
  stores the values live at each of its exits right before the exit.
  Registers are therefore a purely intra-trace resource, exactly the
  scope URSA allocates them in.

Each prepared trace is compiled with any method (URSA or a baseline)
as self-contained straight-line code; :class:`CompiledProgram` executes
the pieces on the VLIW simulator with ``follow_branches=True``, hopping
from trace to trace, and is verified against the reference interpreter
running the original program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.liveness import block_live_sets
from repro.diagnostics import CompileError
from repro.ir.instructions import Addr, Instruction, Var
from repro.ir.interp import MemoryState, run_program
from repro.ir.opcodes import Opcode
from repro.ir.program import Program
from repro.ir.trace import Trace, select_traces
from repro.machine.model import MachineModel
from repro.machine.simulator import VLIWSimulator
from repro.machine.vliw import VLIWProgram

#: Prefix for the memory cells that carry values across traces.
VAR_BASE_PREFIX = "%var:"


class ProgramCompileError(CompileError):
    """Whole-program compilation or execution failed."""


def var_cell(name: str) -> Addr:
    """The memory home of ``name`` at trace boundaries."""
    return Addr(f"{VAR_BASE_PREFIX}{name}", 0)


# ======================================================================
# Trace formation.
# ======================================================================
def entry_safe_traces(
    program: Program,
    max_trace_blocks: Optional[int] = None,
) -> List[Trace]:
    """Fisher traces, split so every control transfer lands on a head.

    A label must head a trace when any CFG edge reaches it from a block
    that is not its immediate predecessor within the same trace (outside
    branches, loop back-edges) — otherwise the compiled code could be
    entered mid-stream.
    """
    traces = select_traces(program, max_trace_blocks=max_trace_blocks)
    cfg = program.cfg()

    forced_heads: Set[str] = {program.entry.label}
    in_trace_pred: Dict[str, Optional[str]] = {}
    for trace in traces:
        for earlier, later in zip(trace.labels, trace.labels[1:]):
            in_trace_pred[later] = earlier
        in_trace_pred.setdefault(trace.labels[0], None)
    for src, succs in cfg.items():
        for dst in succs:
            if in_trace_pred.get(dst) != src:
                forced_heads.add(dst)

    split: List[Trace] = []
    for trace in traces:
        current: List[str] = []
        for label in trace.labels:
            if label in forced_heads and current:
                split.append(Trace(program, current))
                current = []
            current.append(label)
        if current:
            split.append(Trace(program, current))
    return split


@dataclass
class PreparedTrace:
    """A trace rewritten for memory-carried boundary values."""

    head: str
    labels: List[str]
    instructions: List[Instruction]
    #: label control falls through to when no side exit fires (None = halt).
    fallthrough: Optional[str]
    live_in_names: FrozenSet[str]


def prepare_trace(program: Program, trace: Trace) -> PreparedTrace:
    """Insert boundary loads/stores and flatten the trace.

    Live-ins are loaded from their ``%var`` cells at the top; the values
    live into each side exit's target (and into the fallthrough
    continuation) are stored right before that exit, where branch
    pinning keeps them.
    """
    live_in, live_out = block_live_sets(program)
    head = trace.labels[0]
    flat = trace.flatten()

    body: List[Instruction] = []
    for name in sorted(live_in[head]):
        body.append(Instruction(Opcode.LOAD, dest=name, addr=var_cell(name)))

    halted = False
    for inst in flat:
        if inst.op is Opcode.CBR:
            target_live = live_in.get(inst.target, frozenset())
            for name in sorted(target_live):
                body.append(
                    Instruction(
                        Opcode.STORE, srcs=(Var(name),), addr=var_cell(name)
                    )
                )
            body.append(inst)
        elif inst.op is Opcode.HALT:
            halted = True
            break
        else:
            body.append(inst)

    last_label = trace.labels[-1]
    last_block = program.block(last_label)
    fallthrough: Optional[str] = None
    if not halted:
        terminator = last_block.terminator
        if terminator is not None and terminator.op is Opcode.HALT:
            pass
        elif terminator is not None and terminator.op is Opcode.BR:
            fallthrough = terminator.target
        else:
            fallthrough = program.fallthrough_label(last_label)
    if fallthrough is not None:
        if fallthrough not in {b.label for b in program.blocks}:
            fallthrough = None  # external continuation: treat as halt
    if fallthrough is not None:
        for name in sorted(live_in.get(fallthrough, frozenset())):
            body.append(
                Instruction(Opcode.STORE, srcs=(Var(name),), addr=var_cell(name))
            )

    return PreparedTrace(
        head=head,
        labels=list(trace.labels),
        instructions=body,
        fallthrough=fallthrough,
        live_in_names=frozenset(live_in[head]),
    )


# ======================================================================
# Compilation.
# ======================================================================
@dataclass
class CompiledTrace:
    prepared: PreparedTrace
    program: VLIWProgram
    cycles_estimate: int


@dataclass
class ProgramRunResult:
    """Outcome of executing a compiled program on the simulator."""

    memory: MemoryState
    cycles: int
    trace_path: List[str]

    def stores_to(self, base: str) -> Dict[int, int]:
        return {
            offset: value
            for (cell_base, offset), value in self.memory.items()
            if cell_base == base
        }

    def user_memory(self) -> MemoryState:
        return {
            cell: value
            for cell, value in self.memory.items()
            if not cell[0].startswith("%")
        }


@dataclass
class CompiledProgram:
    """A whole program compiled trace-by-trace for one machine."""

    machine: MachineModel
    source: Program
    entry: str
    traces: Dict[str, CompiledTrace]
    method: str
    #: persistent-cache outcome for this compile (0/0 when caching off).
    cache_hits: int = 0
    cache_misses: int = 0

    MAX_TRACE_DISPATCHES = 1_000_000

    def run(
        self,
        memory: Optional[MemoryState] = None,
        max_dispatches: Optional[int] = None,
    ) -> ProgramRunResult:
        """Execute on the VLIW simulator, following branches."""
        state: MemoryState = dict(memory or {})
        label: Optional[str] = self.entry
        cycles = 0
        path: List[str] = []
        budget = max_dispatches or self.MAX_TRACE_DISPATCHES
        while label is not None:
            if len(path) >= budget:
                raise ProgramCompileError(
                    "trace dispatch limit exceeded (infinite loop?)"
                )
            try:
                compiled = self.traces[label]
            except KeyError:
                raise ProgramCompileError(f"no trace starts at {label!r}")
            path.append(label)
            simulator = VLIWSimulator(self.machine, state)
            result = simulator.run(compiled.program, follow_branches=True)
            state = result.memory
            cycles += result.cycles
            if result.branch_target is not None:
                label = result.branch_target
            else:
                label = compiled.prepared.fallthrough
        return ProgramRunResult(memory=state, cycles=cycles, trace_path=path)

    def total_static_ops(self) -> int:
        return sum(t.program.op_count for t in self.traces.values())


def compile_program(
    program: Program,
    machine: MachineModel,
    method: str = "ursa",
    max_trace_blocks: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: object = None,
    deadline_ms: Optional[float] = None,
    resilient: bool = False,
    pool: Optional[object] = None,
) -> CompiledProgram:
    """Compile every trace of ``program`` for ``machine``.

    Per-trace compilation is not individually simulated (the whole
    program is verified end-to-end instead; see
    :func:`verify_compiled_program`).  The traces go through
    :func:`repro.serve.pool.compile_traces`, the cache-and-dispatch path
    the server's trace route takes too: duplicate traces compile once,
    and a degraded artifact is never cached.  Knobs (see
    ``docs/serving.md``):

    * ``cache`` — persistent content-addressed artifact cache: ``True``
      for the default store (``$REPRO_CACHE_DIR`` / ``~/.cache/repro``),
      a path, or a :class:`repro.serve.CompileCache`.  Identical traces
      hit across runs, processes, and users.
    * ``pool`` — a warm :class:`repro.serve.pool.WorkerPool` that
      compiles the cache misses; without one, ``jobs`` ≥ 2 forks a
      short-lived pool of up to ``jobs`` workers when at least two
      traces miss.
    * ``deadline_ms`` / ``resilient`` — per-trace deadline and the
      ``repro.resilience`` fallback ladder inside each shard.

    Every knob is bit-identical to the serial compile with none set
    (compare :func:`repro.serve.program_signature` per trace).
    """
    from repro import obs
    from repro.serve.cache import resolve_cache
    from repro.serve.pool import compile_traces

    program.validate()
    traces = entry_safe_traces(program, max_trace_blocks=max_trace_blocks)
    prepared_list = [prepare_trace(program, trace) for trace in traces]
    store = resolve_cache(cache)
    outcomes = compile_traces(
        [prepared.instructions for prepared in prepared_list],
        machine,
        method,
        cache=store,
        deadline_ms=deadline_ms,
        resilient=resilient,
        pool=pool,
        jobs=jobs,
    )
    hits = len({outcome.key for outcome in outcomes if outcome.hit})
    misses = len({outcome.key for outcome in outcomes if not outcome.hit})

    obs.count("serve.program_traces", len(prepared_list))
    if store is not None:
        obs.count("serve.program_cache_hits", hits)

    compiled = {
        prepared.head: CompiledTrace(
            prepared=prepared,
            program=outcome.artifact.program,
            cycles_estimate=outcome.artifact.cycles_estimate,
        )
        for prepared, outcome in zip(prepared_list, outcomes)
    }
    return CompiledProgram(
        machine=machine,
        source=program,
        entry=program.entry.label,
        traces=compiled,
        method=method,
        cache_hits=hits,
        cache_misses=misses if store is not None else 0,
    )


def verify_compiled_program(
    compiled: CompiledProgram,
    memory: Optional[MemoryState] = None,
    max_steps: int = 200_000,
) -> Tuple[ProgramRunResult, bool]:
    """Run compiled code and the interpreter; compare user memory."""
    from repro.ir.interp import Interpreter

    memory = dict(memory or {})
    reference = Interpreter(memory, max_steps=max_steps).run_program(
        compiled.source
    )
    run = compiled.run(memory)
    expected = {
        cell: value
        for cell, value in reference.memory.items()
        if not cell[0].startswith("%")
    }
    return run, run.user_memory() == expected
