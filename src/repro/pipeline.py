"""End-to-end compilation pipelines: source/trace -> VLIW -> verified run.

This is the top-level user API: pick a method (URSA with any policy, or
one of the baselines), compile a trace for a machine, and — by default —
verify the generated VLIW program against the reference interpreter on
synthesized inputs.

One compile is a fixed sequence of phases (:data:`PHASES`, listed by
``repro passes``): build_dag -> allocate -> assign -> codegen -> verify
for a URSA method, or the backend's schedule pass in place of
allocate + assign for every other method.  Each phase runs in its own
``phase.*`` span; ``verify_each`` re-checks the DAG after each phase
that produced or rewrote it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro import obs
from repro.analysis.metrics import ScheduleStats
from repro.core.allocator import AllocationResult, URSAAllocator
from repro.core.assignment import assign
from repro.core.codegen import lower_schedule
from repro.diagnostics import CompileError
from repro.graph.dag import DependenceDAG
from repro.ir.instructions import Instruction
from repro.ir.interp import Interpreter, MemoryState
from repro.ir.opcodes import Opcode
from repro.ir.parser import parse_trace
from repro.ir.trace import Trace
from repro.machine.model import MachineModel
from repro.machine.simulator import SimulationResult, VLIWSimulator
from repro.machine.vliw import VLIWProgram
from repro.methods import (
    UnknownMethodError,
    default_compare_methods,
    method_names,
    resolve,
)
from repro.resilience.budgets import active_deadline, deadline_scope
from repro.scheduling.list_scheduler import Schedule

#: The compilation methods the harness can compare — one registry call;
#: every backend registered in ``repro.methods`` appears here.
METHODS = method_names()


class PipelineError(CompileError):
    """Compilation or verification failed."""


@dataclass
class CompilationResult:
    """Everything produced by one compile: schedule, code, and metrics."""

    method: str
    machine: MachineModel
    dag: DependenceDAG
    schedule: Schedule
    program: VLIWProgram
    allocation: Optional[AllocationResult]
    simulation: Optional[SimulationResult]
    verified: Optional[bool]
    stats: ScheduleStats
    #: Set by resilient compilation (``compile_trace(resilient=True)``):
    #: a :class:`repro.resilience.fallback.DegradationReport`.
    degradation: Optional[object] = None
    #: Backend-specific attribution: the exact solver's optimality
    #: certificate, the portfolio's win report (see docs/backends.md).
    backend_report: Optional[Dict[str, object]] = None
    #: Why the deadline in scope tripped (``time``/``work``/``chaos``)
    #: by the end of this compile, or None.  A tripped deadline may have
    #: cut a search short anywhere, so it always means ``degraded``.
    deadline_tripped: Optional[str] = None

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def degraded(self) -> bool:
        if self.deadline_tripped is not None:
            return True
        if self.degradation is not None and self.degradation.degraded:
            return True
        return self.allocation is not None and self.allocation.degraded


def build_dag(
    source: Union[str, Sequence[Instruction], Trace, DependenceDAG],
    live_out: Sequence[str] = (),
) -> DependenceDAG:
    """Normalize any supported input into a dependence DAG."""
    if isinstance(source, DependenceDAG):
        return source
    if isinstance(source, Trace):
        return DependenceDAG.from_trace(
            source.flatten(),
            side_exit_liveness=source.side_exit_liveness(),
            live_out=source.fallthrough_liveness(),
        )
    if isinstance(source, str):
        instructions = parse_trace(source)
    else:
        instructions = list(source)
    return DependenceDAG.from_trace(instructions, live_out=live_out)


def compile_trace(
    source: Union[str, Sequence[Instruction], Trace, DependenceDAG],
    machine: MachineModel,
    method: str = "ursa",
    live_out: Sequence[str] = (),
    verify: bool = True,
    memory: Optional[MemoryState] = None,
    seed: int = 0,
    optimize: bool = False,
    assignment: str = "bind",
    static_checks: bool = True,
    verify_each: bool = False,
    resilient: bool = False,
    deadline: Optional[object] = None,
    hints: Optional[object] = None,
    backend_options: Optional[Dict[str, object]] = None,
) -> CompilationResult:
    """Compile one trace with the chosen method.

    With ``verify=True`` the generated VLIW program is simulated and its
    final memory compared against the reference interpreter running the
    original trace on the same inputs (synthesized deterministically
    from ``seed`` unless ``memory`` is given).  ``optimize`` runs the
    classical scalar passes (folding, CSE, copy propagation, DCE) before
    allocation; it requires a trace input (not a prebuilt DAG).

    ``static_checks`` runs the ``repro.verify`` schedule rule pack on
    the final schedule *before* any simulation — a soundness break is
    reported as the rule that caught it, not as a memory divergence.
    ``verify_each`` additionally re-verifies the DAG after every phase
    that rewrites it, raising on the first violation, and adds the
    invariant packs to the URSA allocator's commit gate, which rolls
    back a commit that breaks them (slow; for debugging passes).

    Resilience (see ``docs/resilience.md``): ``resilient=True`` routes
    through the escalation ladder — on any failure the compile degrades
    to a simpler method, ending at the always-feasible spill-everywhere
    baseline, and the result carries a structured ``degradation``
    report.  ``deadline`` (a :class:`repro.resilience.Deadline`) bounds
    the NP-hard searches, which then return best-so-far answers tagged
    as degraded.

    ``hints`` (only consulted when ``resilient=True``) accepts a
    :class:`repro.analyze.bounds.FeasibilityReport` from the static
    analyzer; the ladder skips rungs the bounds prove doomed and fails
    fast on globally infeasible traces (``docs/analysis.md``).

    ``backend_options`` is passed through to the resolved backend's
    schedule pass (e.g. ``{"bnb_max_ops": 18}`` for ``bnb-exact``,
    ``{"portfolio_members": (...)}`` for ``portfolio``).
    """
    try:
        resolve(method)
    except UnknownMethodError as exc:
        raise PipelineError(str(exc)) from exc

    if resilient:
        from repro.resilience.fallback import compile_with_fallback

        return compile_with_fallback(
            source,
            machine,
            method=method,
            deadline=deadline,
            hints=hints,
            live_out=live_out,
            verify=verify,
            memory=memory,
            seed=seed,
            optimize=optimize,
            assignment=assignment,
            static_checks=static_checks,
            verify_each=verify_each,
            backend_options=backend_options,
        )
    if deadline is not None:
        with deadline_scope(deadline):
            return _compile_once(
                source, machine, method, live_out, verify, memory, seed,
                optimize, assignment, static_checks, verify_each,
                backend_options,
            )
    return _compile_once(
        source, machine, method, live_out, verify, memory, seed, optimize,
        assignment, static_checks, verify_each, backend_options,
    )


#: The compile's phases in the order they run; ``repro passes`` lists
#: them.  A method runs either allocate + assign (a backend with a URSA
#: policy) or schedule (every other backend).  Every phase except
#: ``static_checks`` runs inside its own ``phase.<name>`` span.
PHASES: Tuple[Tuple[str, str], ...] = (
    ("build_dag",
     "normalize the input (text, instructions, Trace, DAG) into a "
     "dependence DAG"),
    ("allocate",
     "URSA measurement/transformation loop for registers and functional "
     "units"),
    ("assign",
     "bind the allocated DAG to concrete units/registers and a schedule"),
    ("schedule",
     "the resolved backend's schedule pass (baselines, the exact bnb "
     "solver, the portfolio racer; see repro.methods)"),
    ("static_checks",
     "gate the schedule on the repro.verify rule pack before simulating"),
    ("codegen", "lower the schedule to a VLIW program"),
    ("verify",
     "simulate the program and compare memory against the reference "
     "interpreter"),
)


def _verify_dag_after(phase: str, dag: DependenceDAG, machine: MachineModel) -> None:
    """The ``verify_each`` check: the DAG rule packs after a phase that
    produced or rewrote the DAG; raises on the first violation."""
    from repro.verify import verify_dag

    verify_dag(dag, machine).raise_if_errors(f"after pass {phase}")


def _compile_once(
    source: Union[str, Sequence[Instruction], Trace, DependenceDAG],
    machine: MachineModel,
    method: str,
    live_out: Sequence[str],
    verify: bool,
    memory: Optional[MemoryState],
    seed: int,
    optimize: bool,
    assignment: str,
    static_checks: bool,
    verify_each: bool,
    backend_options: Optional[Dict[str, object]] = None,
) -> CompilationResult:
    """One rung of compilation; no ladder, deadline comes from scope."""

    if optimize:
        if isinstance(source, DependenceDAG):
            raise PipelineError("optimize=True needs a trace, not a DAG")
        from repro.opt import optimize_trace as _optimize

        if isinstance(source, Trace):
            raise PipelineError(
                "optimize=True on Trace objects is unsupported; pass the "
                "flattened instructions"
            )
        instructions = (
            parse_trace(source) if isinstance(source, str) else list(source)
        )
        source, _ = _optimize(instructions, live_out=live_out)

    backend = resolve(method)
    with obs.span("phase.build_dag", method=method):
        dag = build_dag(source, live_out=live_out)
    if verify_each:
        _verify_dag_after("build_dag", dag, machine)

    backend_report = None
    if backend.policy is not None:
        with obs.span("phase.allocate", method=method):
            allocation = URSAAllocator(
                machine, backend.policy, verify_each=verify_each
            ).run(dag)
        final_dag = allocation.dag
        if verify_each:
            _verify_dag_after("allocate", final_dag, machine)
        with obs.span("phase.assign", method=method):
            schedule = assign(
                final_dag, machine, allocation, backend=assignment
            ).schedule
    else:
        # The backend's schedule pass owns the whole strategy
        # (docs/backends.md).
        with obs.span("phase.schedule", method=method):
            schedule, final_dag, allocation, backend_report = (
                backend.schedule_pass(dag, machine, dict(backend_options or {}))
            )
        if verify_each:
            _verify_dag_after("schedule", final_dag, machine)

    if static_checks:
        from repro.verify import verify_schedule

        report = verify_schedule(schedule, dag=final_dag, machine=machine)
        if not report.ok:
            raise PipelineError(
                f"{method} on {machine.name}: static schedule "
                f"verification failed\n{report.render()}"
            )

    with obs.span("phase.codegen", method=method):
        program = lower_schedule(schedule)

    simulation: Optional[SimulationResult] = None
    verified: Optional[bool] = None
    if verify:
        with obs.span("phase.verify", method=method):
            simulation, verified = verify_program(
                dag,
                program,
                machine,
                memory if memory is not None else synthesize_memory(dag, seed),
                schedule.live_out_regs,
            )
            if not verified:
                raise PipelineError(
                    f"{method} on {machine.name}: simulated memory "
                    "diverges from the reference interpreter"
                )

    deadline = active_deadline()
    return CompilationResult(
        method=method,
        machine=machine,
        dag=final_dag,
        schedule=schedule,
        program=program,
        allocation=allocation,
        simulation=simulation,
        verified=verified,
        stats=ScheduleStats.collect(
            method, schedule, program, simulation, verified
        ),
        backend_report=backend_report,
        deadline_tripped=deadline.tripped if deadline is not None else None,
    )


def compare_methods(
    source: Union[str, Sequence[Instruction], Trace, DependenceDAG],
    machine: MachineModel,
    methods: Optional[Sequence[str]] = None,
    **kwargs,
) -> Dict[str, CompilationResult]:
    """Compile the same trace with several methods (shared inputs).

    ``methods`` defaults to the backends tagged ``default_compare`` in
    the registry (``repro.methods.default_compare_methods``).
    """
    if methods is None:
        methods = default_compare_methods()
    dag = build_dag(source, live_out=kwargs.pop("live_out", ()))
    return {
        method: compile_trace(dag, machine, method=method, **kwargs)
        for method in methods
    }


# ----------------------------------------------------------------------
# Verification plumbing.
# ----------------------------------------------------------------------
def synthesize_memory(dag: DependenceDAG, seed: int = 0) -> MemoryState:
    """Deterministic nonzero contents for every cell the trace loads."""
    memory: MemoryState = {}
    for uid in dag.op_nodes():
        inst = dag.instruction(uid)
        if inst.op is Opcode.LOAD and inst.addr is not None:
            cell = (inst.addr.base, inst.addr.offset)
            if cell not in memory:
                digest = hashlib.sha256(
                    f"{seed}:{cell[0]}:{cell[1]}".encode()
                ).digest()
                value = int.from_bytes(digest[:2], "big") % 97 + 2
                memory[cell] = value
    return memory


def _reference_memory(
    dag: DependenceDAG,
    memory: MemoryState,
    live_in_values: Dict[str, int],
) -> Tuple[MemoryState, Dict[str, int]]:
    """Interpret the DAG's instructions in a legal sequential order."""
    interpreter = Interpreter(memory)
    result = interpreter.run_trace(dag.linearize(), env=live_in_values)
    return result.memory, result.env


def verify_program(
    dag: DependenceDAG,
    program: VLIWProgram,
    machine: MachineModel,
    memory: MemoryState,
    live_out_regs: Optional[Dict[str, "object"]] = None,
) -> Tuple[SimulationResult, bool]:
    """Simulate ``program`` and compare it against the interpreter.

    Checks (a) final user-visible memory (spill slots excluded) and
    (b) when ``live_out_regs`` is given, that each live-out value sits
    in its advertised register.
    """
    live_in_names = {
        name for name, d in dag.value_defs.items() if d == dag.entry
    }
    live_in_values = {name: _live_in_value(name, memory) for name in live_in_names}
    expected_memory, env = _reference_memory(dag, memory, live_in_values)

    simulator = VLIWSimulator(machine, memory)
    simulation = simulator.run(
        program,
        live_in_values={
            name: live_in_values[name] for name in program.live_in_regs
        },
    )

    observed = {
        cell: value
        for cell, value in simulation.memory.items()
        if not cell[0].startswith("%")  # ignore compiler spill slots
    }
    expected = {
        cell: value
        for cell, value in expected_memory.items()
        if not cell[0].startswith("%")
    }
    ok = observed == expected

    if ok and live_out_regs:
        for name, reg in live_out_regs.items():
            want = env.get(name)
            got = simulation.registers[reg.cls][reg.index]
            if want != got:
                ok = False
                break
    return simulation, ok


def _live_in_value(name: str, memory: MemoryState) -> int:
    digest = hashlib.sha256(f"livein:{name}".encode()).digest()
    return int.from_bytes(digest[:2], "big") % 89 + 3
