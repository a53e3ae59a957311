"""Code generation: lowering a bound :class:`Schedule` to VLIW words."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.diagnostics import CompileError
from repro.ir.instructions import Imm, Var
from repro.machine.vliw import MachineOp, RegRef, VLIWProgram, VLIWWord
from repro.scheduling.list_scheduler import Schedule, ScheduledOp


class CodegenError(CompileError):
    """Raised when a schedule cannot be lowered (missing binding etc.)."""


def lower_schedule(schedule: Schedule) -> VLIWProgram:
    """Translate a register-bound schedule into a VLIW program.

    Every value name in the schedule must have a physical register in
    ``schedule.reg_assignment`` (the list scheduler guarantees this when
    run with ``respect_registers=True``).
    """
    program = VLIWProgram(machine=schedule.machine)
    program.live_in_regs = dict(schedule.live_in_regs)
    if not schedule.ops:
        return program

    last_cycle = max(op.cycle for op in schedule.ops)
    program.words = [VLIWWord() for _ in range(last_cycle + 1)]
    for op in schedule.ops:
        program.words[op.cycle].place(
            op.fu_class, op.fu_index, _lower_op(op, schedule.reg_assignment)
        )
    return program


def _reg_of(name: str, assignment: Dict[str, RegRef]) -> RegRef:
    try:
        return assignment[name]
    except KeyError:
        raise CodegenError(f"value {name!r} has no register binding")


def _lower_op(op: ScheduledOp, assignment: Dict[str, RegRef]) -> MachineOp:
    inst = op.inst
    dest: Optional[RegRef] = None
    if inst.dest is not None:
        dest = _reg_of(inst.dest, assignment)
    srcs = []
    for src in inst.srcs:
        if isinstance(src, Imm):
            srcs.append(src.value)
        elif isinstance(src, Var):
            srcs.append(_reg_of(src.name, assignment))
        else:  # pragma: no cover - exhaustive
            raise CodegenError(f"bad operand {src!r}")
    return MachineOp(
        op=inst.op,
        dest=dest,
        srcs=tuple(srcs),
        addr=inst.addr,
        target=inst.target,
        source_uid=op.uid,
    )
