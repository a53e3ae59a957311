"""Cycle-accurate simulator for the synthetic VLIW machine.

The simulator is the correctness oracle's second half: a compiled trace
is correct when simulating it produces the same final memory as the
reference interpreter running the original IR.  It also *enforces* the
machine model — register-file bounds, slot legality, non-pipelined FU
occupancy, and write-before-read timing — so scheduling bugs surface as
:class:`SimulationError` rather than silently wrong answers.

Timing model: ops issue at the cycle of their word, read the register
file at issue, and write their destination at the end of cycle
``issue + latency - 1``; a consumer may issue at ``issue + latency`` or
later.  There are no interlocks (true VLIW): reading a register whose
write is still in flight is a detected error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.diagnostics import CompileError
from repro.ir.instructions import Imm, Instruction, Var
from repro.ir.interp import MemoryState, _binary_eval
from repro.ir.opcodes import Opcode
from repro.machine.model import MachineModel
from repro.machine.vliw import MachineOp, RegRef, VLIWProgram


class SimulationError(CompileError):
    """A machine-model violation or runtime fault during simulation."""


@dataclass
class SimulationResult:
    """Outcome of simulating a VLIW program."""

    cycles: int
    memory: MemoryState
    registers: Dict[str, List[Optional[int]]]
    issued_ops: int
    stall_words: int
    #: label of the first taken conditional branch, when the simulator
    #: ran with ``follow_branches=True`` and a side exit fired.
    branch_target: Optional[str] = None

    def stores_to(self, base: str) -> Dict[int, int]:
        return {
            offset: value
            for (cell_base, offset), value in self.memory.items()
            if cell_base == base
        }


class VLIWSimulator:
    """Executes :class:`VLIWProgram` objects against a machine model."""

    def __init__(self, machine: MachineModel, memory: Optional[MemoryState] = None):
        self.machine = machine
        self.initial_memory: MemoryState = dict(memory or {})

    # ------------------------------------------------------------------
    def run(
        self,
        program: VLIWProgram,
        live_in_values: Optional[Dict[str, int]] = None,
        follow_branches: bool = False,
    ) -> SimulationResult:
        """Simulate ``program`` to completion.

        ``live_in_values`` supplies the runtime values of trace live-ins;
        they are deposited into ``program.live_in_regs`` before cycle 0.

        With ``follow_branches``, a conditional branch whose condition is
        non-zero *takes* its side exit: the current word finishes (its
        co-issued ops are independent of the branch by construction) and
        simulation stops, reporting the target label.  Stores and
        faulting ops are pinned on the correct side of every branch by
        the DAG builder, so the memory state at the stop is exactly the
        source semantics up to the branch.
        """
        if program.machine is not self.machine and program.machine != self.machine:
            raise SimulationError("program compiled for a different machine")

        regs: Dict[str, List[Optional[int]]] = {
            cls: [None] * count for cls, count in self.machine.registers.items()
        }
        #: per-register cycle at which the in-flight write lands (readable
        #: the following cycle); -1 when no write is pending.
        ready_at: Dict[Tuple[str, int], int] = {}
        memory = dict(self.initial_memory)

        live_in_values = live_in_values or {}
        for name, ref in program.live_in_regs.items():
            if name not in live_in_values:
                raise SimulationError(f"no runtime value for live-in {name!r}")
            self._check_reg(ref)
            regs[ref.cls][ref.index] = live_in_values[name]

        fu_busy_until: Dict[Tuple[str, int], int] = {}
        issued = 0
        stalls = 0
        last_write_cycle = 0
        taken_target: Optional[str] = None

        for cycle, word in enumerate(program.words):
            if not word.slots:
                stalls += 1
            pending_writes: List[Tuple[RegRef, int, int]] = []
            for (fu_name, fu_index), op in sorted(word.slots.items()):
                fu = self.machine.fu_class(fu_name)
                if fu_index >= fu.count:
                    raise SimulationError(
                        f"cycle {cycle}: no unit {fu_name}[{fu_index}]"
                    )
                if not fu.executes(op.op):
                    raise SimulationError(
                        f"cycle {cycle}: {fu_name} cannot execute {op.op.value}"
                    )
                busy_until = fu_busy_until.get((fu_name, fu_index), -1)
                if cycle <= busy_until:
                    raise SimulationError(
                        f"cycle {cycle}: unit {fu_name}[{fu_index}] busy "
                        f"until {busy_until} (non-pipelined)"
                    )
                fu_busy_until[(fu_name, fu_index)] = cycle + fu.occupancy - 1

                result = self._execute(op, regs, ready_at, memory, cycle)
                issued += 1
                if (
                    follow_branches
                    and op.op is Opcode.CBR
                    and taken_target is None
                ):
                    condition = self._read(op.srcs[0], regs, ready_at, cycle)
                    if condition != 0:
                        taken_target = op.target
                if op.dest is not None:
                    self._check_reg(op.dest)
                    write_cycle = cycle + fu.latency - 1
                    pending_writes.append((op.dest, result, write_cycle))
                    last_write_cycle = max(last_write_cycle, write_cycle)

            # All issues this cycle read the old register file; writes
            # land afterwards (end of their writeback cycle).
            for ref, value, write_cycle in pending_writes:
                regs[ref.cls][ref.index] = value
                ready_at[(ref.cls, ref.index)] = write_cycle

            if taken_target is not None:
                # Side exit taken: later words never execute.  Pinning
                # keeps all their stores/faulting ops unexecuted, so the
                # memory state is the source semantics at the branch.
                return SimulationResult(
                    cycles=cycle + 1,
                    memory=memory,
                    registers=regs,
                    issued_ops=issued,
                    stall_words=stalls,
                    branch_target=taken_target,
                )

        total_cycles = max(len(program.words), last_write_cycle + 1)
        return SimulationResult(
            cycles=total_cycles,
            memory=memory,
            registers=regs,
            issued_ops=issued,
            stall_words=stalls,
        )

    # ------------------------------------------------------------------
    def _check_reg(self, ref: RegRef) -> None:
        if ref.cls not in self.machine.registers:
            raise SimulationError(f"unknown register class {ref.cls!r}")
        if not 0 <= ref.index < self.machine.registers[ref.cls]:
            raise SimulationError(
                f"register {ref} out of range (class has "
                f"{self.machine.registers[ref.cls]})"
            )

    def _read(
        self,
        operand,
        regs: Dict[str, List[Optional[int]]],
        ready_at: Dict[Tuple[str, int], int],
        cycle: int,
    ) -> int:
        if isinstance(operand, int):
            return operand
        if isinstance(operand, RegRef):
            self._check_reg(operand)
            ready = ready_at.get((operand.cls, operand.index))
            if ready is not None and cycle <= ready:
                raise SimulationError(
                    f"cycle {cycle}: read of {operand} before its write "
                    f"completes at end of cycle {ready} (no interlocks)"
                )
            value = regs[operand.cls][operand.index]
            if value is None:
                raise SimulationError(f"cycle {cycle}: read of undefined {operand}")
            return value
        raise SimulationError(f"bad operand {operand!r}")  # pragma: no cover

    def _execute(
        self,
        op: MachineOp,
        regs,
        ready_at,
        memory: MemoryState,
        cycle: int,
    ) -> Optional[int]:
        code = op.op
        if code is Opcode.CONST:
            return self._read(op.srcs[0], regs, ready_at, cycle)
        if code is Opcode.MOV:
            return self._read(op.srcs[0], regs, ready_at, cycle)
        if code is Opcode.NEG:
            return -self._read(op.srcs[0], regs, ready_at, cycle)
        if code in (Opcode.LOAD, Opcode.RELOAD):
            cell = (op.addr.base, op.addr.offset)
            if cell not in memory:
                raise SimulationError(f"cycle {cycle}: load from unset {op.addr}")
            return memory[cell]
        if code in (Opcode.STORE, Opcode.SPILL):
            memory[(op.addr.base, op.addr.offset)] = self._read(
                op.srcs[0], regs, ready_at, cycle
            )
            return None
        if code is Opcode.CBR:
            # Side exits are not taken during on-trace simulation, but the
            # condition must be a legal read.
            self._read(op.srcs[0], regs, ready_at, cycle)
            return None
        if code in (Opcode.BR, Opcode.HALT, Opcode.NOP):
            return None
        # Binary ALU op.
        lhs = self._read(op.srcs[0], regs, ready_at, cycle)
        rhs = self._read(op.srcs[1], regs, ready_at, cycle)
        try:
            return _binary_eval(code, lhs, rhs)
        except Exception as exc:
            raise SimulationError(f"cycle {cycle}: {exc}") from exc
