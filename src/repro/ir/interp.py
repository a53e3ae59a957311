"""Reference interpreter for the three-address IR.

The interpreter defines the semantic ground truth that every scheduler
and the VLIW simulator are validated against: a compiled program is
correct iff its final memory state matches the interpreter's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.diagnostics import CompileError
from repro.ir.instructions import Addr, Imm, Instruction, Operand, Var
from repro.ir.opcodes import Opcode
from repro.ir.program import Program

#: Memory is addressed by (symbolic base, constant offset) cells.
MemoryState = Dict[Tuple[str, int], int]


class InterpreterError(CompileError):
    """Raised on runtime errors: undefined values, bad reads, div by zero."""


@dataclass
class ExecutionResult:
    """Outcome of interpreting a program or trace."""

    memory: MemoryState
    env: Dict[str, int]
    steps: int
    block_path: List[str] = field(default_factory=list)

    def stores_to(self, base: str) -> Dict[int, int]:
        """All cells written under ``base``, keyed by offset."""
        return {
            offset: value
            for (cell_base, offset), value in self.memory.items()
            if cell_base == base
        }


def _binary_eval(op: Opcode, lhs: int, rhs: int) -> int:
    if op is Opcode.ADD:
        return lhs + rhs
    if op is Opcode.SUB:
        return lhs - rhs
    if op is Opcode.MUL:
        return lhs * rhs
    if op is Opcode.DIV:
        if rhs == 0:
            raise InterpreterError("division by zero")
        # Truncating division, matching C semantics on the paper's targets.
        return int(lhs / rhs)
    if op is Opcode.MOD:
        if rhs == 0:
            raise InterpreterError("modulo by zero")
        return lhs - int(lhs / rhs) * rhs
    if op is Opcode.AND:
        return lhs & rhs
    if op is Opcode.OR:
        return lhs | rhs
    if op is Opcode.XOR:
        return lhs ^ rhs
    if op is Opcode.SHL:
        return lhs << (rhs & 31)
    if op is Opcode.SHR:
        return lhs >> (rhs & 31)
    if op is Opcode.MIN:
        return min(lhs, rhs)
    if op is Opcode.MAX:
        return max(lhs, rhs)
    if op is Opcode.CMPEQ:
        return int(lhs == rhs)
    if op is Opcode.CMPNE:
        return int(lhs != rhs)
    if op is Opcode.CMPLT:
        return int(lhs < rhs)
    if op is Opcode.CMPLE:
        return int(lhs <= rhs)
    if op is Opcode.CMPGT:
        return int(lhs > rhs)
    if op is Opcode.CMPGE:
        return int(lhs >= rhs)
    raise InterpreterError(f"not a binary opcode: {op!r}")


class Interpreter:
    """Executes IR programs against a symbolic-cell memory."""

    def __init__(
        self,
        memory: Optional[MemoryState] = None,
        max_steps: int = 1_000_000,
    ) -> None:
        self.initial_memory: MemoryState = dict(memory or {})
        self.max_steps = max_steps

    # ------------------------------------------------------------------
    def run_program(self, program: Program) -> ExecutionResult:
        """Interpret ``program`` from its entry block until HALT."""
        env: Dict[str, int] = {}
        memory = dict(self.initial_memory)
        path: List[str] = []
        steps = 0

        block = program.entry
        while True:
            path.append(block.label)
            next_label: Optional[str] = None
            fell_through = True
            for inst in block.instructions:
                steps += 1
                if steps > self.max_steps:
                    raise InterpreterError("step limit exceeded (infinite loop?)")
                control = self._execute(inst, env, memory)
                if control is _HALT:
                    return ExecutionResult(memory, env, steps, path)
                if control is not None:
                    next_label = control
                    fell_through = False
                    break
            if fell_through:
                next_label = program.fallthrough_label(block.label)
                if next_label is None:
                    # Implicit halt at end of program.
                    return ExecutionResult(memory, env, steps, path)
            block = program.block(next_label)

    def run_trace(
        self,
        instructions: List[Instruction],
        env: Optional[Dict[str, int]] = None,
    ) -> ExecutionResult:
        """Interpret a straight-line trace, taking no side exits.

        Conditional branches are evaluated (so their condition must be
        defined) but never taken: the trace is executed to the end, which
        matches the scheduler's "on-trace" semantics.  ``env`` supplies
        the runtime values of trace live-ins.
        """
        env = dict(env or {})
        memory = dict(self.initial_memory)
        steps = 0
        for inst in instructions:
            steps += 1
            if inst.op is Opcode.CBR:
                self._operand_value(inst.srcs[0], env)  # must be defined
                continue
            if inst.op in (Opcode.BR, Opcode.HALT):
                break
            self._execute(inst, env, memory)
        return ExecutionResult(memory, env, steps, [])

    # ------------------------------------------------------------------
    def _operand_value(self, operand: Operand, env: Dict[str, int]) -> int:
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, Var):
            try:
                return env[operand.name]
            except KeyError:
                raise InterpreterError(f"use of undefined value {operand.name!r}")
        raise InterpreterError(f"bad operand {operand!r}")  # pragma: no cover

    def _read_memory(self, memory: MemoryState, addr: Addr) -> int:
        cell = (addr.base, addr.offset)
        if cell not in memory:
            raise InterpreterError(f"read of uninitialised memory {addr}")
        return memory[cell]

    def _execute(
        self, inst: Instruction, env: Dict[str, int], memory: MemoryState
    ) -> Optional[object]:
        """Execute one instruction; return a branch label, _HALT, or None."""
        op = inst.op
        if op is Opcode.CONST:
            env[inst.dest] = inst.srcs[0].value  # type: ignore[union-attr]
        elif op is Opcode.MOV:
            env[inst.dest] = self._operand_value(inst.srcs[0], env)
        elif op is Opcode.NEG:
            env[inst.dest] = -self._operand_value(inst.srcs[0], env)
        elif op in (Opcode.LOAD, Opcode.RELOAD):
            env[inst.dest] = self._read_memory(memory, inst.addr)
        elif op in (Opcode.STORE, Opcode.SPILL):
            memory[(inst.addr.base, inst.addr.offset)] = self._operand_value(
                inst.srcs[0], env
            )
        elif op is Opcode.BR:
            return inst.target
        elif op is Opcode.CBR:
            if self._operand_value(inst.srcs[0], env) != 0:
                return inst.target
        elif op is Opcode.HALT:
            return _HALT
        elif op in (Opcode.NOP, Opcode.ENTRY, Opcode.EXIT):
            pass
        else:
            env[inst.dest] = _binary_eval(
                op,
                self._operand_value(inst.srcs[0], env),
                self._operand_value(inst.srcs[1], env),
            )
        return None


class _HaltSentinel:
    __slots__ = ()


_HALT = _HaltSentinel()


def run_trace(
    instructions: List[Instruction],
    memory: Optional[MemoryState] = None,
) -> ExecutionResult:
    """Convenience wrapper: interpret a trace with the given initial memory."""
    return Interpreter(memory).run_trace(instructions)


def run_program(
    program: Program,
    memory: Optional[MemoryState] = None,
) -> ExecutionResult:
    """Convenience wrapper: interpret a program with the given memory."""
    return Interpreter(memory).run_program(program)
