"""Instruction and operand classes for the three-address IR.

Operands are either immediates (:class:`Imm`), virtual values
(:class:`Var`), or symbolic memory addresses (:class:`Addr`).  Memory
addresses are a symbolic base plus a constant byte offset, which gives the
dependence-DAG builder a simple and sound must/may-alias test: two
addresses *must* alias when base and offset agree, *may* alias when the
bases agree (or either base is unknown), and *cannot* alias when the bases
are distinct symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Tuple, Union

from repro.ir.opcodes import (
    BINARY_OPS,
    CONTROL_OPS,
    DEFINING_OPS,
    MEMORY_OPS,
    MEMORY_READ_OPS,
    MEMORY_WRITE_OPS,
    PSEUDO_OPS,
    UNARY_OPS,
    Opcode,
)


@dataclass(frozen=True)
class Imm:
    """An integer immediate operand."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var:
    """A reference to a virtual value by name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Addr:
    """A symbolic memory address: ``base`` plus constant ``offset``."""

    base: str
    offset: int = 0

    def __str__(self) -> str:
        if self.offset:
            return f"[{self.base}+{self.offset}]"
        return f"[{self.base}]"

    def must_alias(self, other: "Addr") -> bool:
        """True when the two addresses certainly refer to the same cell."""
        return self.base == other.base and self.offset == other.offset

    def may_alias(self, other: "Addr") -> bool:
        """True unless the two addresses certainly refer to distinct cells.

        Distinct symbolic bases are assumed disjoint; same-base addresses
        with different constant offsets are provably distinct cells.
        """
        return self.base == other.base and self.offset == other.offset


Operand = Union[Imm, Var]


# The classification sets keyed by opcode value string, whose hash is
# cached, as ``MachineModel._latency_by_op`` is: an ``Opcode`` member
# would hash through the Python-level ``Enum.__hash__`` on every test.
def _values(ops) -> frozenset:
    return frozenset(op._value_ for op in ops)


_MEMORY = _values(MEMORY_OPS)
_MEMORY_WRITE = _values(MEMORY_WRITE_OPS)
_MEMORY_READ = _values(MEMORY_READ_OPS)
_CONTROL = _values(CONTROL_OPS)
_PSEUDO = _values(PSEUDO_OPS)


_UID_COUNTER = [0]


def _next_uid() -> int:
    _UID_COUNTER[0] += 1
    return _UID_COUNTER[0]


def ensure_uid_floor(floor: int) -> None:
    """Advance the uid counter to at least ``floor``.

    Uids are process-local.  A worker that receives pickled instructions
    from another process (``repro.serve.pool``) must lift its counter
    past their uids before synthesizing new instructions, or fresh uids
    collide with the received ones and corrupt DAG node identity.
    """
    if _UID_COUNTER[0] < floor:
        _UID_COUNTER[0] = floor


@dataclass
class Instruction:
    """One three-address instruction.

    Attributes:
        op: The opcode.
        dest: Name of the value defined, or ``None`` for instructions that
            define nothing (stores, branches, ...).
        srcs: Value/immediate operands read by the instruction.  For
            stores this is the single value being stored; for conditional
            branches it is the condition value.
        addr: The memory address for ``LOAD``/``STORE``/``SPILL``/``RELOAD``.
        target: Branch target label for ``BR``/``CBR``.
        uid: A unique identifier, stable across renames, used as the node
            key in dependence DAGs.
        line_no: 1-based source line this instruction was parsed from,
            or ``None`` for synthesized instructions.  Excluded from
            ``__str__`` so cache keys and signatures are unaffected.
    """

    op: Opcode
    dest: Optional[str] = None
    srcs: Tuple[Operand, ...] = ()
    addr: Optional[Addr] = None
    target: Optional[str] = None
    uid: int = field(default_factory=_next_uid)
    line_no: Optional[int] = None

    # ------------------------------------------------------------------
    # Classification helpers.
    # ------------------------------------------------------------------
    @property
    def defines(self) -> Optional[str]:
        """Name of the value this instruction defines, if any."""
        return self.dest

    @property
    def is_definition(self) -> bool:
        return self.dest is not None

    @property
    def is_memory(self) -> bool:
        return self.op._value_ in _MEMORY

    @property
    def is_memory_write(self) -> bool:
        return self.op._value_ in _MEMORY_WRITE

    @property
    def is_memory_read(self) -> bool:
        return self.op._value_ in _MEMORY_READ

    @property
    def is_control(self) -> bool:
        return self.op._value_ in _CONTROL

    @property
    def is_pseudo(self) -> bool:
        return self.op._value_ in _PSEUDO

    @property
    def is_spill_code(self) -> bool:
        return self.op in (Opcode.SPILL, Opcode.RELOAD)

    def uses(self) -> Iterator[str]:
        """Yield the names of the values read by this instruction."""
        for src in self.srcs:
            if isinstance(src, Var):
                yield src.name

    # ------------------------------------------------------------------
    # Rewriting helpers (used by renaming and spill insertion).
    # ------------------------------------------------------------------
    def with_renamed_uses(self, mapping: dict) -> "Instruction":
        """Return a copy whose ``Var`` sources are renamed via ``mapping``.

        Names missing from ``mapping`` are kept as-is.  The copy keeps the
        same ``uid`` so DAG node identity is preserved.
        """
        new_srcs = tuple(
            Var(mapping.get(s.name, s.name)) if isinstance(s, Var) else s
            for s in self.srcs
        )
        return replace(self, srcs=new_srcs)

    def with_dest(self, new_dest: Optional[str]) -> "Instruction":
        """Return a copy with a different destination name (same uid)."""
        return replace(self, dest=new_dest)

    def fresh_copy(self) -> "Instruction":
        """Return a copy with a brand-new uid."""
        return replace(self, uid=_next_uid())

    # ------------------------------------------------------------------
    # Presentation.
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        op = self.op
        if op is Opcode.CONST:
            return f"{self.dest} = {self.srcs[0]}"
        if op is Opcode.MOV:
            return f"{self.dest} = {self.srcs[0]}"
        if op is Opcode.NEG:
            return f"{self.dest} = -{self.srcs[0]}"
        if op in BINARY_OPS:
            symbol = _OP_SYMBOLS.get(op)
            if symbol is not None:
                return f"{self.dest} = {self.srcs[0]} {symbol} {self.srcs[1]}"
            return f"{self.dest} = {op.value}({self.srcs[0]}, {self.srcs[1]})"
        if op in UNARY_OPS:
            return f"{self.dest} = {op.value}({self.srcs[0]})"
        if op is Opcode.LOAD:
            return f"{self.dest} = load {self.addr}"
        if op is Opcode.RELOAD:
            return f"{self.dest} = reload {self.addr}"
        if op is Opcode.STORE:
            return f"store {self.addr}, {self.srcs[0]}"
        if op is Opcode.SPILL:
            return f"spill {self.addr}, {self.srcs[0]}"
        if op is Opcode.BR:
            return f"br {self.target}"
        if op is Opcode.CBR:
            return f"if {self.srcs[0]} goto {self.target}"
        if op is Opcode.HALT:
            return "halt"
        if op is Opcode.NOP:
            return "nop"
        if op is Opcode.ENTRY:
            return "<entry>"
        if op is Opcode.EXIT:
            return "<exit>"
        raise ValueError(f"unprintable opcode {op!r}")  # pragma: no cover

    def __hash__(self) -> int:
        return hash(self.uid)


_OP_SYMBOLS = {
    Opcode.ADD: "+",
    Opcode.SUB: "-",
    Opcode.MUL: "*",
    Opcode.DIV: "/",
    Opcode.MOD: "%",
    Opcode.AND: "&",
    Opcode.OR: "|",
    Opcode.XOR: "^",
    Opcode.SHL: "<<",
    Opcode.SHR: ">>",
    Opcode.CMPEQ: "==",
    Opcode.CMPNE: "!=",
    Opcode.CMPLT: "<",
    Opcode.CMPLE: "<=",
    Opcode.CMPGT: ">",
    Opcode.CMPGE: ">=",
}


def validate_instruction(inst: Instruction) -> None:
    """Raise ``ValueError`` when ``inst`` is structurally malformed."""
    op = inst.op
    if op in BINARY_OPS:
        if inst.dest is None or len(inst.srcs) != 2:
            raise ValueError(f"binary op needs dest and two sources: {inst!r}")
    elif op in (Opcode.MOV, Opcode.NEG):
        if inst.dest is None or len(inst.srcs) != 1:
            raise ValueError(f"unary op needs dest and one source: {inst!r}")
    elif op is Opcode.CONST:
        if inst.dest is None or len(inst.srcs) != 1 or not isinstance(inst.srcs[0], Imm):
            raise ValueError(f"const needs dest and one immediate: {inst!r}")
    elif op in (Opcode.LOAD, Opcode.RELOAD):
        if inst.dest is None or inst.addr is None:
            raise ValueError(f"load needs dest and address: {inst!r}")
    elif op in (Opcode.STORE, Opcode.SPILL):
        if inst.dest is not None or inst.addr is None or len(inst.srcs) != 1:
            raise ValueError(f"store needs address and one source: {inst!r}")
    elif op is Opcode.BR:
        if inst.target is None:
            raise ValueError(f"br needs a target: {inst!r}")
    elif op is Opcode.CBR:
        if inst.target is None or len(inst.srcs) != 1:
            raise ValueError(f"cbr needs a condition and target: {inst!r}")
    elif op in (Opcode.HALT, Opcode.NOP, Opcode.ENTRY, Opcode.EXIT):
        pass
    else:  # pragma: no cover - exhaustive
        raise ValueError(f"unknown opcode {op!r}")

    if op in DEFINING_OPS and inst.dest is None:
        raise ValueError(f"defining op without dest: {inst!r}")
