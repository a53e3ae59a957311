"""Parser for ``ursa-lang``, the tiny imperative source language.

The language is a thin textual skin over the three-address IR, rich
enough to write the paper's kernels and multi-block traces::

    L0:
      v = load [a]
      w = v * 2
      x = v * 3
      t = w + x
      store [z], t
      c = t < 100
      if c goto L1
      halt
    L1:
      store [z+4], w
      halt

Grammar (one statement per line, ``#`` starts a comment):

* ``name = load [base]`` or ``name = load [base+imm]``
* ``name = src op src`` with ``op`` in ``+ - * / % & | ^ << >> == != < <= > >=``
* ``name = min(src, src)`` / ``name = max(src, src)``
* ``name = -src`` / ``name = src`` / ``name = imm``
* ``store [base(+imm)?], src``
* ``br LABEL`` / ``if src goto LABEL`` / ``halt`` / ``nop``
* ``LABEL:`` starts a new basic block.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.diagnostics import CompileError
from repro.ir.block import BasicBlock
from repro.ir.instructions import Addr, Imm, Instruction, Operand, Var
from repro.ir.opcodes import Opcode
from repro.ir.program import Program


class ParseError(CompileError):
    """Raised when source text is not valid ursa-lang."""

    code = "parse_error"

    def __init__(self, message: str, line_no: int, line: str) -> None:
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no
        self.line = line


_BINOPS: List[Tuple[str, Opcode]] = [
    # Longest symbols first so '<=' wins over '<'.
    ("<<", Opcode.SHL),
    (">>", Opcode.SHR),
    ("==", Opcode.CMPEQ),
    ("!=", Opcode.CMPNE),
    ("<=", Opcode.CMPLE),
    (">=", Opcode.CMPGE),
    ("<", Opcode.CMPLT),
    (">", Opcode.CMPGT),
    ("+", Opcode.ADD),
    ("-", Opcode.SUB),
    ("*", Opcode.MUL),
    ("/", Opcode.DIV),
    ("%", Opcode.MOD),
    ("&", Opcode.AND),
    ("|", Opcode.OR),
    ("^", Opcode.XOR),
]

_IDENT = r"[A-Za-z_][A-Za-z0-9_.]*"
_INT = r"-?\d+"

_LABEL_RE = re.compile(rf"^({_IDENT})\s*:\s*$")
_ADDR_RE = re.compile(rf"^\[\s*({_IDENT})\s*(?:([+-])\s*(\d+)\s*)?\]$")
_ASSIGN_RE = re.compile(rf"^({_IDENT})\s*=\s*(.+)$")
_LOAD_RE = re.compile(r"^load\s+(\[.*\])$")
_MINMAX_RE = re.compile(rf"^(min|max)\s*\(\s*({_IDENT}|{_INT})\s*,\s*({_IDENT}|{_INT})\s*\)$")
_STORE_RE = re.compile(rf"^store\s+(\[[^\]]*\])\s*,\s*({_IDENT}|{_INT})$")
_BR_RE = re.compile(rf"^br\s+({_IDENT})$")
_CBR_RE = re.compile(rf"^if\s+({_IDENT}|{_INT})\s+goto\s+({_IDENT})$")


def _parse_operand(text: str) -> Operand:
    text = text.strip()
    if re.fullmatch(_INT, text):
        return Imm(int(text))
    if re.fullmatch(_IDENT, text):
        return Var(text)
    raise ValueError(f"bad operand {text!r}")


def _parse_addr(text: str) -> Addr:
    match = _ADDR_RE.match(text.strip())
    if match is None:
        raise ValueError(f"bad address {text!r}")
    base, sign, offset = match.groups()
    value = int(offset) if offset else 0
    if sign == "-":
        value = -value
    return Addr(base, value)


def _split_binary(expr: str) -> Optional[Tuple[str, Opcode, str]]:
    """Split ``a op b`` on the first top-level binary operator.

    Scans left to right; unary minus on the first operand is handled by
    the caller, so a leading ``-`` is never treated as a binary operator.
    """
    for symbol, opcode in _BINOPS:
        # Search for the symbol after the first character so leading '-'
        # is not mistaken for subtraction.
        idx = expr.find(symbol, 1)
        while idx != -1:
            lhs, rhs = expr[:idx].strip(), expr[idx + len(symbol):].strip()
            if lhs and rhs:
                # Make sure we didn't split '<=' at '<' etc.: the symbol
                # list is longest-first, so a longer operator would have
                # matched already; but guard against rhs starting with a
                # symbol continuation character.
                if symbol in ("<", ">") and rhs.startswith(("=", symbol)):
                    idx = expr.find(symbol, idx + 1)
                    continue
                return lhs, opcode, rhs
            idx = expr.find(symbol, idx + 1)
    return None


def _parse_expression(dest: str, expr: str, line_no: int, line: str) -> Instruction:
    expr = expr.strip()

    load_match = _LOAD_RE.match(expr)
    if load_match is not None:
        return Instruction(Opcode.LOAD, dest=dest, addr=_parse_addr(load_match.group(1)))

    minmax_match = _MINMAX_RE.match(expr)
    if minmax_match is not None:
        kind, lhs, rhs = minmax_match.groups()
        opcode = Opcode.MIN if kind == "min" else Opcode.MAX
        return Instruction(
            opcode, dest=dest, srcs=(_parse_operand(lhs), _parse_operand(rhs))
        )

    split = _split_binary(expr)
    if split is not None:
        lhs, opcode, rhs = split
        try:
            return Instruction(
                opcode, dest=dest, srcs=(_parse_operand(lhs), _parse_operand(rhs))
            )
        except ValueError as exc:
            raise ParseError(str(exc), line_no, line) from exc

    if expr.startswith("-") and not re.fullmatch(_INT, expr):
        try:
            return Instruction(
                Opcode.NEG, dest=dest, srcs=(_parse_operand(expr[1:]),)
            )
        except ValueError as exc:
            raise ParseError(str(exc), line_no, line) from exc

    try:
        operand = _parse_operand(expr)
    except ValueError as exc:
        raise ParseError(f"cannot parse expression {expr!r}", line_no, line) from exc
    if isinstance(operand, Imm):
        return Instruction(Opcode.CONST, dest=dest, srcs=(operand,))
    return Instruction(Opcode.MOV, dest=dest, srcs=(operand,))


def parse_program(source: str) -> Program:
    """Parse ursa-lang ``source`` into a :class:`Program`."""
    program = Program()
    current: Optional[BasicBlock] = None

    def ensure_block(line_no: int) -> BasicBlock:
        nonlocal current
        if current is None:
            current = program.add_block(BasicBlock("L0", line_no=line_no))
        return current

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        label_match = _LABEL_RE.match(line)
        if label_match is not None:
            current = program.add_block(
                BasicBlock(label_match.group(1), line_no=line_no)
            )
            continue

        block = ensure_block(line_no)
        try:
            inst = _parse_statement(line, line_no, raw)
            inst.line_no = line_no
            block.append(inst)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), line_no, raw) from exc

    if current is None:
        raise ParseError("empty program", 0, source[:40])
    program.validate()
    return program


def _parse_statement(line: str, line_no: int, raw: str) -> Instruction:
    if line == "halt":
        return Instruction(Opcode.HALT)
    if line == "nop":
        return Instruction(Opcode.NOP)

    store_match = _STORE_RE.match(line)
    if store_match is not None:
        addr_text, value_text = store_match.groups()
        return Instruction(
            Opcode.STORE, srcs=(_parse_operand(value_text),), addr=_parse_addr(addr_text)
        )

    br_match = _BR_RE.match(line)
    if br_match is not None:
        return Instruction(Opcode.BR, target=br_match.group(1))

    cbr_match = _CBR_RE.match(line)
    if cbr_match is not None:
        cond, target = cbr_match.groups()
        return Instruction(Opcode.CBR, srcs=(_parse_operand(cond),), target=target)

    assign_match = _ASSIGN_RE.match(line)
    if assign_match is not None:
        dest, expr = assign_match.groups()
        return _parse_expression(dest, expr, line_no, raw)

    raise ParseError("unrecognised statement", line_no, raw)


def parse_trace(source: str) -> List[Instruction]:
    """Parse straight-line source (single block) into an instruction list."""
    program = parse_program(source)
    if len(program.blocks) != 1:
        raise ParseError(
            f"expected straight-line code, found {len(program.blocks)} blocks",
            0,
            source[:40],
        )
    return list(program.blocks[0].instructions)
