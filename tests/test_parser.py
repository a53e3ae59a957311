"""Unit tests for the ursa-lang parser."""

import pytest

from repro.ir.instructions import Addr, Imm, Var
from repro.ir.opcodes import Opcode
from repro.ir.parser import ParseError, parse_program, parse_trace


class TestExpressions:
    def test_load(self):
        (inst,) = parse_trace("v = load [a]")
        assert inst.op is Opcode.LOAD
        assert inst.addr == Addr("a", 0)

    def test_load_with_offset(self):
        (inst,) = parse_trace("v = load [a+8]")
        assert inst.addr == Addr("a", 8)

    def test_load_with_negative_offset(self):
        (inst,) = parse_trace("v = load [a - 4]")
        assert inst.addr == Addr("a", -4)

    @pytest.mark.parametrize(
        "text,op",
        [
            ("x = a + b", Opcode.ADD),
            ("x = a - b", Opcode.SUB),
            ("x = a * b", Opcode.MUL),
            ("x = a / b", Opcode.DIV),
            ("x = a % b", Opcode.MOD),
            ("x = a & b", Opcode.AND),
            ("x = a | b", Opcode.OR),
            ("x = a ^ b", Opcode.XOR),
            ("x = a << b", Opcode.SHL),
            ("x = a >> b", Opcode.SHR),
            ("x = a == b", Opcode.CMPEQ),
            ("x = a != b", Opcode.CMPNE),
            ("x = a < b", Opcode.CMPLT),
            ("x = a <= b", Opcode.CMPLE),
            ("x = a > b", Opcode.CMPGT),
            ("x = a >= b", Opcode.CMPGE),
        ],
    )
    def test_binary_operators(self, text, op):
        (inst,) = parse_trace(text)
        assert inst.op is op
        assert inst.srcs == (Var("a"), Var("b"))

    def test_minmax(self):
        (inst,) = parse_trace("x = min(a, 3)")
        assert inst.op is Opcode.MIN
        assert inst.srcs == (Var("a"), Imm(3))

    def test_const(self):
        (inst,) = parse_trace("x = 42")
        assert inst.op is Opcode.CONST
        assert inst.srcs == (Imm(42),)

    def test_negative_const(self):
        (inst,) = parse_trace("x = -42")
        assert inst.op is Opcode.CONST
        assert inst.srcs == (Imm(-42),)

    def test_mov(self):
        (inst,) = parse_trace("x = y")
        assert inst.op is Opcode.MOV

    def test_neg(self):
        (inst,) = parse_trace("x = -y")
        assert inst.op is Opcode.NEG

    def test_immediate_operand(self):
        (inst,) = parse_trace("x = a * 2")
        assert inst.srcs == (Var("a"), Imm(2))


class TestStatements:
    def test_store(self):
        (inst,) = parse_trace("store [z], t")
        assert inst.op is Opcode.STORE
        assert inst.addr == Addr("z", 0)
        assert inst.srcs == (Var("t"),)

    def test_store_offset(self):
        (inst,) = parse_trace("store [z+4], 7")
        assert inst.addr == Addr("z", 4)
        assert inst.srcs == (Imm(7),)

    def test_halt_and_nop(self):
        insts = parse_trace("nop\nhalt")
        assert [i.op for i in insts] == [Opcode.NOP, Opcode.HALT]

    def test_cbr_side_exit(self):
        insts = parse_trace("c = 1\nif c goto Lexit")
        assert insts[1].op is Opcode.CBR
        assert insts[1].target == "Lexit"

    def test_comments_and_blanks(self):
        insts = parse_trace("# header\n\nx = 1  # trailing\n")
        assert len(insts) == 1

    def test_unparseable_raises(self):
        with pytest.raises(ParseError):
            parse_trace("x = = 2")

    def test_garbage_statement_raises(self):
        with pytest.raises(ParseError):
            parse_trace("frobnicate everything")

    def test_empty_program_raises(self):
        with pytest.raises(ParseError):
            parse_program("   \n# just comments\n")


class TestPrograms:
    def test_labels_create_blocks(self):
        prog = parse_program("L0:\nx = 1\nbr L1\nL1:\nhalt")
        assert [b.label for b in prog.blocks] == ["L0", "L1"]

    def test_implicit_entry_block(self):
        prog = parse_program("x = 1\nhalt")
        assert prog.entry.label == "L0"

    def test_parse_trace_rejects_multi_block(self):
        with pytest.raises(ParseError):
            parse_trace("L0:\nbr L1\nL1:\nhalt")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(Exception):
            parse_program("L0:\nx = 1\nL0:\nhalt")

    def test_cfg_edges(self):
        prog = parse_program(
            "L0:\nc = 1\nif c goto L2\nL1:\nhalt\nL2:\nhalt"
        )
        cfg = prog.cfg()
        assert set(cfg["L0"]) == {"L1", "L2"}

    def test_roundtrip_through_str(self):
        source = "v = load [a]\nw = v * 2\nstore [z], w"
        insts = parse_trace(source)
        again = parse_trace("\n".join(str(i) for i in insts))
        assert [str(i) for i in again] == [str(i) for i in insts]
