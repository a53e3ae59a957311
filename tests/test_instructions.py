"""Unit tests for IR operands and instructions."""

import pytest

from repro.ir.instructions import (
    Addr,
    Imm,
    Instruction,
    Var,
    validate_instruction,
)
from repro.ir.opcodes import (
    CONTROL_OPS,
    MEMORY_OPS,
    MEMORY_READ_OPS,
    MEMORY_WRITE_OPS,
    PSEUDO_OPS,
    Opcode,
)


class TestOperands:
    def test_imm_str(self):
        assert str(Imm(42)) == "42"

    def test_var_str(self):
        assert str(Var("x")) == "x"

    def test_addr_str_no_offset(self):
        assert str(Addr("a")) == "[a]"

    def test_addr_str_with_offset(self):
        assert str(Addr("a", 4)) == "[a+4]"

    def test_must_alias_same_cell(self):
        assert Addr("a", 4).must_alias(Addr("a", 4))

    def test_must_alias_different_offset(self):
        assert not Addr("a", 4).must_alias(Addr("a", 8))

    def test_may_alias_distinct_bases(self):
        assert not Addr("a", 0).may_alias(Addr("b", 0))

    def test_may_alias_same_base_different_offsets(self):
        # Constant offsets on the same symbolic base are distinct cells.
        assert not Addr("a", 0).may_alias(Addr("a", 4))

    def test_operands_hashable(self):
        assert len({Imm(1), Imm(1), Var("x"), Var("x")}) == 2


class TestInstruction:
    def test_uids_unique(self):
        a = Instruction(Opcode.NOP)
        b = Instruction(Opcode.NOP)
        assert a.uid != b.uid

    def test_uses_yields_vars_only(self):
        inst = Instruction(Opcode.ADD, dest="c", srcs=(Var("a"), Imm(2)))
        assert list(inst.uses()) == ["a"]

    def test_defines(self):
        inst = Instruction(Opcode.ADD, dest="c", srcs=(Var("a"), Var("b")))
        assert inst.defines == "c"
        assert inst.is_definition

    def test_store_defines_nothing(self):
        inst = Instruction(Opcode.STORE, srcs=(Var("a"),), addr=Addr("m"))
        assert not inst.is_definition
        assert inst.is_memory_write

    def test_load_classification(self):
        inst = Instruction(Opcode.LOAD, dest="v", addr=Addr("m"))
        assert inst.is_memory_read and not inst.is_memory_write

    def test_spill_is_spill_code(self):
        inst = Instruction(Opcode.SPILL, srcs=(Var("a"),), addr=Addr("%spill"))
        assert inst.is_spill_code and inst.is_memory_write

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.value)
    def test_classification_matches_opcode_sets(self, op):
        inst = Instruction(op)
        assert inst.is_memory == (op in MEMORY_OPS)
        assert inst.is_memory_write == (op in MEMORY_WRITE_OPS)
        assert inst.is_memory_read == (op in MEMORY_READ_OPS)
        assert inst.is_control == (op in CONTROL_OPS)
        assert inst.is_pseudo == (op in PSEUDO_OPS)

    def test_with_renamed_uses_keeps_uid(self):
        inst = Instruction(Opcode.ADD, dest="c", srcs=(Var("a"), Var("b")))
        renamed = inst.with_renamed_uses({"a": "a.1"})
        assert renamed.uid == inst.uid
        assert list(renamed.uses()) == ["a.1", "b"]

    def test_with_renamed_uses_does_not_mutate(self):
        inst = Instruction(Opcode.ADD, dest="c", srcs=(Var("a"), Var("b")))
        inst.with_renamed_uses({"a": "zzz"})
        assert list(inst.uses()) == ["a", "b"]

    def test_fresh_copy_changes_uid(self):
        inst = Instruction(Opcode.NOP)
        assert inst.fresh_copy().uid != inst.uid

    def test_str_binary(self):
        inst = Instruction(Opcode.MUL, dest="w", srcs=(Var("v"), Imm(2)))
        assert str(inst) == "w = v * 2"

    def test_str_store(self):
        inst = Instruction(Opcode.STORE, srcs=(Var("t"),), addr=Addr("z"))
        assert str(inst) == "store [z], t"

    def test_str_cbr(self):
        inst = Instruction(Opcode.CBR, srcs=(Var("c"),), target="L1")
        assert str(inst) == "if c goto L1"


class TestValidation:
    def test_binary_needs_two_sources(self):
        with pytest.raises(ValueError):
            validate_instruction(
                Instruction(Opcode.ADD, dest="c", srcs=(Var("a"),))
            )

    def test_binary_needs_dest(self):
        with pytest.raises(ValueError):
            validate_instruction(
                Instruction(Opcode.ADD, srcs=(Var("a"), Var("b")))
            )

    def test_const_needs_immediate(self):
        with pytest.raises(ValueError):
            validate_instruction(
                Instruction(Opcode.CONST, dest="c", srcs=(Var("a"),))
            )

    def test_load_needs_addr(self):
        with pytest.raises(ValueError):
            validate_instruction(Instruction(Opcode.LOAD, dest="v"))

    def test_store_rejects_dest(self):
        with pytest.raises(ValueError):
            validate_instruction(
                Instruction(
                    Opcode.STORE, dest="x", srcs=(Var("a"),), addr=Addr("m")
                )
            )

    def test_br_needs_target(self):
        with pytest.raises(ValueError):
            validate_instruction(Instruction(Opcode.BR))

    def test_valid_instructions_pass(self):
        validate_instruction(Instruction(Opcode.HALT))
        validate_instruction(Instruction(Opcode.NOP))
        validate_instruction(
            Instruction(Opcode.CBR, srcs=(Var("c"),), target="L")
        )
