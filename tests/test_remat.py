"""Tests for rematerialization (recompute instead of spill)."""

import pytest

from repro.core import allocate, measure_registers
from repro.core.allocator import Policy
from repro.core.transforms.remat import is_rematerializable
from repro.graph.dag import DependenceDAG
from repro.ir.builder import TraceBuilder
from repro.ir.interp import run_trace
from repro.ir.parser import parse_trace
from repro.machine.model import MachineModel
from repro.verify import verify_dag


def pressure_kernel():
    """A constant defined early, used only at the very end, competing
    with a busy middle section — the model remat victim."""
    b = TraceBuilder()
    k = b.const(42, name="k")
    x = b.load("in", offset=0, name="x")
    y = b.load("in", offset=1, name="y")
    s1 = b.add(x, y, name="s1")
    s2 = b.mul(x, y, name="s2")
    s3 = b.sub(s1, s2, name="s3")
    s4 = b.mul(s3, s1, name="s4")
    b.store("mid", s4)
    b.store("out", b.add(s4, k))
    return b.build()


class TestIsRematerializable:
    def test_const_yes(self):
        dag = DependenceDAG.from_trace(parse_trace("k = 7\nstore [z], k"))
        assert is_rematerializable(dag, "k")

    def test_load_without_aliasing_store_yes(self):
        dag = DependenceDAG.from_trace(
            parse_trace("v = load [a]\nstore [z], v")
        )
        assert is_rematerializable(dag, "v")

    def test_load_with_aliasing_store_no(self):
        dag = DependenceDAG.from_trace(
            parse_trace("v = load [a]\nw = v + 1\nstore [a], w")
        )
        assert not is_rematerializable(dag, "v")

    def test_arithmetic_no(self):
        dag = DependenceDAG.from_trace(
            parse_trace("a = 1\nb = a + 1\nstore [z], b")
        )
        assert not is_rematerializable(dag, "b")

    def test_live_in_no(self):
        dag = DependenceDAG.from_trace(parse_trace("b = a + 1\nstore [z], b"))
        assert not is_rematerializable(dag, "a")


class TestInsertRemat:
    def test_structure_and_semantics(self):
        trace = pressure_kernel()
        dag = DependenceDAG.from_trace(trace)
        k_uses = [u for u in dag.value_uses["k"] if u != dag.exit]
        remat_uid, new_name = dag.insert_remat("k", k_uses)
        verify_dag(dag).raise_if_errors()
        # The final add now reads the clone.
        for use in k_uses:
            assert new_name in set(dag.instruction(use).uses())
        memory = {("in", 0): 3, ("in", 1): 5}
        result = run_trace(dag.linearize(), memory)
        expected = run_trace(trace, memory)
        assert result.stores_to("out") == expected.stores_to("out")

    def test_remat_reduces_measured_pressure_when_delayed(self):
        trace = pressure_kernel()
        machine = MachineModel.homogeneous(4, 64)
        dag = DependenceDAG.from_trace(trace)
        before = measure_registers(dag, machine).required

        k_uses = [u for u in dag.value_uses["k"] if u != dag.exit]
        remat_uid, _ = dag.insert_remat("k", k_uses)
        # Delay the clone until the busy section's value s4 exists.
        s4_def = dag.value_defs["s4"]
        dag.add_sequence_edge(s4_def, remat_uid)
        after = measure_registers(dag, machine).required
        assert after <= before

    def test_remat_of_load_keeps_memory_order(self):
        dag = DependenceDAG.from_trace(
            parse_trace("v = load [a]\nw = v + 1\nstore [z], w\nstore [y], v")
        )
        store_y = next(
            u for u in dag.op_nodes()
            if str(dag.instruction(u)).startswith("store [y]")
        )
        remat_uid, _ = dag.insert_remat("v", [store_y])
        verify_dag(dag).raise_if_errors()
        result = run_trace(dag.linearize(), {("a", 0): 9})
        assert result.stores_to("y") == {0: 9}


class TestAllocatorIntegration:
    def test_remat_chosen_under_spill_only_policy(self):
        trace = pressure_kernel()
        machine = MachineModel.homogeneous(2, 3)
        dag = DependenceDAG.from_trace(trace)
        result = allocate(dag, machine, policy=Policy.SPILL_ONLY)
        kinds = {record.kind for record in result.records}
        # With a rematerializable victim available, the driver prefers
        # the memory-free transformation over a spill pair on ties.
        assert "remat" in kinds or "spill" in kinds
        memory = {("in", 0): 3, ("in", 1): 5}
        expected = run_trace(trace, memory)
        actual = run_trace(result.dag.linearize(), memory)
        assert actual.stores_to("out") == expected.stores_to("out")

    def test_integrated_policy_still_correct_with_remat(self):
        from repro.pipeline import compile_trace

        machine = MachineModel.homogeneous(2, 3)
        result = compile_trace(
            pressure_kernel(), machine,
            memory={("in", 0): 3, ("in", 1): 5},
        )
        assert result.verified
