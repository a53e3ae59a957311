"""Tests for the prepass / postpass / Goodman-Hsu baseline compilers."""

import pytest

from repro.core.codegen import lower_schedule
from repro.graph.dag import DependenceDAG, EdgeKind
from repro.ir.interp import run_trace
from repro.machine.model import MachineModel
from repro.machine.simulator import VLIWSimulator
from repro.machine.vliw import RegRef
from repro.pipeline import synthesize_memory
from repro.scheduling.goodman_hsu import compile_goodman_hsu
from repro.scheduling.packer import pack_in_order
from repro.scheduling.postpass import add_register_reuse_edges, compile_postpass
from repro.scheduling.prepass import compile_prepass
from repro.scheduling.regalloc import LinearScanAllocator
from repro.workloads.kernels import kernel
from repro.workloads.random_dags import random_layered_trace


def verify(trace, machine, compiler, seed=0):
    dag = DependenceDAG.from_trace(trace)
    schedule = compiler(dag, machine)
    program = lower_schedule(schedule)
    memory = synthesize_memory(dag, seed)
    expected = run_trace(dag.linearize(), memory)
    actual = VLIWSimulator(machine, memory).run(program)
    expected_cells = {
        c: v for c, v in expected.memory.items() if not c[0].startswith("%")
    }
    actual_cells = {
        c: v for c, v in actual.memory.items() if not c[0].startswith("%")
    }
    assert actual_cells == expected_cells
    return schedule, program


MACHINES = [
    MachineModel.homogeneous(2, 4),
    MachineModel.homogeneous(4, 6),
    MachineModel.homogeneous(8, 16),
]


class TestPrepass:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_correct_on_fig2(self, fig2_trace, machine):
        verify(fig2_trace, machine, compile_prepass)

    @pytest.mark.parametrize("name", ["dot-product", "fft-butterfly", "matmul"])
    def test_correct_on_kernels(self, name):
        machine = MachineModel.homogeneous(4, 6)
        verify(kernel(name), machine, compile_prepass)

    def test_spills_appear_under_pressure(self):
        machine = MachineModel.homogeneous(8, 4)
        dag = DependenceDAG.from_trace(kernel("fft-butterfly"))
        schedule = compile_prepass(dag, machine)
        assert schedule.spill_count > 0

    def test_registers_within_bounds(self, fig2_trace):
        machine = MachineModel.homogeneous(4, 4)
        schedule, program = verify(fig2_trace, machine, compile_prepass)
        assert program.max_registers_used()["gpr"] <= 4


class TestPostpass:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_correct_on_fig2(self, fig2_trace, machine):
        verify(fig2_trace, machine, compile_postpass)

    @pytest.mark.parametrize("name", ["dot-product", "stencil5", "hydro"])
    def test_correct_on_kernels(self, name):
        machine = MachineModel.homogeneous(4, 6)
        verify(kernel(name), machine, compile_postpass)

    def test_reuse_edges_serialize(self, fig2_trace):
        """The phase-ordering cost: with few registers, postpass code
        runs longer than with many registers."""
        dag_few = DependenceDAG.from_trace(fig2_trace)
        few = compile_postpass(dag_few, MachineModel.homogeneous(4, 4))
        dag_many = DependenceDAG.from_trace(fig2_trace)
        many = compile_postpass(dag_many, MachineModel.homogeneous(4, 16))
        assert few.length >= many.length

    def test_add_register_reuse_edges(self, fig2_trace):
        from repro.scheduling.regalloc import color_registers

        machine = MachineModel.homogeneous(4, 5)
        outcome = color_registers(fig2_trace, machine)
        dag = DependenceDAG.from_trace(outcome.instructions, rename=False)
        added = add_register_reuse_edges(
            dag, outcome.instructions, outcome.binding
        )
        assert added > 0
        dag.topological_order()  # still acyclic
        reuse_edges = [
            (u, v)
            for u, v, d in dag.edges()
            if d.get("reason") == "reg-reuse"
        ]
        assert len(reuse_edges) == added


class TestGoodmanHsu:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_correct_on_fig2(self, fig2_trace, machine):
        verify(fig2_trace, machine, compile_goodman_hsu)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_traces(self, seed):
        trace = random_layered_trace(n_ops=26, width=5, seed=seed)
        machine = MachineModel.homogeneous(4, 5)
        verify(trace, machine, compile_goodman_hsu, seed=seed)

    def test_threshold_parameter(self, fig2_trace):
        machine = MachineModel.homogeneous(4, 4)
        dag = DependenceDAG.from_trace(fig2_trace)
        schedule = compile_goodman_hsu(dag, machine, threshold=3)
        assert schedule.length > 0


class TestPacker:
    def test_in_order_packing_respects_order(self, fig2_trace):
        machine = MachineModel.homogeneous(4, 8)
        allocation = LinearScanAllocator(machine).run(fig2_trace)
        schedule = pack_in_order(allocation.instructions, machine, allocation)
        cycles = [op.cycle for op in schedule.ops]
        assert cycles == sorted(cycles)

    def test_packing_is_correct(self, fig2_trace):
        machine = MachineModel.homogeneous(3, 8)
        allocation = LinearScanAllocator(machine).run(fig2_trace)
        schedule = pack_in_order(allocation.instructions, machine, allocation)
        program = lower_schedule(schedule)
        result = VLIWSimulator(machine, {("v", 0): 6}).run(program)
        assert result.stores_to("z") == {0: 25}

    def test_memory_conflicts_separated(self):
        from repro.ir.parser import parse_trace

        trace = parse_trace("a = 5\nstore [m], a\nv = load [m]\nstore [z], v")
        machine = MachineModel.homogeneous(4, 4)
        allocation = LinearScanAllocator(machine).run(trace)
        schedule = pack_in_order(allocation.instructions, machine, allocation)
        mem_ops = [
            op for op in schedule.ops if op.inst.is_memory and op.inst.addr.base == "m"
        ]
        assert mem_ops[0].cycle < mem_ops[1].cycle
