"""Tests for the shared list scheduler / assignment engine."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.codegen import lower_schedule
from repro.graph.dag import DependenceDAG
from repro.ir.interp import run_trace
from repro.ir.opcodes import Opcode
from repro.ir.parser import parse_trace
from repro.machine.model import FUClass, MachineModel
from repro.machine.simulator import VLIWSimulator
from repro.pipeline import synthesize_memory
from repro.scheduling.list_scheduler import ListScheduler, ScheduleError
from repro.scheduling.postpass import add_register_reuse_edges
from repro.scheduling.regalloc import color_registers
from repro.workloads.random_dags import random_layered_trace


def schedule_and_verify(trace, machine, seed=0, **kwargs):
    """Schedule, lower, simulate, and compare against the interpreter."""
    dag = DependenceDAG.from_trace(trace)
    schedule = ListScheduler(dag, machine, **kwargs).run()
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
    return schedule, program, actual


class TestResourceLimits:
    @pytest.mark.parametrize("n_fus", [1, 2, 3, 8])
    def test_fu_width_respected(self, fig2_trace, n_fus):
        machine = MachineModel.homogeneous(n_fus, 16)
        schedule, program, _ = schedule_and_verify(fig2_trace, machine)
        for word in program.words:
            assert len(word) <= n_fus

    @pytest.mark.parametrize("n_regs", [2, 3, 4, 8])
    def test_register_cap_respected(self, fig2_trace, n_regs):
        machine = MachineModel.homogeneous(4, n_regs)
        schedule, program, _ = schedule_and_verify(fig2_trace, machine)
        peak = program.max_registers_used().get("gpr", 0)
        assert peak <= n_regs

    def test_spilling_disabled_raises(self, fig2_trace):
        machine = MachineModel.homogeneous(4, 3)
        dag = DependenceDAG.from_trace(fig2_trace)
        with pytest.raises(ScheduleError):
            ListScheduler(dag, machine, allow_spill=False).run()

    def test_no_registers_mode(self, fig2_trace):
        machine = MachineModel.homogeneous(4, 2)
        dag = DependenceDAG.from_trace(fig2_trace)
        schedule = ListScheduler(dag, machine, respect_registers=False).run()
        assert schedule.spill_count == 0
        # length bounded by the serial schedule.
        assert schedule.length <= len(dag.op_nodes())

    def test_classed_machine_slots(self, fig2_trace):
        machine = MachineModel.classed(alu=1, mul=1, mem=1, branch=1, alu_regs=8)
        schedule, program, _ = schedule_and_verify(fig2_trace, machine)
        for word in program.words:
            for (cls, index), op in word.slots.items():
                assert machine.fu_class(cls).executes(op.op)


class TestLatency:
    def test_latency_separates_dependents(self, fig2_trace):
        machine = MachineModel(
            "lat2", (FUClass("any", 4, latency=2),), {"gpr": 16}
        )
        schedule, program, result = schedule_and_verify(fig2_trace, machine)
        # Simulator enforces writeback timing; reaching here means the
        # schedule inserted the necessary gaps.  Five dependent value
        # levels at latency 2 plus the final store: >= 11 cycles.
        assert result.cycles >= 11

    def test_mixed_latencies(self, fig2_trace):
        machine = MachineModel.classed(
            alu=2, mul=2, mem=1, branch=1, alu_regs=12,
            latencies={"mem": 3, "mul": 2},
        )
        schedule_and_verify(fig2_trace, machine)


class TestSpillPath:
    def test_spill_and_reload_round_trip(self, fig2_trace):
        machine = MachineModel.homogeneous(2, 3)
        schedule, program, _ = schedule_and_verify(fig2_trace, machine)
        assert schedule.spill_count >= 1
        spills = [
            op for word in program.words for op in word.ops
            if op.op is Opcode.SPILL
        ]
        reloads = [
            op for word in program.words for op in word.ops
            if op.op is Opcode.RELOAD
        ]
        assert spills and reloads
        # Reloads read cells that were spilled.
        spilled_cells = {(o.addr.base, o.addr.offset) for o in spills}
        for reload in reloads:
            assert (reload.addr.base, reload.addr.offset) in spilled_cells

    def test_two_register_extreme(self, fig2_trace):
        machine = MachineModel.homogeneous(1, 2)
        schedule, program, _ = schedule_and_verify(fig2_trace, machine)
        assert program.max_registers_used()["gpr"] <= 2


class TestLiveInOut:
    def test_live_in_binding(self):
        trace = parse_trace("b = a + 1\nstore [z], b")
        machine = MachineModel.homogeneous(2, 4)
        dag = DependenceDAG.from_trace(trace)
        schedule = ListScheduler(dag, machine).run()
        assert "a" in schedule.live_in_regs

    def test_live_out_kept_in_register(self):
        trace = parse_trace("a = 1\nb = a + 1")
        machine = MachineModel.homogeneous(2, 4)
        dag = DependenceDAG.from_trace(trace, live_out=["b"])
        schedule = ListScheduler(dag, machine).run()
        assert "b" in schedule.live_out_regs

    def test_too_many_live_ins_raises(self):
        trace = parse_trace(
            "s = a + b\nt = c + d\nu = s + t\nstore [z], u"
        )
        machine = MachineModel.homogeneous(2, 2)
        dag = DependenceDAG.from_trace(trace)
        with pytest.raises(ScheduleError):
            ListScheduler(dag, machine).run()


class TestGoodmanHsuMode:
    def test_pressure_threshold_changes_behaviour(self, fig2_trace):
        machine = MachineModel.homogeneous(4, 4)
        dag = DependenceDAG.from_trace(fig2_trace)
        base = ListScheduler(dag.copy(), machine).run()
        csr = ListScheduler(
            dag.copy(), machine, pressure_threshold=3
        ).run()
        # Both must be legal; CSR mode tends to spill no more.
        assert csr.spill_count <= max(base.spill_count, 1)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**30),
    st.integers(6, 28),
    st.integers(1, 4),
    st.integers(3, 8),
)
def test_property_schedules_are_semantically_correct(seed, n_ops, n_fus, n_regs):
    """Any random trace compiles and simulates to the interpreter's
    memory on any machine in the sweep."""
    trace = random_layered_trace(n_ops=n_ops, width=4, seed=seed, n_inputs=3)
    machine = MachineModel.homogeneous(n_fus, n_regs)
    schedule_and_verify(trace, machine, seed=seed)


def schedule_digest(schedule):
    """A short stable digest of everything a schedule decides."""
    ops = tuple(
        (op.cycle, op.fu_class, op.fu_index, str(op.inst))
        for op in schedule.ops
    )
    regs = tuple(
        sorted((name, ref.cls, ref.index)
               for name, ref in schedule.reg_assignment.items())
    )
    payload = repr((ops, regs, schedule.spill_count, schedule.length))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class TestSchedulePins:
    """Exact schedules pinned across every scheduler mode.

    Selection orders ops by total keys, so how readiness is tracked
    (rescanning every op each cycle, or waking an op when its last
    predecessor issues) must not move any digest.
    """

    STARVED = MachineModel.homogeneous(2, 4)
    LAT2 = MachineModel(
        "lat2", (FUClass("any", 3, latency=2),), {"gpr": 20}
    )

    @staticmethod
    def _dag(seed, n_ops=40, width=6):
        trace = random_layered_trace(n_ops=n_ops, width=width, seed=seed)
        return DependenceDAG.from_trace(trace)

    @pytest.mark.parametrize("seed,digest", [
        (1, "f87a7ee70d12b3ad"),
        (2, "7d75761324cf0b9e"),
        (3, "fab579c1e969dadd"),
    ])
    def test_starved_binding_with_spills(self, seed, digest):
        schedule = ListScheduler(self._dag(seed), self.STARVED).run()
        assert schedule.spill_count >= 1
        assert any(op.inst.op is Opcode.RELOAD for op in schedule.ops)
        assert schedule_digest(schedule) == digest

    @pytest.mark.parametrize("seed,digest", [
        (1, "d1b41e8c1d440895"),
        (2, "ac624820171427a1"),
        (3, "78a97b87c2704e3d"),
    ])
    def test_unbound_registers(self, seed, digest):
        schedule = ListScheduler(
            self._dag(seed), self.LAT2, respect_registers=False
        ).run()
        assert schedule_digest(schedule) == digest

    @pytest.mark.parametrize("seed,digest", [
        (1, "d5299088392b6d55"),
        (2, "7885ab3ad29be0db"),
        (3, "dafac16a27ebd7bb"),
    ])
    def test_csr_mode(self, seed, digest):
        machine = MachineModel.homogeneous(3, 6)
        schedule = ListScheduler(
            self._dag(seed), machine, pressure_threshold=3
        ).run()
        assert schedule_digest(schedule) == digest
        # The threshold is low enough that CSR mode changes decisions.
        default = ListScheduler(self._dag(seed), machine).run()
        assert schedule_digest(default) != digest

    @pytest.mark.parametrize("seed,digest", [
        (1, "6b54ee31f3949c98"),
        (2, "c40acd6bf1046e09"),
        (3, "f3630230c5eb77d8"),
    ])
    def test_postpass_reg_reuse_edges(self, seed, digest):
        trace = random_layered_trace(n_ops=40, width=6, seed=seed)
        allocation = color_registers(trace, self.LAT2)
        assert allocation.spill_stores == 0
        dag = DependenceDAG.from_trace(allocation.instructions, rename=False)
        assert add_register_reuse_edges(
            dag, allocation.instructions, allocation.binding
        ) > 0
        schedule = ListScheduler(dag, self.LAT2, respect_registers=False).run()
        assert schedule_digest(schedule) == digest

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_spilling_disabled_still_raises(self, seed):
        with pytest.raises(ScheduleError):
            ListScheduler(
                self._dag(seed), self.STARVED, allow_spill=False
            ).run()


class TestReadinessWork:
    def test_serial_chain_checks_each_op_a_bounded_number_of_times(self):
        """Readiness work is linear: an op is checked only once all its
        predecessors have issued (a rescan of every unissued op each
        cycle would make about ops**2 / 2 checks on a chain)."""
        lines = ["v0 = load [A]"]
        lines += [f"v{i} = v{i - 1} + 1" for i in range(1, 255)]
        lines.append("store [B], v254")
        dag = DependenceDAG.from_trace(parse_trace("\n".join(lines)))
        ops = len(dag.op_nodes())
        assert ops == 256
        with obs.capture() as trace:
            schedule = ListScheduler(
                dag, MachineModel.homogeneous(128, 512)
            ).run()
        assert schedule.length == ops
        assert trace.counters["sched.cycles"] == ops
        assert trace.counters["sched.ready_total"] == ops
        assert ops <= trace.counters["sched.ready_checks"] <= 2 * ops
