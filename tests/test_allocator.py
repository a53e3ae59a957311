"""Tests for the URSA driver across policies, kernels and machines."""

import pytest

from repro.core.allocator import (
    AllocationError,
    Policy,
    URSAAllocator,
    allocate,
)
from repro.core.measure import ResourceKind
from repro.graph.dag import DependenceDAG
from repro.ir.interp import run_trace
from repro.ir.parser import parse_trace
from repro.machine.model import MachineModel
from repro.pipeline import synthesize_memory
from repro.workloads.kernels import KERNELS, kernel


class TestConvergence:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernels_on_moderate_machine(self, name):
        machine = MachineModel.homogeneous(4, 8)
        dag = DependenceDAG.from_trace(kernel(name))
        result = allocate(dag, machine)
        # Moderate machines: allocation converges or leaves at most a
        # sliver for assignment (heuristic tie-breaks are uid-sensitive).
        assert result.converged or result.total_excess <= 2, result.describe()
        if not result.converged:
            from repro.scheduling.list_scheduler import ListScheduler

            schedule = ListScheduler(result.dag, machine).run()
            assert schedule.spill_count <= 2

    @pytest.mark.parametrize("n_fus,n_regs", [(2, 4), (1, 3), (8, 16)])
    def test_fig2_all_machines(self, fig2_trace, n_fus, n_regs):
        machine = MachineModel.homogeneous(n_fus, n_regs)
        dag = DependenceDAG.from_trace(fig2_trace)
        result = allocate(dag, machine)
        assert result.converged

    def test_no_excess_means_no_transformations(self, fig2_dag, big_machine):
        result = allocate(fig2_dag, big_machine)
        assert result.converged
        assert result.records == []
        assert result.iterations == 0

    def test_monotone_progress(self, fig2_dag):
        machine = MachineModel.homogeneous(2, 3)
        result = allocate(fig2_dag, machine)
        for record in result.records:
            assert record.excess_after <= record.excess_before

    def test_iteration_budget_respected(self, fig2_dag):
        machine = MachineModel.homogeneous(1, 2)
        result = URSAAllocator(machine, max_iterations=1).run(fig2_dag)
        assert result.iterations <= 1


class TestSemanticPreservation:
    @pytest.mark.parametrize("name", ["figure2", "fft-butterfly", "matmul", "stencil5"])
    def test_transformed_dag_equivalent(self, name):
        machine = MachineModel.homogeneous(2, 4)
        trace = kernel(name)
        dag = DependenceDAG.from_trace(trace)
        memory = synthesize_memory(dag, seed=5)
        expected = run_trace(dag.linearize(), memory)
        result = allocate(dag, machine)
        actual = run_trace(result.dag.linearize(), memory)
        expected_cells = {
            c: v for c, v in expected.memory.items() if not c[0].startswith("%")
        }
        actual_cells = {
            c: v for c, v in actual.memory.items() if not c[0].startswith("%")
        }
        assert actual_cells == expected_cells


class TestPolicies:
    def test_seq_only_never_spills(self, fig2_dag):
        machine = MachineModel.homogeneous(3, 4)
        result = allocate(fig2_dag, machine, policy=Policy.SEQ_ONLY)
        assert all("spill" not in r.kind for r in result.records)

    def test_spill_only_uses_no_reg_sequencing(self, fig2_dag):
        machine = MachineModel.homogeneous(8, 3)
        result = allocate(fig2_dag, machine, policy=Policy.SPILL_ONLY)
        assert all(not r.kind.startswith("reg-seq") for r in result.records)

    def test_phased_registers_first(self):
        machine = MachineModel.homogeneous(2, 4)
        dag = DependenceDAG.from_trace(kernel("fft-butterfly"))
        result = allocate(dag, machine, policy=Policy.PHASED)
        kinds = [r.kind for r in result.records]
        if any(k.startswith("fu-seq") for k in kinds):
            first_fu = next(
                i for i, k in enumerate(kinds) if k.startswith("fu-seq")
            )
            # No register transformation after FU work started.
            assert all(
                k.startswith("fu-seq") for k in kinds[first_fu:]
            ), kinds

    @pytest.mark.parametrize(
        "policy",
        [Policy.INTEGRATED, Policy.PHASED, Policy.SEQ_ONLY, Policy.SPILL_ONLY],
    )
    def test_all_policies_run(self, fig2_dag, policy):
        machine = MachineModel.homogeneous(3, 4)
        result = allocate(fig2_dag, machine, policy=policy)
        assert result.requirements  # measured something


class TestMultiClass:
    def test_classed_fu_machine(self):
        machine = MachineModel.classed(alu=1, mul=1, mem=1, branch=1, alu_regs=8)
        dag = DependenceDAG.from_trace(kernel("figure2"))
        result = allocate(dag, machine)
        assert result.converged

    def test_dual_register_classes(self):
        machine = MachineModel.dual_regclass(n_fus=4, int_regs=3, flt_regs=3)
        source = "\n".join(
            [f"i{k} = load [a+{k}]" for k in range(4)]
            + [f"f{k} = load [b+{k}]" for k in range(4)]
            + ["isum = i0 + i1", "isum2 = i2 + i3", "itot = isum + isum2"]
            + ["fsum = f0 + f1", "fsum2 = f2 + f3", "ftot = fsum + fsum2"]
            + ["store [z], itot", "store [w], ftot"]
        )
        dag = DependenceDAG.from_trace(parse_trace(source))
        result = allocate(dag, machine)
        assert result.converged
        reg_reqs = {
            r.cls: r.required
            for r in result.requirements
            if r.kind is ResourceKind.REGISTER
        }
        assert reg_reqs["int"] <= 3 and reg_reqs["flt"] <= 3


class TestInfeasibility:
    def test_too_many_live_outs_rejected(self):
        dag = DependenceDAG.from_trace(
            parse_trace("a = 1\nb = 2\nc = 3"), live_out=["a", "b", "c"]
        )
        with pytest.raises(AllocationError):
            allocate(dag, MachineModel.homogeneous(2, 2))


class TestPinnedDecisions:
    """Every transformation URSA commits on the kernels, pinned by digest.

    A change that only makes the reduction loop cheaper must commit the
    same transformations, in the same order, with the same excess and
    critical-path scores.  Descriptions name node uids; each uid is
    rewritten as its rank in the final DAG's ``source_order`` (trials
    draw uids too, so absolute values depend on how many ran)."""

    #: Taken before the proposal screens and the mask trim landed.
    DIGEST = "d9c23b1e3beacf4305377cc27978a726ed1cebf42bc88bc98300cef159a77769"

    @staticmethod
    def _canonical(dag: DependenceDAG, text: str) -> str:
        import re

        rank = {uid: i for i, uid in enumerate(dag.source_order)}
        named = {dag.entry: "entry", dag.exit: "exit"}

        def rename(match) -> str:
            uid = int(match.group(0))
            if uid in named:
                return named[uid]
            return f"n{rank[uid]}" if uid in rank else match.group(0)

        return re.sub(r"\b\d+\b", rename, text)

    def test_committed_transformations_are_pinned(self):
        import hashlib

        import repro.ir.instructions as instructions_mod
        from repro.machine import preset

        digest = hashlib.sha256()
        saved = instructions_mod._UID_COUNTER[0]
        try:
            for machine in (MachineModel.homogeneous(2, 6), preset("dsp")):
                for name in sorted(KERNELS):
                    # Far above any count a description prints.
                    instructions_mod._UID_COUNTER[0] = 10**6
                    result = allocate(
                        DependenceDAG.from_trace(kernel(name)), machine
                    )
                    for record in result.records:
                        digest.update(repr((
                            machine.name, name, record.kind,
                            self._canonical(result.dag, record.description),
                            record.excess_before, record.excess_after,
                            record.critical_path_before,
                            record.critical_path_after,
                        )).encode())
        finally:
            instructions_mod._UID_COUNTER[0] = max(
                saved, instructions_mod._UID_COUNTER[0]
            )
        assert digest.hexdigest() == self.DIGEST
