"""Unit and property tests for the CanReuse relations (paper §3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kill import select_kill
from repro.core.reuse import (
    can_reuse_fu,
    can_reuse_registers,
    collect_values,
    fu_elements,
)
from repro.graph.dag import DependenceDAG
from repro.machine.model import MachineModel
from repro.workloads.random_dags import random_layered_trace


class TestCollectValues:
    def test_fig2_values(self, fig2_dag):
        values = collect_values(fig2_dag)
        names = {v.name for v in values}
        assert names == set("ABCDEFGHIJK")

    def test_uses_recorded(self, fig2_dag, fig2_uid_of):
        values = {v.name: v for v in collect_values(fig2_dag)}
        assert set(values["A"].use_uids) == {
            fig2_uid_of["B"], fig2_uid_of["C"], fig2_uid_of["D"]
        }

    def test_live_in_value_defined_by_entry(self):
        from repro.ir.parser import parse_trace

        dag = DependenceDAG.from_trace(parse_trace("b = a + 1\nstore [z], b"))
        values = {v.name: v for v in collect_values(dag)}
        assert values["a"].def_uid == dag.entry

    def test_register_classes(self):
        from repro.ir.parser import parse_trace

        machine = MachineModel.dual_regclass()
        dag = DependenceDAG.from_trace(
            parse_trace("i0 = load [a]\nf0 = load [b]\nstore [z], i0\nstore [w], f0")
        )
        values = {v.name: v for v in collect_values(dag, machine)}
        assert values["i0"].reg_class == "int"
        assert values["f0"].reg_class == "flt"


class TestCollectValuesInTransaction:
    """A trial re-collects only the values its journal touched."""

    MACHINE = MachineModel.homogeneous(2, 3)

    def _trial_edits(self, dag):
        """One spill and one remat edit per used value, as callables."""
        from repro.core.transforms.remat import is_rematerializable
        from repro.core.transforms.spill import spill_slot_for

        for name in sorted(dag.value_uses):
            def_uid = dag.value_defs[name]
            uses = sorted(set(dag.value_uses[name]) - {def_uid})
            if not uses:
                continue
            yield name, lambda target, n=name, d=def_uid, u=uses: (
                target.insert_spill(n, u[1:] or u, spill_slot_for(target, d))
            )
            if is_rematerializable(dag, name):
                yield name, lambda target, n=name, u=uses: (
                    target.insert_remat(n, u[:1])
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_merged_values_equal_a_fresh_collection(self, seed):
        dag = DependenceDAG.from_trace(
            random_layered_trace(n_ops=16, width=4, seed=seed),
            live_out=["t3"],
        )
        base = collect_values(dag, self.MACHINE)
        tried = 0
        for name, edit in self._trial_edits(dag):
            txn = dag.begin_transaction()
            edit(dag)
            touched = txn.touched_values()
            assert name in touched
            merged = collect_values(dag, self.MACHINE)
            # A copy has no transaction and no cache: a fresh collection.
            assert merged == collect_values(dag.copy(), self.MACHINE)
            # Untouched values are the base list's own objects.
            reused = {id(v) for v in base}
            assert all(
                (id(v) in reused) == (v.name not in touched) for v in merged
            )
            # Another machine object is not the cached one: full path.
            assert collect_values(dag, MachineModel.homogeneous(2, 3)) == merged
            txn.rollback()
            assert collect_values(dag, self.MACHINE) == base
            tried += 1
        assert tried > 5

    def test_edges_only_transaction_touches_no_value(self, fig2_dag):
        base = collect_values(fig2_dag)
        order = fig2_dag.topological_order()
        txn = fig2_dag.begin_transaction()
        fig2_dag.add_sequence_edge(order[1], order[-2], reason="test")
        assert txn.touched_values() == set()
        assert collect_values(fig2_dag) == base
        txn.rollback()


class TestCanReuseFU:
    def test_is_dag_reachability(self, fig2_dag, fig2_uid_of, machine44):
        elements = fu_elements(fig2_dag, machine44, "any")
        order = can_reuse_fu(fig2_dag, elements)
        assert order.less(fig2_uid_of["A"], fig2_uid_of["K"])
        assert order.independent(fig2_uid_of["E"], fig2_uid_of["G"])

    def test_valid_partial_order(self, fig2_dag, machine44):
        elements = fu_elements(fig2_dag, machine44, "any")
        can_reuse_fu(fig2_dag, elements).validate()

    def test_classed_elements_partition(self, fig2_dag):
        machine = MachineModel.classed(alu=2, mul=1, mem=1, branch=1)
        all_elements = set()
        for fu in machine.fu_classes:
            elements = fu_elements(fig2_dag, machine, fu.name)
            assert not (all_elements & set(elements))
            all_elements |= set(elements)
        assert all_elements == set(fig2_dag.op_nodes())

    def test_reuse_through_other_class(self, fig2_dag):
        """A mul can reuse a unit freed via a path through ALU ops."""
        machine = MachineModel.classed(alu=2, mul=1, mem=1, branch=1)
        elements = fu_elements(fig2_dag, machine, "mul")
        order = can_reuse_fu(fig2_dag, elements)
        order.validate()
        assert len(order.elements) > 0


class TestCanReuseRegisters:
    def test_valid_partial_order(self, fig2_dag, machine44):
        values = collect_values(fig2_dag, machine44)
        kill = select_kill(fig2_dag, values)
        can_reuse_registers(fig2_dag, values, kill.kill).validate()

    def test_dead_value_relation(self):
        from repro.ir.parser import parse_trace

        dag = DependenceDAG.from_trace(
            parse_trace("a = 1\nb = 2\nc = b + 1\nstore [z], c")
        )
        values = collect_values(dag)
        kill = select_kill(dag, values)
        order = can_reuse_registers(dag, values, kill.kill)
        order.validate()
        # Dead `a` frees its register immediately; nothing is downstream
        # of its definition, so no reuse pairs originate at `a`.
        assert not order.above["a"]

    def test_live_out_never_reusable(self):
        from repro.ir.parser import parse_trace

        dag = DependenceDAG.from_trace(
            parse_trace("a = 1\nb = 2\nc = a + b"), live_out=["c"]
        )
        values = collect_values(dag)
        kill = select_kill(dag, values)
        order = can_reuse_registers(dag, values, kill.kill)
        assert not order.above["c"]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30), st.integers(4, 24))
def test_property_register_relation_is_strict_partial_order(seed, n_ops):
    """CanReuse_Reg is always a valid strict partial order."""
    trace = random_layered_trace(n_ops=n_ops, width=4, seed=seed)
    dag = DependenceDAG.from_trace(trace)
    values = collect_values(dag)
    kill = select_kill(dag, values)
    order = can_reuse_registers(dag, values, kill.kill)
    order.validate()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30), st.integers(4, 24))
def test_property_fu_relation_is_strict_partial_order(seed, n_ops):
    trace = random_layered_trace(n_ops=n_ops, width=4, seed=seed)
    dag = DependenceDAG.from_trace(trace)
    machine = MachineModel.homogeneous(4, 8)
    order = can_reuse_fu(dag, fu_elements(dag, machine, "any"))
    order.validate()
