"""§3.1: hammock-prioritized matching gives per-hammock-minimal
decompositions, plus Definition 4 (transitive reduction) fidelity."""

import pytest

from repro.core.measure import measure_fu, measure_registers
from repro.graph.dag import DependenceDAG
from repro.graph.dilworth import (
    PartialOrder,
    closure_from_dag_pairs,
    minimum_chain_decomposition,
    transitive_reduction,
    width,
)
from repro.graph.hammock import HammockAnalysis
from repro.ir.parser import parse_trace
from repro.machine.model import MachineModel
from repro.workloads.random_dags import random_series_parallel


def projected_chain_count(decomposition, members):
    return sum(
        1
        for chain in decomposition.chains
        if any(element in members for element in chain)
    )


def restricted_width(order: PartialOrder, members) -> int:
    sub_elements = [e for e in order.elements if e in members]
    pairs = [
        (a, b)
        for a, bs in order.above.items()
        if a in members
        for b in bs
        if b in members
    ]
    return width(PartialOrder.from_pairs(sub_elements, pairs))


class TestTransitiveReduction:
    def test_fig2_reduction_matches_dag_edges(self, fig2_dag, fig2_uid_of):
        """For Figure 2, the program DAG *is* the Reuse_FU DAG: its edge
        set equals the transitive reduction of reachability (§3.2)."""
        machine = MachineModel.homogeneous(4, 8)
        requirement = measure_fu(fig2_dag, machine, "any")
        covers = set(transitive_reduction(requirement.order))
        dag_edges = {
            (u, v)
            for u, v, d in fig2_dag.edges()
            if u not in (fig2_dag.entry, fig2_dag.exit)
            and v not in (fig2_dag.entry, fig2_dag.exit)
        }
        assert covers == dag_edges

    def test_reduction_has_no_transitive_edges(self, fig2_dag):
        machine = MachineModel.homogeneous(4, 8)
        order = measure_fu(fig2_dag, machine, "any").order
        covers = transitive_reduction(order)
        cover_set = set(covers)
        for a, b in covers:
            for c in order.above[a]:
                if c != b and b in order.above[c]:
                    pytest.fail(f"transitive edge ({a},{b}) kept via {c}")

    def test_reduction_closure_roundtrip(self):
        order = closure_from_dag_pairs("abcd", [("a", "b"), ("b", "c"), ("a", "d")])
        covers = transitive_reduction(order)
        rebuilt = closure_from_dag_pairs(order.elements, covers)
        assert rebuilt.above == order.above


class TestHammockMinimality:
    def test_fig2_fu_projections_minimal(self, fig2_dag):
        machine = MachineModel.homogeneous(4, 8)
        requirement = measure_fu(fig2_dag, machine, "any")
        analysis = HammockAnalysis(fig2_dag)
        for hammock in analysis.hammocks():
            members = set(hammock.nodes) & set(requirement.order.elements)
            if not members:
                continue
            projected = projected_chain_count(requirement.decomposition, members)
            minimal = restricted_width(requirement.order, members)
            # The projection uses at most one extra chain: a chain may
            # pass through the hammock with elements on both sides.
            assert projected >= minimal
            # And on this DAG the prioritized matching achieves equality
            # for the nested D..J hammock the paper's example relies on.

    def test_d_to_j_hammock_exactly_minimal(self, fig2_dag, fig2_uid_of):
        machine = MachineModel.homogeneous(4, 8)
        requirement = measure_fu(fig2_dag, machine, "any")
        analysis = HammockAnalysis(fig2_dag)
        d, j = fig2_uid_of["D"], fig2_uid_of["J"]
        (hammock,) = [
            h for h in analysis.hammocks() if h.entry == d and h.exit == j
        ]
        members = set(hammock.nodes)
        projected = projected_chain_count(requirement.decomposition, members)
        minimal = restricted_width(requirement.order, members)
        assert projected == minimal

    @pytest.mark.parametrize("seed", range(4))
    def test_series_parallel_hammocks_near_minimal(self, seed):
        trace = random_series_parallel(
            n_blocks=3, block_width=3, block_depth=2, seed=seed
        )
        dag = DependenceDAG.from_trace(trace)
        machine = MachineModel.homogeneous(4, 8)
        requirement = measure_fu(dag, machine, "any")
        analysis = HammockAnalysis(dag)
        for hammock in sorted(analysis.hammocks(), key=len)[:6]:
            members = set(hammock.nodes) & set(requirement.order.elements)
            if len(members) < 2:
                continue
            projected = projected_chain_count(requirement.decomposition, members)
            minimal = restricted_width(requirement.order, members)
            # Prioritized insertion keeps the projection within one
            # chain of the true minimum on nested structures.
            assert projected <= minimal + 1
