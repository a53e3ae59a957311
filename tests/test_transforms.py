"""Golden tests for the three transformations against Figure 3.

Each subsection first reproduces the *paper's exact DAG edit* and checks
the measured requirement drops to the figure's number, then checks that
URSA's own heuristics find an edit achieving the same target.
"""

import random

import pytest

from repro.core.allocator import Policy, allocate
from repro.core.measure import (
    ResourceKind,
    find_excessive_sets,
    measure_fu,
    measure_registers,
)
from repro.core.transforms.base import (
    TransformError,
    maximal_nodes,
    minimal_nodes,
)
from repro.core.transforms.fu_seq import propose_fu_sequencing
from repro.core.transforms.reg_seq import propose_register_sequencing
from repro.core.transforms.spill import propose_spills
from repro.graph.dag import DependenceDAG
from repro.ir.instructions import Addr
from repro.machine.model import MachineModel
from repro.workloads.random_dags import random_layered_trace


class TestFigure3aFUSequencing:
    """Fig. 3(a): one edge G -> H reduces FU requirements 4 -> 3."""

    def test_paper_edge_reduces_requirement(self, fig2_dag, fig2_uid_of):
        machine = MachineModel.homogeneous(3, 8)
        fig2_dag.add_sequence_edge(fig2_uid_of["G"], fig2_uid_of["H"])
        assert measure_fu(fig2_dag, machine, "any").required == 3

    def test_heuristic_reaches_three(self, fig2_dag):
        machine = MachineModel.homogeneous(3, 8)
        req = measure_fu(fig2_dag, machine, "any")
        (ecs, *_) = find_excessive_sets(fig2_dag, req)
        candidates = propose_fu_sequencing(fig2_dag, ecs, fig2_dag.asap())
        assert candidates
        reductions = []
        for candidate in candidates:
            new_dag = candidate.apply()
            reductions.append(measure_fu(new_dag, machine, "any").required)
        assert min(reductions) == 3

    def test_candidates_preserve_acyclicity(self, fig2_dag):
        machine = MachineModel.homogeneous(3, 8)
        req = measure_fu(fig2_dag, machine, "any")
        (ecs, *_) = find_excessive_sets(fig2_dag, req)
        for candidate in propose_fu_sequencing(fig2_dag, ecs, fig2_dag.asap()):
            candidate.apply().topological_order()

    def test_reduction_to_two(self, fig2_dag):
        machine = MachineModel.homogeneous(2, 8)
        result = allocate(fig2_dag, machine)
        fu = [r for r in result.requirements if r.kind is ResourceKind.FUNCTIONAL_UNIT]
        assert fu[0].required <= 2


class TestFigure3bRegisterSequencing:
    """Fig. 3(b): delaying G, H until after I reduces registers 5 -> 4."""

    def test_paper_edges_reduce_requirement(self, fig2_dag, fig2_uid_of):
        machine = MachineModel.homogeneous(8, 4)
        fig2_dag.add_sequence_edge(fig2_uid_of["I"], fig2_uid_of["G"])
        fig2_dag.add_sequence_edge(fig2_uid_of["I"], fig2_uid_of["H"])
        assert measure_registers(fig2_dag, machine).required == 4

    def test_paper_stage_structure(self, fig2_dag, fig2_uid_of):
        """After the edit, Stage1 = ancestors of {G,H}, Stage2 = rest."""
        fig2_dag.add_sequence_edge(fig2_uid_of["I"], fig2_uid_of["G"])
        fig2_dag.add_sequence_edge(fig2_uid_of["I"], fig2_uid_of["H"])
        stage1_expected = {"A", "B", "C", "D", "E", "F", "I"}
        ancestors = set()
        for root in ("G", "H"):
            ancestors |= {
                uid for uid in fig2_dag.ancestors(fig2_uid_of[root])
            }
        names = {}
        for uid in fig2_dag.op_nodes():
            text = str(fig2_dag.instruction(uid))
            names[uid] = "store" if text.startswith("store") else text.split(" ")[0]
        stage1 = {names[u] for u in ancestors if u in names}
        assert stage1 == stage1_expected

    def test_heuristic_reduces_registers(self, fig2_dag):
        machine = MachineModel.homogeneous(8, 4)
        req = measure_registers(fig2_dag, machine)
        assert req.required == 5
        improved = []
        for ecs in find_excessive_sets(fig2_dag, req):
            for candidate in propose_register_sequencing(
                fig2_dag, ecs, fig2_dag.asap()
            ):
                try:
                    new_dag = candidate.apply()
                except TransformError:
                    continue
                improved.append(measure_registers(new_dag, machine).required)
        for ecs in find_excessive_sets(fig2_dag, req):
            for candidate in propose_spills(fig2_dag, ecs, fig2_dag.asap()):
                try:
                    new_dag = candidate.apply()
                except TransformError:
                    continue
                improved.append(measure_registers(new_dag, machine).required)
        assert improved and min(improved) <= 4


class TestFigure3cSpill:
    """Fig. 3(c): spilling D reduces registers 5 -> 3.

    The figure's "three registers" holds when the reload is delayed past
    node I (which kills E and F) — exactly where Figure 3(c) draws
    "Load D".  With the reload only sequenced after E and F's *issue*
    (the literal "after SD1's leaves" reading), the worst case over all
    schedules is 4, because a schedule may delay I while G and H run.
    Both readings are pinned down here; URSA's own kill-frontier
    heuristic implements the one that achieves the figure's number.
    """

    def test_literal_reading_measures_four(self, fig2_dag, fig2_uid_of):
        machine = MachineModel.homogeneous(8, 3)
        spill, reload, _ = fig2_dag.insert_spill(
            "D", [fig2_uid_of["G"], fig2_uid_of["H"]], Addr("%spill", 0)
        )
        fig2_dag.add_sequence_edge(spill, fig2_uid_of["B"])
        fig2_dag.add_sequence_edge(spill, fig2_uid_of["C"])
        fig2_dag.add_sequence_edge(fig2_uid_of["E"], reload)
        fig2_dag.add_sequence_edge(fig2_uid_of["F"], reload)
        # E and F stay live until I issues, so {E, F, G, H} can coexist.
        assert measure_registers(fig2_dag, machine).required == 4

    def test_paper_spill_reduces_requirement_to_three(
        self, fig2_dag, fig2_uid_of
    ):
        machine = MachineModel.homogeneous(8, 3)
        spill, reload, _ = fig2_dag.insert_spill(
            "D", [fig2_uid_of["G"], fig2_uid_of["H"]], Addr("%spill", 0)
        )
        fig2_dag.add_sequence_edge(spill, fig2_uid_of["B"])
        fig2_dag.add_sequence_edge(spill, fig2_uid_of["C"])
        # Reload after SD1's kill frontier (node I), as drawn in Fig 3(c).
        fig2_dag.add_sequence_edge(fig2_uid_of["I"], reload)
        assert measure_registers(fig2_dag, machine).required == 3

    def test_heuristic_spill_candidates_reduce(self, fig2_dag):
        machine = MachineModel.homogeneous(8, 3)
        req = measure_registers(fig2_dag, machine)
        improved = []
        for ecs in find_excessive_sets(fig2_dag, req):
            for candidate in propose_spills(fig2_dag, ecs, fig2_dag.asap()):
                try:
                    new_dag = candidate.apply()
                except TransformError:
                    continue
                improved.append(measure_registers(new_dag, machine).required)
        assert improved and min(improved) < req.required

    def test_spill_preserves_semantics(self, fig2_dag, fig2_uid_of):
        from repro.ir.interp import run_trace

        fig2_dag.insert_spill(
            "D", [fig2_uid_of["G"], fig2_uid_of["H"]], Addr("%spill", 0)
        )
        result = run_trace(fig2_dag.linearize(), {("v", 0): 6})
        assert result.stores_to("z") == {0: 25}


class TestFigure3dCombined:
    """Fig. 3(d): combined transformations reach 2 FUs and 3 registers."""

    @pytest.mark.parametrize(
        "policy", [Policy.INTEGRATED, Policy.PHASED]
    )
    def test_allocation_converges(self, fig2_dag, policy):
        machine = MachineModel.homogeneous(2, 3)
        result = allocate(fig2_dag, machine, policy=policy)
        assert result.converged
        by_kind = {(r.kind, r.cls): r.required for r in result.requirements}
        assert by_kind[(ResourceKind.FUNCTIONAL_UNIT, "any")] <= 2
        assert by_kind[(ResourceKind.REGISTER, "gpr")] <= 3

    def test_transformed_dag_still_correct(self, fig2_dag):
        from repro.ir.interp import run_trace

        machine = MachineModel.homogeneous(2, 3)
        result = allocate(fig2_dag, machine)
        out = run_trace(result.dag.linearize(), {("v", 0): 6})
        assert out.stores_to("z") == {0: 25}

    def test_original_dag_untouched(self, fig2_dag, machine44):
        before = len(list(fig2_dag.edges()))
        allocate(fig2_dag, MachineModel.homogeneous(2, 3))
        assert len(list(fig2_dag.edges())) == before


class TestFrontierNodes:
    """``maximal_nodes``/``minimal_nodes`` against pairwise reachability."""

    @pytest.mark.parametrize("seed", range(5))
    def test_match_pairwise_reaches(self, seed):
        dag = DependenceDAG.from_trace(
            random_layered_trace(n_ops=40, width=5, seed=seed)
        )
        rng = random.Random(seed)
        nodes = dag.op_nodes()
        for size in (1, 2, 5, 12, len(nodes)):
            subset = rng.sample(nodes, size)
            expect_max = sorted(
                n for n in set(subset)
                if not any(m != n and dag.reaches(n, m) for m in subset)
            )
            expect_min = sorted(
                n for n in set(subset)
                if not any(m != n and dag.reaches(m, n) for m in subset)
            )
            assert maximal_nodes(dag, subset) == expect_max
            assert minimal_nodes(dag, subset) == expect_min
