"""Golden tests for requirement measurement against the paper's numbers."""

import pytest

from repro.core.measure import (
    ResourceKind,
    find_excessive_sets,
    measure_all,
    measure_fu,
    measure_registers,
    reuse_orders,
    trim_excessive_chains,
)
from repro.core.transforms.spill import spill_slot_for
from repro.graph.dag import DependenceDAG
from repro.graph.dilworth import closure_from_dag_pairs, width, width_matching
from repro.graph.hammock import HammockAnalysis
from repro.ir.parser import parse_trace
from repro.machine import preset
from repro.machine.model import MachineModel
from repro.pm import IncrementalMeasurer
from repro.workloads.random_dags import (
    random_layered_trace,
    random_series_parallel,
    random_wide_trace,
)


class TestFigure2Measurement:
    """Paper §3: the Figure 2 DAG needs 4 FUs and 5 registers."""

    def test_fu_requirement_is_four(self, fig2_dag, machine44):
        req = measure_fu(fig2_dag, machine44, "any")
        assert req.required == 4

    def test_register_requirement_is_five(self, fig2_dag, machine44):
        req = measure_registers(fig2_dag, machine44)
        assert req.required == 5

    def test_decomposition_partitions_ops(self, fig2_dag, machine44):
        req = measure_fu(fig2_dag, machine44, "any")
        covered = [e for chain in req.decomposition.chains for e in chain]
        assert sorted(covered) == sorted(fig2_dag.op_nodes())

    def test_excess_accounting(self, fig2_dag):
        machine = MachineModel.homogeneous(3, 4)
        reqs = {r.kind: r for r in measure_all(fig2_dag, machine)}
        assert reqs[ResourceKind.FUNCTIONAL_UNIT].excess == 1
        assert reqs[ResourceKind.REGISTER].excess == 1

    def test_no_excess_on_big_machine(self, fig2_dag, big_machine):
        assert all(not r.is_excessive for r in measure_all(fig2_dag, big_machine))

    def test_measurement_idempotent(self, fig2_dag, machine44):
        first = measure_registers(fig2_dag, machine44)
        second = measure_registers(fig2_dag, machine44)
        assert first.required == second.required


class TestPaperTrimmingExample:
    """§3.1's worked trimming of { {A,B,E,I,K}, {C,F}, {D,G,J}, {H} }."""

    def test_trimming_matches_paper(self):
        covers = [
            ("A", "B"), ("A", "C"), ("A", "D"), ("B", "E"), ("B", "F"),
            ("C", "E"), ("C", "F"), ("D", "G"), ("D", "H"), ("E", "I"),
            ("F", "I"), ("G", "J"), ("H", "J"), ("I", "K"), ("J", "K"),
        ]
        order = closure_from_dag_pairs("ABCDEFGHIJK", covers)
        chains = [["A", "B", "E", "I", "K"], ["C", "F"], ["D", "G", "J"], ["H"]]
        trimmed = trim_excessive_chains(order, chains)
        assert trimmed == [["B", "E"], ["C", "F"], ["G"], ["H"]]

    def test_trimmed_heads_tails_independent(self):
        covers = [
            ("A", "B"), ("A", "C"), ("A", "D"), ("B", "E"), ("B", "F"),
            ("C", "E"), ("C", "F"), ("D", "G"), ("D", "H"), ("E", "I"),
            ("F", "I"), ("G", "J"), ("H", "J"), ("I", "K"), ("J", "K"),
        ]
        order = closure_from_dag_pairs("ABCDEFGHIJK", covers)
        chains = [["A", "B", "E", "I", "K"], ["C", "F"], ["D", "G", "J"], ["H"]]
        trimmed = trim_excessive_chains(order, chains)
        heads = [c[0] for c in trimmed]
        tails = [c[-1] for c in trimmed]
        for i, a in enumerate(heads):
            for b in heads[i + 1:]:
                assert order.independent(a, b)
        for i, a in enumerate(tails):
            for b in tails[i + 1:]:
                assert order.independent(a, b)

    def test_empty_chains_vanish(self):
        order = closure_from_dag_pairs("ab", [("a", "b")])
        assert trim_excessive_chains(order, [["a"], ["b"], []]) in (
            [["a"]], [["b"]],
        )


class TestMaskTrim:
    """The OR-fold trim equals the pairwise trim it replaced."""

    @staticmethod
    def _random_order(rng, n, density):
        """A strict partial order on ``e0 .. e{n-1}``: a random DAG whose
        edges point to higher indices, transitively closed."""
        from repro.graph.dilworth import PartialOrder

        masks = [0] * n
        for i in reversed(range(n)):
            for j in range(i + 1, n):
                if rng.random() < density:
                    masks[i] |= 1 << j | masks[j]
        return PartialOrder.from_masks([f"e{i}" for i in range(n)], masks)

    @staticmethod
    def _random_chains(rng, order):
        """Disjoint sequences over a random subset of the elements, each
        in index order (a chain of some linear extension) or shuffled."""
        picked = [e for e in order.elements if rng.random() < 0.8]
        chains = [[] for _ in range(rng.randint(1, 6))]
        for element in picked:
            rng.choice(chains).append(element)
        for chain in chains:
            if rng.random() < 0.2:
                rng.shuffle(chain)
        return chains

    def test_equals_pairwise_on_random_orders(self):
        import random

        from repro import reference

        rng = random.Random(24)
        popped = 0
        for _ in range(400):
            order = self._random_order(
                rng, rng.randint(1, 20), rng.choice((0.05, 0.15, 0.4))
            )
            chains = self._random_chains(rng, order)
            expected = reference.trim_excessive_chains(order, chains)
            assert trim_excessive_chains(order, chains) == expected, chains
            popped += sum(map(len, chains)) > sum(map(len, expected))
        assert popped > 100

    def test_equals_pairwise_on_measured_decompositions(self):
        from repro import reference

        machine = MachineModel.homogeneous(2, 3)
        for seed in range(10):
            dag = DependenceDAG.from_trace(
                random_layered_trace(n_ops=20, width=5, seed=seed)
            )
            for requirement in measure_all(dag, machine):
                chains = requirement.decomposition.chains
                assert trim_excessive_chains(
                    requirement.order, chains
                ) == reference.trim_excessive_chains(requirement.order, chains)


class TestExcessiveSets:
    def test_fig2_fu_excess_set(self, fig2_dag, fig2_names):
        machine = MachineModel.homogeneous(3, 8)
        req = measure_fu(fig2_dag, machine, "any")
        sets = find_excessive_sets(fig2_dag, req)
        assert sets, "3 FUs must be excessive"
        ecs = sets[0]
        assert ecs.excess == 1
        members = {fig2_names[e] for chain in ecs.chains for e in chain}
        # Trimmed members are drawn from the parallel middle of the DAG.
        assert members <= set("BCDEFGH")

    def test_no_sets_when_not_excessive(self, fig2_dag, big_machine):
        req = measure_fu(fig2_dag, big_machine, "any")
        assert find_excessive_sets(fig2_dag, req) == []

    def test_scope_all_returns_nested(self, fig2_dag):
        machine = MachineModel.homogeneous(1, 8)
        req = measure_fu(fig2_dag, machine, "any")
        all_sets = find_excessive_sets(fig2_dag, req, scope="all")
        both = find_excessive_sets(fig2_dag, req, scope="both")
        assert len(all_sets) >= len(both) >= 1

    def test_scope_validation(self, fig2_dag, machine44):
        machine = MachineModel.homogeneous(1, 8)
        req = measure_fu(fig2_dag, machine, "any")
        with pytest.raises(ValueError):
            find_excessive_sets(fig2_dag, req, scope="bogus")

    def test_register_excess_set_elements_are_values(self, fig2_dag):
        machine = MachineModel.homogeneous(8, 3)
        req = measure_registers(fig2_dag, machine)
        sets = find_excessive_sets(fig2_dag, req)
        assert sets
        for chain in sets[0].chains:
            for element in chain:
                assert isinstance(element, str)


class TestMultiClassMeasurement:
    def test_classed_machine_measures_each_class(self, fig2_dag):
        machine = MachineModel.classed(alu=2, mul=2, mem=1, branch=1)
        reqs = measure_all(fig2_dag, machine)
        classes = {r.cls for r in reqs if r.kind is ResourceKind.FUNCTIONAL_UNIT}
        assert classes == {"alu", "mul", "mem", "branch"}

    def test_dual_register_classes(self):
        machine = MachineModel.dual_regclass(int_regs=4, flt_regs=4)
        dag = DependenceDAG.from_trace(
            parse_trace(
                "i0 = load [a]\nf0 = load [b]\ni1 = i0 + 1\nf1 = f0 + 1\n"
                "store [z], i1\nstore [w], f1"
            )
        )
        reqs = [r for r in measure_all(dag, machine) if r.kind is ResourceKind.REGISTER]
        by_class = {r.cls: r.required for r in reqs}
        assert set(by_class) == {"int", "flt"}
        assert by_class["int"] >= 1 and by_class["flt"] >= 1


# ======================================================================
# reuse_orders and the node-inserting trial's warm-started widths: the
# requirements alone, equal to measure_all's.
# ======================================================================
def _fuzz_traces():
    for seed in range(8):
        yield random_layered_trace(n_ops=20, width=5, seed=seed)
    for seed in range(4):
        yield random_series_parallel(
            n_blocks=3, block_width=3, block_depth=2, seed=seed
        )
    for seed in range(4):
        yield random_wide_trace(n_chains=5, chain_length=3, seed=seed)


WIDTH_MACHINES = {
    "h2x6": lambda: MachineModel.homogeneous(2, 6),
    "narrow": lambda: preset("narrow"),
    "cydra": lambda: preset("cydra"),
    "dsp": lambda: preset("dsp"),
}


def _required(dag, machine):
    return [r.required for r in measure_all(dag, machine)]


def _trial_widths(dag, machine, committed):
    """Every class's width as a node-inserting trial computes it when its
    chain cover does not fit: each relation rebuilt by ``reuse_orders``
    (in snapshot order, as the trial does), re-matched from the cover's
    matching — the ``committed`` measurement's restricted to it and
    extended greedily."""
    measurer = IncrementalMeasurer(machine)
    measurer.rebase(dag, committed)
    widths = [None] * len(committed)
    for kind in (ResourceKind.FUNCTIONAL_UNIT, ResourceKind.REGISTER):
        orders = reuse_orders(dag, machine, kind)
        indices = [i for i, r in enumerate(committed) if r.kind is kind]
        for index, order in zip(indices, orders):
            _, start = measurer._upper_bound(measurer._bases[index], order)
            widths[index] = width_matching(order.masks, start)[0]
    return widths


class TestMeasureWidths:
    @pytest.mark.parametrize("machine_name", sorted(WIDTH_MACHINES))
    def test_widths_equal_measure_all(self, machine_name):
        machine = WIDTH_MACHINES[machine_name]()
        for index, trace in enumerate(_fuzz_traces()):
            dag = DependenceDAG.from_trace(trace)
            committed = measure_all(dag, machine)
            required = [r.required for r in committed]
            built = [
                width(order)
                for kind in (ResourceKind.FUNCTIONAL_UNIT, ResourceKind.REGISTER)
                for order in reuse_orders(dag, machine, kind)
            ]
            assert built == required, index
            assert _trial_widths(dag, machine, committed) == required, index

    @pytest.mark.parametrize("machine_name", sorted(WIDTH_MACHINES))
    def test_widths_equal_measure_all_after_spill_and_remat(self, machine_name):
        machine = WIDTH_MACHINES[machine_name]()
        edited = 0
        for index, trace in enumerate(_fuzz_traces()):
            dag = DependenceDAG.from_trace(trace)
            committed = measure_all(dag, machine)
            version = dag.version
            values = [
                (name, uid)
                for name, uid in sorted(dag.value_defs.items())
                if uid != dag.entry
                and len(set(dag.value_uses.get(name, ()))) >= 2
            ]
            if len(values) < 2:
                continue
            txn = dag.begin_transaction()
            try:
                (spilled, spill_def), (remat, _) = values[0], values[-1]
                uses = sorted(set(dag.value_uses[spilled]))
                dag.insert_spill(
                    spilled, uses[1:], spill_slot_for(dag, spill_def)
                )
                assert txn.adds_nodes
                assert _trial_widths(dag, machine, committed) == _required(
                    dag, machine
                ), index
                uses = sorted(set(dag.value_uses[remat]))
                dag.insert_remat(remat, uses[1:])
                assert _trial_widths(dag, machine, committed) == _required(
                    dag, machine
                ), index
                edited += 1
            finally:
                txn.rollback()
            assert dag.version == version
        assert edited >= 4, edited
