"""Property fuzz and unit tests for the bitset measurement kernels.

The bitset kernels' contract is *bit-identity*: every kernel — chain
decomposition, antichain extraction, reuse-relation construction, kill
selection, the full ``measure_all`` — must produce exactly what the
dict-of-sets oracle in :mod:`repro.reference` produces, not merely
results of equal size.  These tests fuzz that claim over seeded random
DAGs, and pin down the shared uid<->bit index table's stability under
transaction rollback (the property ``repro.pm``'s warm re-measurement
relies on).

Oracle comparisons always run both sides on the *same* DAG instance:
uids come from a global counter, so two separately-built DAGs of the
same trace get different uids and are not comparable.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.core.kill import select_kill
from repro.core.measure import measure_all
from repro.core.reuse import (
    can_reuse_fu,
    can_reuse_registers,
    can_reuse_registers_sound,
    collect_values,
)
from repro.graph import bitset
from repro.graph.dag import DependenceDAG
from repro.graph.dilworth import (
    _inverse,
    closure_from_dag_pairs,
    maximum_antichain,
    minimum_chain_decomposition,
    width as dilworth_width,
    width_matching,
)
from repro.machine.model import MachineModel
from repro.workloads.random_dags import random_layered_trace

FUZZ_SEEDS = range(12)


def random_order(n, density, seed):
    rng = random.Random(seed)
    covers = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return closure_from_dag_pairs(range(n), covers)


def random_levels(order, seed, depth=3):
    rng = random.Random(seed)
    return {e: rng.randrange(depth) for e in order.elements}


def decomposition_key(decomposition):
    return (
        tuple(tuple(c) for c in decomposition.chains),
        tuple(sorted(decomposition.successor.items())),
    )


def measurement_key(requirements):
    return [
        (
            r.kind.value,
            r.cls,
            r.required,
            tuple(sorted(tuple(c) for c in r.decomposition.chains)),
            tuple(sorted(r.kill.kill.items())) if r.kill is not None else None,
        )
        for r in requirements
    ]


# ======================================================================
# Kernel-level identity fuzz.
# ======================================================================
class TestDecompositionIdentity:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_unprioritized_same_width_and_valid(self, seed):
        order = random_order(6 + seed * 3, 0.2 + 0.04 * (seed % 5), seed)
        fast = minimum_chain_decomposition(order)
        slow = reference.minimum_chain_decomposition(order)
        assert decomposition_key(fast) == decomposition_key(slow)
        for decomposition in (fast, slow):
            seen = [e for chain in decomposition.chains for e in chain]
            assert sorted(seen) == sorted(order.elements)  # a partition
            for chain in decomposition.chains:
                for a, b in zip(chain, chain[1:]):
                    assert order.less(a, b)  # each chain is a chain

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_levels_matches_legacy(self, seed):
        order = random_order(6 + seed * 3, 0.25, seed)
        levels = random_levels(order, seed)
        fast = minimum_chain_decomposition(order, levels=levels)
        slow = reference.minimum_chain_decomposition(order, levels=levels)
        assert decomposition_key(fast) == decomposition_key(slow)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_antichain_identical_not_just_equal_sized(self, seed):
        order = random_order(8 + seed * 3, 0.22, seed)
        fast = maximum_antichain(order)
        slow = reference.maximum_antichain(order)
        assert fast == slow
        width = len(minimum_chain_decomposition(order).chains)
        assert len(fast) == width  # Dilworth, both sides
        assert dilworth_width(order) == reference.width(order) == width


def koenig_antichain(order, match_left):
    """König's antichain from the index-array matching ``match_left``."""
    visited_left, visited_right = bitset.koenig_cover_masks(
        len(order.elements), order.masks, match_left, _inverse(match_left)
    )
    return {
        element
        for i, element in enumerate(order.elements)
        if (match_left[i] < 0 or visited_left >> i & 1)
        and not visited_right >> i & 1
    }


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**30),
    st.integers(0, 28),
    st.floats(0.05, 0.6),
    st.integers(0, 4),
)
def test_property_antichain_independent_of_maximum_matching(
    seed, n, density, max_level
):
    """König's cover reaches the same vertices from every maximum
    matching (Dulmage–Mendelsohn), so the antichain does not depend on
    which matcher found the matching: a cold Kuhn matching, a
    hammock-prioritized decomposition's successor links and the
    oracle's Hopcroft–Karp matching all give ``maximum_antichain``."""
    order = random_order(n, density, seed)
    rng = random.Random(seed)
    levels = {e: rng.randint(0, max_level) for e in order.elements}
    index = order.index

    _, cold = width_matching(order.masks)
    successor = minimum_chain_decomposition(order, levels=levels).successor
    prioritized = [
        index[successor[e]] if e in successor else -1 for e in order.elements
    ]
    oracle = reference.hopcroft_karp(order.elements, order.pairs())
    hopcroft_karp = [
        index[oracle[e]] if e in oracle else -1 for e in order.elements
    ]

    antichain = maximum_antichain(order)
    assert antichain == reference.maximum_antichain(order)
    for matching in (cold, prioritized, hopcroft_karp):
        assert koenig_antichain(order, matching) == antichain
    assert len(antichain) == dilworth_width(order)


class TestReuseRelationIdentity:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fu_and_register_relations(self, seed):
        rng = random.Random(seed)
        trace = random_layered_trace(
            n_ops=rng.choice([10, 25, 60]), width=rng.choice([3, 5, 9]),
            seed=seed,
        )
        dag = DependenceDAG.from_trace(trace)
        machine = MachineModel.homogeneous(2, 4)
        elements = sorted(dag.op_nodes())
        assert (
            can_reuse_fu(dag, elements).pairs()
            == reference.can_reuse_fu(dag, elements).pairs()
        )
        values = collect_values(dag, machine)
        assert (
            can_reuse_registers_sound(dag, values).pairs()
            == reference.can_reuse_registers_sound(dag, values).pairs()
        )
        oracle_kill = reference.select_kill(dag, values)
        kill = select_kill(dag, values)
        assert dict(kill.items()) == dict(oracle_kill.items())
        assert (
            can_reuse_registers(dag, values, kill.kill).pairs()
            == reference.can_reuse_registers(dag, values, kill.kill).pairs()
        )


class TestMeasurementIdentity:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_measure_all_bit_identical(self, seed):
        rng = random.Random(seed)
        trace = random_layered_trace(
            n_ops=rng.choice([12, 30, 64, 100]),
            width=rng.choice([2, 4, 7]),
            seed=seed,
        )
        dag = DependenceDAG.from_trace(trace)
        machine = MachineModel.homogeneous(
            rng.choice([1, 2, 4]), rng.choice([4, 8])
        )
        fast = measure_all(dag, machine)
        slow = reference.measure_all(dag, machine)
        assert measurement_key(fast) == measurement_key(slow)


# ======================================================================
# BitsetKuhn state machinery.
# ======================================================================
class TestBitsetKuhn:
    def test_from_state_resumes_matching(self):
        # Two lefts matched, one unmatched with one free right.
        adj = [0b001, 0b011, 0b110]
        matcher = bitset.BitsetKuhn.from_state(adj, [0, 1, -1], [0, 1, -1])
        assert matcher.maximize() == 1
        assert matcher.match_left == [0, 1, 2]

    def test_from_state_augments_through_occupied_rights(self):
        # Left 2's only right is taken; augmentation must displace.
        adj = [0b011, 0b100, 0b001]
        matcher = bitset.BitsetKuhn.from_state(adj, [0, 2, -1], [0, -1, 1])
        assert matcher.maximize() == 1
        assert matcher.match_left.count(-1) == 0

    def test_multi_batch_preserves_first_batch_pairs(self):
        # The reference matcher never unmatches: a pair made in batch 1
        # survives batch 2 even when batch 2 could improve on it.
        matcher = bitset.BitsetKuhn(3)
        matcher.add_batch([(0, 0b001)])
        assert matcher.match_left[0] == 0
        matcher.add_batch([(1, 0b001), (2, 0b110)])
        assert matcher.match_left[0] == 0  # kept
        assert matcher.size >= 2

    def test_empty_rows_are_ignored(self):
        matcher = bitset.BitsetKuhn(4)
        assert matcher.add_batch([(0, 0), (1, 0b10)]) == 1
        assert matcher.match_left[0] == -1
        assert matcher.match_left[1] == 1


# ======================================================================
# The shared uid<->bit table under transactions.
# ======================================================================
class TestClosureMaskStability:
    def _dag(self, seed=7):
        trace = random_layered_trace(n_ops=30, width=4, seed=seed)
        return DependenceDAG.from_trace(trace)

    def _free_pair(self, dag):
        desc, index, order = dag.closure_masks()
        for a in order:
            for b in order:
                if a != b and dag.independent(a, b):
                    return a, b
        pytest.skip("no independent pair in this DAG")

    def test_rollback_restores_masks_and_table(self):
        dag = self._dag()
        desc_before, index_before, order_before = dag.closure_masks()
        snapshot = dict(desc_before)
        a, b = self._free_pair(dag)

        txn = dag.begin_transaction()
        assert dag.add_sequence_edge(a, b)
        desc_mid, index_mid, order_mid = dag.closure_masks()
        assert index_mid is index_before or index_mid == index_before
        assert desc_mid[a] >> index_mid[b] & 1, "edge not folded into closure"
        txn.rollback()

        desc_after, index_after, order_after = dag.closure_masks()
        assert desc_after == snapshot, "rollback did not restore masks"
        assert index_after == index_before
        assert order_after == order_before

    def test_commit_keeps_incremental_closure_exact(self):
        dag = self._dag(seed=11)
        a, b = self._free_pair(dag)
        txn = dag.begin_transaction()
        assert dag.add_sequence_edge(a, b)
        txn.commit()
        desc, index, order = dag.closure_masks()
        # Rebuild from scratch on a structural copy (dropping the closure
        # the copy carries over) and compare in uid space (the rebuild
        # may lay bits out differently).
        rebuilt = dag.copy()
        rebuilt._invalidate()
        rdesc, rindex, rorder = rebuilt.closure_masks()
        for uid in order:
            assert dag.descendants(uid) == rebuilt.descendants(uid)

    def test_copy_carries_closure_independently(self):
        dag = self._dag(seed=19)
        desc_before, _, order = dag.closure_masks()
        snapshot = dict(desc_before)
        clone = dag.copy()
        a, b = self._free_pair(clone)
        txn = clone.begin_transaction()
        assert clone.add_sequence_edge(a, b)
        txn.commit()
        # The original's masks are untouched by the copy's edits ...
        assert dag.closure_masks()[0] == snapshot
        # ... and the copy's incrementally kept closure is exact.
        rebuilt = clone.copy()
        rebuilt._invalidate()
        for uid in order:
            assert clone.descendants(uid) == rebuilt.descendants(uid)

    def test_measurement_identical_before_and_after_rollback(self):
        dag = self._dag(seed=13)
        machine = MachineModel.homogeneous(2, 4)
        before = measurement_key(measure_all(dag, machine))
        a, b = self._free_pair(dag)
        txn = dag.begin_transaction()
        dag.add_sequence_edge(a, b)
        txn.rollback()
        after = measurement_key(measure_all(dag, machine))
        assert before == after

    def test_version_keyed_caches_survive_rollback(self):
        # topo order / asap / hammocks are version-keyed; a rollback
        # must not leave them serving the transaction's view.
        dag = self._dag(seed=17)
        topo_before = dag.topological_order()
        asap_before = dag.asap()
        a, b = self._free_pair(dag)
        txn = dag.begin_transaction()
        dag.add_sequence_edge(a, b)
        dag.asap()  # warm the cache inside the transaction
        txn.rollback()
        assert dag.topological_order() == topo_before
        assert dag.asap() == asap_before
