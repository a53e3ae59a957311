"""Unit and property tests for Dilworth machinery (Theorem 1)."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.graph.dilworth import (
    ChainDecomposition,
    PartialOrder,
    PartialOrderError,
    closure_from_dag_pairs,
    maximum_antichain,
    minimum_chain_decomposition,
    width,
)


def random_dag_order(n, density, seed):
    """A random partial order from a random DAG's transitive closure."""
    rng = random.Random(seed)
    covers = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return closure_from_dag_pairs(range(n), covers)


class TestPartialOrder:
    def test_from_pairs_and_queries(self):
        po = PartialOrder.from_pairs("abc", [("a", "b"), ("a", "c"), ("b", "c")])
        assert po.less("a", "c")
        assert not po.less("c", "a")
        assert po.independent("b", "b") is False

    def test_validate_rejects_reflexive(self):
        with pytest.raises(PartialOrderError):
            PartialOrder.from_pairs("a", [("a", "a")])

    def test_validate_rejects_symmetric(self):
        po = PartialOrder.from_pairs("ab", [("a", "b"), ("b", "a")])
        with pytest.raises(PartialOrderError):
            po.validate()

    def test_validate_rejects_intransitive(self):
        po = PartialOrder.from_pairs("abc", [("a", "b"), ("b", "c")])
        with pytest.raises(PartialOrderError):
            po.validate()

    def test_closure_is_valid(self):
        po = random_dag_order(20, 0.2, seed=1)
        po.validate()

    def test_closure_rejects_cycles(self):
        with pytest.raises(PartialOrderError):
            closure_from_dag_pairs([0, 1], [(0, 1), (1, 0)])

    def test_is_chain_definition_1(self):
        """The paper's Definition 1 on the Figure 2 DAG structure."""
        covers = [
            ("A", "B"), ("A", "C"), ("A", "D"), ("B", "E"), ("B", "F"),
            ("C", "E"), ("C", "F"), ("D", "G"), ("D", "H"), ("E", "I"),
            ("F", "I"), ("G", "J"), ("H", "J"), ("I", "K"), ("J", "K"),
        ]
        po = closure_from_dag_pairs("ABCDEFGHIJK", covers)
        # The chains the paper lists below Figure 2.
        assert po.is_chain(["A", "B", "F", "K"])
        assert po.is_chain(["C", "E", "I"])
        assert po.is_chain(["D", "G", "J"])
        assert po.is_chain(["H"])
        assert not po.is_chain(["B", "C"])

    def test_sort_chain(self):
        po = closure_from_dag_pairs("abc", [("a", "b"), ("b", "c")])
        assert po.sort_chain(["c", "a", "b"]) == ["a", "b", "c"]


class TestDecomposition:
    def test_fig2_width_is_four(self):
        covers = [
            ("A", "B"), ("A", "C"), ("A", "D"), ("B", "E"), ("B", "F"),
            ("C", "E"), ("C", "F"), ("D", "G"), ("D", "H"), ("E", "I"),
            ("F", "I"), ("G", "J"), ("H", "J"), ("I", "K"), ("J", "K"),
        ]
        po = closure_from_dag_pairs("ABCDEFGHIJK", covers)
        decomposition = minimum_chain_decomposition(po)
        decomposition.validate()
        # Theorem 1: at most four nodes can execute in parallel.
        assert decomposition.width == 4
        assert len(maximum_antichain(po)) == 4

    def test_total_order_one_chain(self):
        po = closure_from_dag_pairs(range(6), [(i, i + 1) for i in range(5)])
        assert minimum_chain_decomposition(po).width == 1

    def test_antichain_all_independent(self):
        po = PartialOrder.from_pairs(range(5), [])
        assert minimum_chain_decomposition(po).width == 5

    def test_chain_index(self):
        po = closure_from_dag_pairs("ab", [("a", "b")])
        decomposition = minimum_chain_decomposition(po)
        index = decomposition.chain_index()
        assert index["a"] == index["b"]

    def test_empty_order(self):
        po = PartialOrder.from_pairs([], [])
        assert minimum_chain_decomposition(po).width == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 18), st.floats(0.05, 0.5))
def test_property_dilworth_theorem(seed, n, density):
    """Minimum decomposition size == maximum antichain size (Dilworth)."""
    po = random_dag_order(n, density, seed)
    decomposition = minimum_chain_decomposition(po)
    decomposition.validate()
    antichain = maximum_antichain(po)
    assert decomposition.width == len(antichain)
    # The extracted antichain really is an antichain.
    members = sorted(antichain)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            assert po.independent(a, b)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 15))
def test_property_width_function(seed, n):
    po = random_dag_order(n, 0.25, seed)
    assert width(po) == minimum_chain_decomposition(po).width


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 15))
def test_property_prioritized_decomposition_still_minimal(seed, n):
    """Priority batching never costs minimality (paper §3.1)."""
    po = random_dag_order(n, 0.3, seed)
    rng = random.Random(seed)
    plain = minimum_chain_decomposition(po)
    prioritized = minimum_chain_decomposition(
        po, levels={e: rng.randrange(3) for e in po.elements}
    )
    prioritized.validate()
    assert prioritized.width == plain.width


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**30),
    st.integers(0, 24),
    st.floats(0.05, 0.6),
    st.integers(0, 4),
)
def test_property_width_needs_no_priority(seed, n, density, max_level):
    """One unprioritized Kuhn batch, the hammock-prioritized
    decomposition and the oracle's Hopcroft–Karp all find the same
    width: every maximum matching has the same size (Theorem 1)."""
    po = random_dag_order(n, density, seed)
    rng = random.Random(seed)
    levels = {e: rng.randint(0, max_level) for e in po.elements}
    prioritized = minimum_chain_decomposition(po, levels=levels)
    prioritized.validate()
    assert width(po) == prioritized.width == reference.width(po)
