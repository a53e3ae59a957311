"""Unit and property tests for the reference bipartite matchers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reference import (
    PrioritizedMatcher,
    hopcroft_karp,
    maximum_matching,
    minimum_vertex_cover,
)


def random_bipartite(n_left, n_right, density, seed):
    rng = random.Random(seed)
    return [
        (f"L{i}", f"R{j}")
        for i in range(n_left)
        for j in range(n_right)
        if rng.random() < density
    ]


class TestPrioritizedMatcher:
    def test_empty(self):
        matcher = PrioritizedMatcher()
        assert matcher.maximize() == 0
        assert matcher.size == 0

    def test_perfect_matching(self):
        matcher = PrioritizedMatcher()
        matcher.add_edges([(i, f"r{i}") for i in range(5)])
        assert matcher.size == 5

    def test_augmenting_path_reroutes(self):
        # L0 can take R0 or R1; L1 only R0 — maximum needs rerouting.
        matcher = PrioritizedMatcher()
        matcher.add_edges([("L0", "R0"), ("L0", "R1"), ("L1", "R0")])
        assert matcher.size == 2

    def test_batched_insertion_is_still_maximum(self):
        edges = random_bipartite(12, 12, 0.3, seed=7)
        matcher = PrioritizedMatcher()
        half = len(edges) // 2
        matcher.add_edges(edges[:half])
        matcher.add_edges(edges[half:])
        reference = hopcroft_karp({u for u, _ in edges}, edges)
        assert matcher.size == len(reference)

    def test_priority_edges_preferred(self):
        # Both (A, X) and (B, X) possible; A-X arrives in the first
        # batch and must survive (B gets nothing).
        matcher = PrioritizedMatcher()
        matcher.add_edges([("A", "X")])
        matcher.add_edges([("B", "X")])
        assert matcher.match_left["A"] == "X"
        assert "B" not in matcher.match_left

    def test_matching_is_consistent(self):
        edges = random_bipartite(10, 8, 0.4, seed=3)
        matcher = PrioritizedMatcher()
        matcher.add_edges(edges)
        # Left->right and right->left views agree and rights are unique.
        rights = list(matcher.match_left.values())
        assert len(rights) == len(set(rights))
        for left, right in matcher.match_left.items():
            assert matcher.match_right[right] == left
            assert (left, right) in set(edges)


class TestMaximumMatching:
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_hopcroft_karp(self, seed):
        edges = random_bipartite(15, 15, 0.25, seed=seed)
        ours = maximum_matching(edges)
        reference = hopcroft_karp({u for u, _ in edges}, edges)
        assert len(ours) == len(reference)

    def test_with_priorities(self):
        edges = random_bipartite(10, 10, 0.35, seed=11)
        priority = {edge: i % 3 for i, edge in enumerate(edges)}
        ours = maximum_matching(edges, priority)
        reference = hopcroft_karp({u for u, _ in edges}, edges)
        assert len(ours) == len(reference)


class TestKoenigCover:
    @pytest.mark.parametrize("seed", range(5))
    def test_cover_size_equals_matching(self, seed):
        edges = random_bipartite(12, 12, 0.3, seed=seed)
        lefts = {u for u, _ in edges}
        rights = {v for _, v in edges}
        matching = hopcroft_karp(lefts, edges)
        cover_l, cover_r = minimum_vertex_cover(lefts, rights, edges, matching)
        # König: |cover| == |matching|.
        assert len(cover_l) + len(cover_r) == len(matching)

    @pytest.mark.parametrize("seed", range(5))
    def test_cover_covers_every_edge(self, seed):
        edges = random_bipartite(12, 12, 0.3, seed=seed)
        lefts = {u for u, _ in edges}
        rights = {v for _, v in edges}
        matching = hopcroft_karp(lefts, edges)
        cover_l, cover_r = minimum_vertex_cover(lefts, rights, edges, matching)
        for u, v in edges:
            assert u in cover_l or v in cover_r


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 14), st.integers(1, 14))
def test_property_matcher_maximality(seed, n_left, n_right):
    """PrioritizedMatcher (random batch split) is always maximum."""
    edges = random_bipartite(n_left, n_right, 0.35, seed)
    rng = random.Random(seed ^ 0xABCD)
    matcher = PrioritizedMatcher()
    remaining = list(edges)
    while remaining:
        cut = rng.randrange(1, len(remaining) + 1)
        matcher.add_edges(remaining[:cut])
        remaining = remaining[cut:]
    reference = hopcroft_karp({u for u, _ in edges}, edges)
    assert matcher.size == len(reference)
