"""Partial orders, Dilworth chain decompositions, and maximum antichains.

Theorem 1 of the paper (Dilworth [Dil50]): the maximum number of mutually
independent elements of a partial order equals the number of chains in a
minimum chain decomposition.  URSA measures worst-case resource
requirements by decomposing the *reuse* partial order of each resource
into a minimum set of allocation chains via bipartite matching [FoF65].

The relation itself is stored as packed int bitmasks — one bit per
element, positions given by :attr:`PartialOrder.index` — and one matcher
runs directly on those masks, the batched Kuhn matcher of
:mod:`repro.graph.bitset`: in hammock-priority batches where the paper's
insertion order is load-bearing, in one batch for plain decompositions,
cold or warm-started for exact widths (:func:`width_matching`), and under
König's construction for antichains.  :func:`width_bounds` brackets a
width with no matcher at all: a greedy chain cover above, an antichain
below.  The dict-of-sets view (``above``) is materialized lazily for
callers that still want it.  The original dict-based kernels live on in
:mod:`repro.reference`, the oracle the property fuzz and the measurement
benchmark compare against; both produce bit-identical decompositions,
antichains, and widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.graph import bitset

Element = Hashable


class PartialOrderError(Exception):
    """Raised when a relation is not a valid strict partial order."""


class PartialOrder:
    """A strict partial order, stored as per-element successor bitmasks
    (the relation must already be transitively closed).

    For URSA, ``a < b`` means "b can reuse a's resource instance".  Bit
    positions are element indices (``index``); ``masks[i]`` is the set of
    elements above ``elements[i]``.  The dict-of-frozensets view
    (``above``) is derived lazily and cached.
    """

    __slots__ = ("elements", "_index", "_masks", "_above")

    def __init__(
        self,
        elements: Iterable[Element],
        above: Optional[Mapping[Element, Iterable[Element]]] = None,
        *,
        masks: Optional[Sequence[int]] = None,
    ) -> None:
        self.elements: List[Element] = list(elements)
        self._index: Dict[Element, int] = {
            e: i for i, e in enumerate(self.elements)
        }
        self._above: Optional[Dict[Element, FrozenSet[Element]]] = None
        if masks is not None:
            if above is not None:
                raise ValueError("pass either above or masks, not both")
            self._masks: List[int] = list(masks)
            if len(self._masks) != len(self.elements):
                raise PartialOrderError("one mask per element required")
        else:
            index = self._index
            mask_list = [0] * len(self.elements)
            for a, bs in (above or {}).items():
                bits = 0
                for b in bs:
                    bits |= 1 << index[b]
                mask_list[index[a]] = bits
            self._masks = mask_list

    @classmethod
    def from_pairs(
        cls, elements: Iterable[Element], pairs: Iterable[Tuple[Element, Element]]
    ) -> "PartialOrder":
        element_list = list(elements)
        index = {e: i for i, e in enumerate(element_list)}
        masks = [0] * len(element_list)
        for a, b in pairs:
            ia = index.get(a)
            ib = index.get(b)
            if ia is None or ib is None:
                raise PartialOrderError(f"pair ({a!r}, {b!r}) uses unknown element")
            if a == b:
                raise PartialOrderError(f"reflexive pair on {a!r}")
            masks[ia] |= 1 << ib
        return cls(element_list, masks=masks)

    @classmethod
    def from_masks(
        cls, elements: Iterable[Element], masks: Sequence[int]
    ) -> "PartialOrder":
        """Adopt ready-made successor bitmasks (bit ``j`` of ``masks[i]``
        set iff ``elements[i] < elements[j]``) without copying through a
        dict — the fast constructor the reuse analyses use."""
        return cls(elements, masks=masks)

    # ------------------------------------------------------------------
    @property
    def index(self) -> Dict[Element, int]:
        """element -> bit position (shared with ``masks``)."""
        return self._index

    @property
    def masks(self) -> List[int]:
        """Successor bitmask per element index.  Treat as read-only."""
        return self._masks

    @property
    def above(self) -> Dict[Element, FrozenSet[Element]]:
        """a -> frozenset of b with (a, b) in the relation (lazy view)."""
        if self._above is None:
            elements = self.elements
            self._above = {
                a: frozenset(elements[j] for j in bitset.iter_bits(mask))
                for a, mask in zip(elements, self._masks)
            }
        return self._above

    # ------------------------------------------------------------------
    def less(self, a: Element, b: Element) -> bool:
        return bool(self._masks[self._index[a]] >> self._index[b] & 1)

    def independent(self, a: Element, b: Element) -> bool:
        return a != b and not self.less(a, b) and not self.less(b, a)

    def pairs(self) -> List[Tuple[Element, Element]]:
        """All related pairs, in a deterministic order.

        Enumerating masks bit by bit yields, per left element, its
        successors in ascending element-index order — the enumeration is
        invariant under uniform uid shifts (raw set iteration would leak
        hash order into the matching and hence into the decomposition).
        """
        elements = self.elements
        result: List[Tuple[Element, Element]] = []
        for a, mask in zip(elements, self._masks):
            while mask:
                low = mask & -mask
                result.append((a, elements[low.bit_length() - 1]))
                mask ^= low
        return result

    def __len__(self) -> int:
        return len(self.elements)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check irreflexivity, antisymmetry, and transitivity."""
        masks = self._masks
        elements = self.elements
        for i, a in enumerate(elements):
            mask = masks[i]
            if mask >> i & 1:
                raise PartialOrderError(f"reflexive: {a!r}")
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                b = elements[j]
                if masks[j] >> i & 1:
                    raise PartialOrderError(f"symmetric pair {a!r}, {b!r}")
                missing = masks[j] & ~mask
                if missing:
                    witnesses = sorted(
                        repr(elements[k]) for k in bitset.iter_bits(missing)
                    )
                    raise PartialOrderError(
                        f"not transitive: {a!r} < {b!r} < {witnesses[0]}"
                    )

    def is_chain(self, members: Sequence[Element]) -> bool:
        """True when every pair of members is related (Definition 1)."""
        members = list(members)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if self.independent(a, b):
                    return False
        return True

    def sort_chain(self, members: Iterable[Element]) -> List[Element]:
        """Return chain members in increasing order."""
        members = list(members)
        masks = self._masks
        index = self._index
        member_bits = [index[e] for e in members]
        ranks = {
            e: sum(1 for m in member_bits if masks[m] >> index[e] & 1)
            for e in members
        }
        return sorted(members, key=ranks.__getitem__)


@dataclass
class ChainDecomposition:
    """A partition of a partial order into chains (Definition 2).

    Produced by :func:`minimum_chain_decomposition`; ``chains`` are each
    sorted in increasing order.  The decomposition is minimal, so
    ``len(chains)`` is the worst-case resource requirement (Theorem 1).
    """

    order: PartialOrder
    chains: List[List[Element]]
    #: the matching that produced the decomposition (element -> successor).
    successor: Dict[Element, Element] = field(default_factory=dict)

    @classmethod
    def from_successors(
        cls, order: PartialOrder, successor: Mapping[Element, Element]
    ) -> "ChainDecomposition":
        """Follow matched successor links from every chain head."""
        has_predecessor: Set[Element] = set(successor.values())
        chains: List[List[Element]] = []
        for element in order.elements:
            if element in has_predecessor:
                continue
            chain = [element]
            while chain[-1] in successor:
                chain.append(successor[chain[-1]])
            chains.append(chain)
        return cls(order, chains, successor=dict(successor))

    @property
    def width(self) -> int:
        return len(self.chains)

    def chain_index(self) -> Dict[Element, int]:
        return {
            element: index
            for index, chain in enumerate(self.chains)
            for element in chain
        }

    def validate(self) -> None:
        """Chains must partition the elements and each be a chain."""
        seen: Set[Element] = set()
        for chain in self.chains:
            if not chain:
                raise PartialOrderError("empty chain in decomposition")
            if not self.order.is_chain(chain):
                raise PartialOrderError(f"not a chain: {chain!r}")
            overlap = seen & set(chain)
            if overlap:
                raise PartialOrderError(f"elements in two chains: {overlap!r}")
            seen.update(chain)
        if seen != set(self.order.elements):
            raise PartialOrderError("decomposition does not cover all elements")


def minimum_chain_decomposition(
    order: PartialOrder,
    levels: Optional[Mapping[Element, int]] = None,
) -> ChainDecomposition:
    """Minimum chain decomposition via maximum bipartite matching [FoF65].

    The bipartite graph has one left and one right copy of every element
    and an edge for every related pair; a maximum matching of size ``m``
    yields ``n - m`` chains by following matched successor links.

    ``levels`` (hammock nesting depth per element) enables the paper's
    hammock-aware insertion order, which makes the decomposition minimal
    for nested hammocks as well as the whole DAG: edges are inserted in
    batches of increasing priority ``abs(level(a) - level(b))``, formed
    by mask intersection.  Without ``levels`` every edge goes in one
    batch.
    """
    match = _bitset_match(order, levels)
    obs.count("dilworth.decompositions")
    obs.count("dilworth.matched_pairs", len(match))
    return ChainDecomposition.from_successors(order, match)


def _bitset_match(
    order: PartialOrder,
    levels: Optional[Mapping[Element, int]],
) -> Dict[Element, Element]:
    """Mask-native priority-batched Kuhn matching; no ``levels`` puts
    every element on one level, so every row lands in batch 0."""
    n = len(order.elements)
    elements = order.elements
    masks = order.masks
    matcher = bitset.BitsetKuhn(n)
    # Batch p selects, per left, the successors whose level differs by
    # exactly p — two dict lookups and one AND per left per batch.
    level_of = [0] * n if levels is None else [levels[e] for e in elements]
    buckets: Dict[int, int] = {}
    for i, lvl in enumerate(level_of):
        buckets[lvl] = buckets.get(lvl, 0) | (1 << i)
    if buckets:
        span = max(buckets) - min(buckets)
        # Lefts with successor bits not yet emitted, ascending (the
        # batch row order the Kuhn replica relies on); each batch
        # subtracts what it emitted so exhausted lefts drop out.
        pending = [(i, masks[i]) for i in range(n) if masks[i]]
        for p in range(span + 1):
            # selector depends only on the left's level: resolve the
            # two bucket lookups once per level, not once per left.
            if p == 0:
                selector_at = dict(buckets)
            else:
                selector_at = {
                    lvl: buckets.get(lvl - p, 0) | buckets.get(lvl + p, 0)
                    for lvl in buckets
                }
            rows: List[Tuple[int, int]] = []
            remaining: List[Tuple[int, int]] = []
            for i, mask in pending:
                row = mask & selector_at[level_of[i]]
                if row:
                    rows.append((i, row))
                    mask &= ~row
                    if not mask:
                        continue
                remaining.append((i, mask))
            pending = remaining
            if rows:
                matcher.add_batch(rows)
            if not pending:
                break
    return {
        elements[i]: elements[j]
        for i, j in enumerate(matcher.match_left)
        if j >= 0
    }


def _inverse(match_left: Sequence[int]) -> List[int]:
    """The right -> left index array of a left -> right matching."""
    match_right = [-1] * len(match_left)
    for i, j in enumerate(match_left):
        if j >= 0:
            match_right[j] = i
    return match_right


def maximum_antichain(order: PartialOrder) -> Set[Element]:
    """An antichain of maximum size, via König's theorem.

    By Dilworth, its size equals the width returned by
    :func:`minimum_chain_decomposition`.  The antichain is a deterministic
    function of the order, whichever maximum matching König's
    construction starts from (see :func:`bitset.koenig_cover_masks`);
    the allocator's fallback candidates are built from its members.
    """
    n = len(order.elements)
    masks = order.masks
    _, match_left = width_matching(masks)
    visited_left, visited_right = bitset.koenig_cover_masks(
        n, masks, match_left, _inverse(match_left)
    )
    return {
        element
        for i, element in enumerate(order.elements)
        # In the cover: matched-and-unvisited lefts, visited rights.
        if not (match_left[i] >= 0 and not (visited_left >> i) & 1)
        and not (visited_right >> i & 1)
    }


def width(order: PartialOrder) -> int:
    """The width (maximum antichain size) of the partial order."""
    return width_matching(order.masks)[0]


def greedy_matching(
    masks: Sequence[int], start: Optional[Sequence[int]] = None
) -> Tuple[int, List[int]]:
    """A maximal matching of the relation with successor ``masks``.

    Starting from ``start`` (a valid matching as an index array, -1 =
    unmatched; empty when omitted), each unmatched left, in index
    order, takes its lowest free right bit — no augmenting paths.
    Returns ``(size, match_left)``.  Any matching of size ``m`` links
    the ``n`` elements into ``n - m`` chains, so ``n - size`` bounds
    the width from above (Dilworth).
    """
    match_left = [-1] * len(masks) if start is None else list(start)
    taken = 0
    for j in match_left:
        if j >= 0:
            taken |= 1 << j
    size = bitset.popcount(taken)
    for i, mask in enumerate(masks):
        if match_left[i] < 0:
            free = mask & ~taken
            if free:
                low = free & -free
                taken |= low
                match_left[i] = low.bit_length() - 1
                size += 1
    return size, match_left


def width_bounds(masks: Sequence[int]) -> Tuple[int, int, List[int]]:
    """``(lower, upper, greedy)``: two Dilworth bounds on the width of
    the relation with successor ``masks``, and the matching behind the
    upper one.

    ``upper`` is ``n`` minus the size of :func:`greedy_matching` (a
    chain cover).  ``lower`` is the larger of two antichains' sizes: the
    minimal elements (no bit of theirs is set in any mask) and the
    maximal ones (empty mask).  No augmenting path is searched.
    """
    n = len(masks)
    size, greedy = greedy_matching(masks)
    above_some = 0
    maximal = 0
    for mask in masks:
        above_some |= mask
        if not mask:
            maximal += 1
    lower = max(n - bitset.popcount(above_some), maximal)
    return lower, n - size, greedy


def width_matching(
    masks: Sequence[int], start: Optional[Sequence[int]] = None
) -> Tuple[int, List[int]]:
    """The width of the relation with successor ``masks``, and the
    maximum matching that proves it.

    The width is ``n`` minus the size of a maximum matching, found by
    Kuhn's augmenting DFS: every maximum matching has the same size, and
    on the reuse orders the allocator measures Kuhn beats Hopcroft–Karp's
    layered phases.  ``start``, a valid matching (index array, -1 =
    unmatched), warm-starts it: Kuhn's algorithm started from any valid
    matching ends at a maximum one, and only the lefts ``start`` leaves
    unmatched are augmented from.  The returned matching is an index
    array in the same form.
    """
    n = len(masks)
    match_left = [-1] * n if start is None else start
    matcher = bitset.BitsetKuhn.from_state(
        masks, match_left, _inverse(match_left)
    )
    matcher.maximize()
    return n - matcher.size, matcher.match_left


def transitive_reduction(order: PartialOrder) -> List[Tuple[Element, Element]]:
    """The covering pairs of the order (Definition 4's Reuse DAG edges).

    A pair (a, b) is kept iff there is no c with a < c < b — the paper
    removes transitive edges from the Reuse DAG for presentation and for
    the head/tail trimming; the matching itself uses all pairs.
    """
    masks = order.masks
    elements = order.elements
    covers: List[Tuple[Element, Element]] = []
    for i, a in enumerate(elements):
        greater = masks[i]
        if not greater:
            continue
        # b is covered iff some c in greater has b above it; irreflexivity
        # makes including b itself in the union harmless.
        indirect = 0
        for j in bitset.iter_bits(greater):
            indirect |= masks[j]
        for j in bitset.iter_bits(greater & ~indirect):
            covers.append((a, elements[j]))
    return covers


def closure_from_dag_pairs(
    elements: Iterable[Element],
    covers: Iterable[Tuple[Element, Element]],
) -> PartialOrder:
    """Build the transitive closure of a covering (DAG-edge) relation."""
    element_list = list(elements)
    index = {e: i for i, e in enumerate(element_list)}
    succ_masks = [0] * len(element_list)
    adjacency: Dict[int, List[int]] = {i: [] for i in range(len(element_list))}
    indegree = [0] * len(element_list)
    for a, b in covers:
        adjacency[index[a]].append(index[b])
        indegree[index[b]] += 1

    # Kahn topological order, then reverse DP with bitmasks.
    from collections import deque

    queue = deque(i for i, d in enumerate(indegree) if d == 0)
    topo: List[int] = []
    indegree_work = list(indegree)
    while queue:
        i = queue.popleft()
        topo.append(i)
        for j in adjacency[i]:
            indegree_work[j] -= 1
            if indegree_work[j] == 0:
                queue.append(j)
    if len(topo) != len(element_list):
        raise PartialOrderError("covering relation contains a cycle")
    for i in reversed(topo):
        mask = 0
        for j in adjacency[i]:
            mask |= succ_masks[j] | (1 << j)
        succ_masks[i] = mask
    return PartialOrder.from_masks(element_list, succ_masks)
