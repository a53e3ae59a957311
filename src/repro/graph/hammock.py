"""Hammock (single-entry single-exit region) analysis of dependence DAGs.

URSA localizes excessive resource requirements to hammocks: regions with
one entry node dominating the region and one exit node postdominating it,
so transformations never need to look outside the region (§3.1).  Because
the DAG is given a virtual root and leaf, the whole DAG is itself a
hammock.

The hammock nesting structure also drives the paper's modified bipartite
matching: edges are prioritized by the difference in hammock nesting
level between their endpoints, making the resulting chain decomposition
minimal for every nested hammock, not just the whole DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro import obs
from repro.graph.dag import DependenceDAG


@dataclass(frozen=True)
class Hammock:
    """A single-entry single-exit region of the DAG.

    ``entry`` dominates every node in ``nodes`` and ``exit``
    postdominates every node in ``nodes``; both endpoints are included.
    """

    entry: int
    exit: int
    nodes: FrozenSet[int]

    def __len__(self) -> int:
        return len(self.nodes)

    def contains(self, uid: int) -> bool:
        return uid in self.nodes

    def interior(self) -> FrozenSet[int]:
        """Nodes strictly inside the hammock."""
        return self.nodes - {self.entry, self.exit}


def _dominator_masks(
    order: List[int],
    index: Dict[int, int],
    preds: Callable[[int], Iterable[int]],
    root: int,
) -> Dict[int, int]:
    """Dominator sets as bitmasks, exact in one topological pass on a DAG:
    ``Dom(n) = {n} ∪ ⋂ Dom(p) over predecessors p``."""
    full = (1 << len(order)) - 1
    dom: Dict[int, int] = {}
    for uid in order:
        if uid == root:
            dom[uid] = 1 << index[uid]
            continue
        mask = full
        for p in preds(uid):
            mask &= dom[p]
        dom[uid] = mask | (1 << index[uid])
    return dom


class HammockAnalysis:
    """Dominators, postdominators, hammock enumeration and nesting levels."""

    def __init__(self, dag: DependenceDAG) -> None:
        self.dag = dag
        self.order = dag.topological_order()
        self.index = {uid: i for i, uid in enumerate(self.order)}
        self.dom = _dominator_masks(
            self.order, self.index, dag.preds, dag.entry
        )
        self.pdom = _dominator_masks(
            list(reversed(self.order)), self.index, dag.succs, dag.exit
        )
        self._hammocks: Optional[List[Hammock]] = None
        self._levels: Optional[Dict[int, int]] = None

    @classmethod
    def of(cls, dag: DependenceDAG) -> "HammockAnalysis":
        """The analysis for ``dag`` at its current version, memoized on
        the DAG (:meth:`DependenceDAG.derived`).  The analysis is a pure
        function of the graph's structure, so re-measurement loops
        (driver iterations, trial scoring) reuse it for free until an
        edit bumps the version."""
        return dag.derived("hammocks", lambda: cls(dag))

    # ------------------------------------------------------------------
    def dominates(self, a: int, b: int) -> bool:
        """True when every path ENTRY -> b passes through a."""
        return bool(self.dom[b] >> self.index[a] & 1)

    def postdominates(self, a: int, b: int) -> bool:
        """True when every path b -> EXIT passes through a."""
        return bool(self.pdom[b] >> self.index[a] & 1)

    # ------------------------------------------------------------------
    def hammocks(self) -> List[Hammock]:
        """All hammocks (u, v) with u ≠ v, u dom v, v pdom u, sorted
        outermost (largest) first.  Includes the whole-DAG hammock."""
        if self._hammocks is not None:
            return self._hammocks

        n = len(self.order)
        order = self.order
        index = self.index
        # dominated_by[i]: nodes whose dominator set contains order[i] —
        # the subtree of order[i] in the dominator tree.  Dominators of a
        # node are totally ordered and topologically before it, so the
        # immediate dominator is the highest remaining bit of its dom
        # mask and a reverse-topo pass folds each subtree into its
        # parent with one OR per node (instead of scattering every bit
        # of every dom set).  Postdominators mirror this forwards.
        dominated_by = [1 << i for i in range(n)]
        postdominated_by = [1 << i for i in range(n)]
        root_i = index[self.dag.entry]
        for i in range(n - 1, -1, -1):
            if i == root_i:
                continue
            rest = self.dom[order[i]] ^ (1 << i)
            if rest:
                dominated_by[rest.bit_length() - 1] |= dominated_by[i]
        exit_i = index[self.dag.exit]
        for i in range(n):
            if i == exit_i:
                continue
            rest = self.pdom[order[i]] ^ (1 << i)
            if rest:
                low = rest & -rest
                postdominated_by[low.bit_length() - 1] |= postdominated_by[i]

        found: List[Hammock] = []
        for u in order:
            iu = index[u]
            # v is a hammock exit for entry u iff u dominates v (v in
            # u's dominator subtree) and v postdominates u.
            candidates = dominated_by[iu] & self.pdom[u] & ~(1 << iu)
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                iv = low.bit_length() - 1
                region_mask = dominated_by[iu] & postdominated_by[iv]
                nodes = frozenset(
                    order[i] for i in _bits(region_mask)
                )
                if len(nodes) >= 2:
                    found.append(Hammock(u, order[iv], nodes))
        found.sort(key=lambda h: (-len(h.nodes), self.index[h.entry]))
        self._hammocks = found
        obs.count("hammock.enumerations")
        obs.count("hammock.regions", len(found))
        return found

    def nesting_levels(self) -> Dict[int, int]:
        """Number of hammocks containing each node (more = deeper)."""
        if self._levels is not None:
            return self._levels
        levels = {u: 0 for u in self.order}
        for hammock in self.hammocks():
            for uid in hammock.nodes:
                levels[uid] += 1
        self._levels = levels
        obs.peak("hammock.nesting_peak", max(levels.values(), default=0))
        return levels

    def edge_priority(self, a: int, b: int) -> int:
        """The paper's matching priority: difference in nesting level
        between source and sink (0 = same level = highest priority)."""
        levels = self.nesting_levels()
        return abs(levels[a] - levels[b])

    def innermost_hammock_containing(self, nodes: Iterable[int]) -> Hammock:
        """Smallest hammock whose region covers all of ``nodes``."""
        node_set = set(nodes)
        best: Optional[Hammock] = None
        for hammock in self.hammocks():
            if node_set <= hammock.nodes:
                if best is None or len(hammock.nodes) < len(best.nodes):
                    best = hammock
        if best is None:
            # The whole DAG is always a hammock; reaching here means the
            # node set includes something outside the graph.
            raise ValueError(f"no hammock contains {sorted(node_set)}")
        return best


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
