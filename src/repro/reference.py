"""Dict-of-sets reference kernels: the oracle for the measurement core.

The production measurement path (:mod:`repro.graph.bitset` under
:mod:`repro.graph.dilworth`, :mod:`repro.core.reuse` and
:mod:`repro.core.kill`) runs on packed int bitmasks.  This module keeps
the original dict-of-sets formulation of each of those kernels, plus a
:func:`measure_all` that chains them as
:func:`repro.core.measure.measure_all` chains the bitset ones.  Both must
be *bit-identical* — the same matchings, chains, antichains, relations
and kill choices, not merely results of equal size.
``tests/test_bitset_kernels.py`` fuzzes that claim and
``benchmarks/bench_measurement_scaling.py`` times this module as its
baseline.  Production code never imports it (lint rule C004): it is an
oracle, not a second engine.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional,
    Sequence, Set, Tuple,
)

from repro import obs
from repro.core.kill import (
    EXACT_COVER_LIMIT, EXACT_COVER_NODE_BUDGET, KillAssignment,
)
from repro.core.measure import ResourceKind, ResourceRequirement
from repro.core.reuse import ValueInfo, collect_values, fu_elements
from repro.graph.dag import DependenceDAG
from repro.graph.dilworth import ChainDecomposition, PartialOrder
from repro.graph.hammock import HammockAnalysis
from repro.machine.model import MachineModel
from repro.resilience import budgets

Node = Element = Hashable
Edge = Tuple[Node, Node]


# ======================================================================
# Bipartite matching.  Ford and Fulkerson: a minimum chain decomposition
# is a maximum bipartite matching on the relation's pairs [FoF65]; URSA
# inserts edges in hammock-priority batches so it stays minimal for
# every nested hammock (§3.1).
# ======================================================================
def _matching_degraded(site: str) -> None:
    """Record that a matcher stopped early on the active deadline.

    A non-maximum matching yields *more* chains in the decomposition,
    so downstream the requirement is overestimated — the conservative
    direction; and the antichains König's construction extracts may be
    impure, but every transform candidate re-validates its edges.
    """
    obs.count("resilience.matching_degraded")
    obs.event("resilience.degraded", site=site)


class PrioritizedMatcher:
    """Maximum bipartite matching with priority-batched edge insertion.

    Left and right vertex sets are implicit (any hashable).  Call
    :meth:`add_edges` for each priority batch, from highest priority to
    lowest; after all batches the matching is maximum over all edges, and
    among maximum matchings it prefers earlier-batch edges in the
    exchange-argument sense the paper relies on: an augmenting pass never
    unmatches a vertex, so chains linked by high-priority (intra-hammock)
    edges persist.
    """

    def __init__(self) -> None:
        self.adjacency: Dict[Node, List[Node]] = {}
        #: left -> right matches.
        self.match_left: Dict[Node, Node] = {}
        #: right -> left matches.
        self.match_right: Dict[Node, Node] = {}
        #: still-unmatched lefts in first-appearance order (augmentation
        #: never unmatches, so a matched left never needs another pass).
        self._pending: Dict[Node, None] = {}
        self._seen: Set[Node] = set()

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Add a batch of edges and re-maximize; returns augment count."""
        for left, right in edges:
            self.adjacency.setdefault(left, []).append(right)
            if left not in self._seen:
                self._seen.add(left)
                if left not in self.match_left:
                    self._pending[left] = None
        return self.maximize()

    def maximize(self) -> int:
        """Augment from the still-unmatched lefts (every one of them:
        any new edge can open an alternating path to any unmatched left,
        but matched lefts can never gain, so they are skipped outright
        instead of rescanned per batch).

        Under an expired deadline the loop stops early and the current
        (possibly non-maximum) matching stands — see
        :func:`_matching_degraded` for why that is safe.
        """
        if len(self.adjacency) != len(self._seen):
            # Adjacency was seeded directly (warm-start callers bypass
            # add_edges); adopt the unseen lefts in insertion order.
            for left in self.adjacency:
                if left not in self._seen:
                    self._seen.add(left)
                    if left not in self.match_left:
                        self._pending[left] = None
        gained = 0
        deadline = budgets.active_deadline()
        degraded = False
        still: Dict[Node, None] = {}
        for left in self._pending:
            if left in self.match_left:
                continue
            if degraded or (deadline is not None and deadline.tick()):
                if not degraded:
                    _matching_degraded("matching.maximize")
                    degraded = True
                still[left] = None
                continue
            if self._augment(left, set()):
                gained += 1
            else:
                still[left] = None
        self._pending = still
        obs.count("matching.augmenting_paths", gained)
        return gained

    def _augment(self, left: Node, visited: Set[Node]) -> bool:
        """Iterative Kuhn augmenting path from an unmatched left vertex."""
        # Depth-first search over alternating paths, iterative to avoid
        # recursion limits on long chains.
        stack: List[Tuple[Node, Iterable[Node]]] = [
            (left, iter(self.adjacency.get(left, ())))
        ]
        parent: Dict[Node, Node] = {}  # right -> left that reached it
        while stack:
            current_left, successors = stack[-1]
            advanced = False
            for right in successors:
                if right in visited:
                    continue
                visited.add(right)
                parent[right] = current_left
                owner = self.match_right.get(right)
                if owner is None:
                    # Found an augmenting path; flip it.
                    node = right
                    while node is not None:
                        prev_left = parent[node]
                        next_right = self.match_left.get(prev_left)
                        self.match_left[prev_left] = node
                        self.match_right[node] = prev_left
                        node = next_right
                    return True
                stack.append((owner, iter(self.adjacency.get(owner, ()))))
                advanced = True
                break
            if not advanced:
                stack.pop()
        return False

    @property
    def size(self) -> int:
        return len(self.match_left)


def maximum_matching(
    edges: Sequence[Edge],
    priority: Optional[Dict[Edge, int]] = None,
) -> Dict[Node, Node]:
    """Maximum bipartite matching (left -> right).

    When ``priority`` maps edges to small-is-better batch numbers, edges
    are inserted batch by batch as in the paper's hammock-aware scheme.
    """
    matcher = PrioritizedMatcher()
    if priority is None:
        matcher.add_edges(edges)
    else:
        batches: Dict[int, List[Edge]] = {}
        for edge in edges:
            batches.setdefault(priority.get(edge, 0), []).append(edge)
        for key in sorted(batches):
            matcher.add_edges(batches[key])
    return dict(matcher.match_left)


def hopcroft_karp(
    left_nodes: Iterable[Node],
    edges: Sequence[Edge],
) -> Dict[Node, Node]:
    """Independent Hopcroft–Karp maximum matching (left -> right).

    Used by the test suite to validate :class:`PrioritizedMatcher`'s
    maximality and by callers that do not need priorities.
    """
    adjacency: Dict[Node, List[Node]] = {u: [] for u in left_nodes}
    # Deduplicate while preserving first-occurrence order: repeated
    # pairs (common when reuse relations are re-derived per class) would
    # otherwise inflate every BFS/DFS sweep.
    seen_rights: Dict[Node, Set[Node]] = {u: set() for u in adjacency}
    for u, v in edges:
        bucket = seen_rights.get(u)
        if bucket is None:
            bucket = seen_rights[u] = set()
            adjacency[u] = []
        if v not in bucket:
            bucket.add(v)
            adjacency[u].append(v)

    INF = float("inf")
    match_left: Dict[Node, Optional[Node]] = {u: None for u in adjacency}
    match_right: Dict[Node, Node] = {}
    dist: Dict[Node, float] = {}

    def bfs() -> bool:
        queue = deque()
        for u in adjacency:
            if match_left[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                owner = match_right.get(v)
                if owner is None:
                    found = True
                elif dist.get(owner, INF) == INF:
                    dist[owner] = dist[u] + 1
                    queue.append(owner)
        return found

    def dfs(u: Node) -> bool:
        for v in adjacency[u]:
            owner = match_right.get(v)
            if owner is None or (dist.get(owner) == dist[u] + 1 and dfs(owner)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = INF
        return False

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * (len(adjacency) + 16)))
    deadline = budgets.active_deadline()
    try:
        while bfs():
            if deadline is not None and deadline.tick():
                _matching_degraded("matching.hopcroft_karp")
                break
            for u in adjacency:
                if match_left[u] is None:
                    dfs(u)
    finally:
        sys.setrecursionlimit(old_limit)
    matched = {u: v for u, v in match_left.items() if v is not None}
    obs.count("matching.hk_calls")
    obs.peak("matching.size_peak", len(matched))
    return matched


def minimum_vertex_cover(
    left_nodes: Iterable[Node],
    right_nodes: Iterable[Node],
    edges: Sequence[Edge],
    matching: Dict[Node, Node],
) -> Tuple[Set[Node], Set[Node]]:
    """König's construction of a minimum vertex cover from a maximum
    matching.

    Returns ``(cover_left, cover_right)``.  Used to extract maximum
    antichains (independent sets) for Dilworth's theorem.
    """
    adjacency: Dict[Node, List[Node]] = {u: [] for u in left_nodes}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
    match_right: Dict[Node, Node] = {v: u for u, v in matching.items()}

    visited_left: Set[Node] = set()
    visited_right: Set[Node] = set()
    queue = deque(u for u in adjacency if u not in matching)
    visited_left.update(queue)
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if matching.get(u) == v:
                continue  # only non-matching edges left -> right
            if v in visited_right:
                continue
            visited_right.add(v)
            owner = match_right.get(v)
            if owner is not None and owner not in visited_left:
                visited_left.add(owner)
                queue.append(owner)

    cover_left = {u for u in adjacency if u not in visited_left and u in matching}
    cover_right = set(visited_right)
    return cover_left, cover_right


# ======================================================================
# Dilworth: decompositions, antichains, width.
# ======================================================================
def minimum_chain_decomposition(
    order: PartialOrder,
    priority: Optional[Callable[[Element, Element], int]] = None,
    levels: Optional[Mapping[Element, int]] = None,
) -> ChainDecomposition:
    """The dict-of-sets counterpart of
    :func:`repro.graph.dilworth.minimum_chain_decomposition`."""
    if priority is not None and levels is not None:
        raise ValueError("pass either priority or levels, not both")
    if priority is None and levels is not None:
        priority = lambda a, b: abs(levels[a] - levels[b])  # noqa: E731
    pairs = order.pairs()
    if priority is None:
        match = maximum_matching(pairs)
    else:
        matcher = PrioritizedMatcher()
        batches: Dict[int, List[Tuple[Element, Element]]] = {}
        for a, b in pairs:
            batches.setdefault(priority(a, b), []).append((a, b))
        for key in sorted(batches):
            matcher.add_edges(batches[key])
        match = dict(matcher.match_left)
    return ChainDecomposition.from_successors(order, match)


def maximum_antichain(order: PartialOrder) -> Set[Element]:
    """An antichain of maximum size, via König's theorem."""
    pairs = order.pairs()
    matching = hopcroft_karp(order.elements, pairs)
    cover_left, cover_right = minimum_vertex_cover(
        order.elements, order.elements, pairs, matching
    )
    return {
        element
        for element in order.elements
        if element not in cover_left and element not in cover_right
    }


def width(order: PartialOrder) -> int:
    """The width (maximum antichain size) of the partial order."""
    matching = hopcroft_karp(order.elements, order.pairs())
    return len(order.elements) - len(matching)


# ======================================================================
# Reuse relations.
# ======================================================================
def can_reuse_fu(dag: DependenceDAG, elements: List[int]) -> PartialOrder:
    """``CanReuse_FU``, one descendant-set expansion per element."""
    element_set = set(elements)
    pairs = []
    for a in elements:
        for b in sorted(dag.descendants(a)):
            if b in element_set:
                pairs.append((a, b))
    return PartialOrder.from_pairs(elements, pairs)


def can_reuse_registers_sound(
    dag: DependenceDAG,
    values: List[ValueInfo],
) -> PartialOrder:
    """The every-maximal-use ``CanReuse_Reg``, per value."""
    names = [v.name for v in values]
    def_of = {v.name: v.def_uid for v in values}
    pairs: List[Tuple[str, str]] = []
    for u in values:
        uses = list(u.use_uids)
        maximal = [
            m
            for m in uses
            if not any(other != m and dag.reaches(m, other) for other in uses)
        ]
        if not maximal:
            # Dead value: free as soon as it is written.
            reachable = dag.descendants(u.def_uid)
            for w in values:
                if w.name != u.name and def_of[w.name] in reachable:
                    pairs.append((u.name, w.name))
            continue
        if dag.exit in maximal:
            continue  # live-out: never reusable
        for w in values:
            if w.name == u.name:
                continue
            dw = def_of[w.name]
            if all(m == dw or dag.reaches(m, dw) for m in maximal):
                pairs.append((u.name, w.name))
    return PartialOrder.from_pairs(names, pairs)


def can_reuse_registers(
    dag: DependenceDAG,
    values: List[ValueInfo],
    kill: Mapping[str, int],
) -> PartialOrder:
    """``CanReuse_Reg`` under a ``Kill`` assignment, per value."""
    names = [v.name for v in values]
    def_of = {v.name: v.def_uid for v in values}
    pairs: List[Tuple[str, str]] = []
    for u in values:
        killer = kill[u.name]
        if killer == u.def_uid:
            reachable = dag.descendants(u.def_uid)
            for w in values:
                if w.name != u.name and def_of[w.name] in reachable:
                    pairs.append((u.name, w.name))
            continue
        reachable = dag.descendants(killer)
        for w in values:
            if w.name == u.name:
                continue
            dw = def_of[w.name]
            if dw == killer or dw in reachable:
                pairs.append((u.name, w.name))
    return PartialOrder.from_pairs(names, pairs)


# ======================================================================
# Kill() selection.
# ======================================================================
def candidate_killers(dag: DependenceDAG, value: ValueInfo) -> List[int]:
    """Maximal uses of ``value``, by pairwise reachability."""
    uses = list(value.use_uids)
    if len(uses) <= 1:
        return uses
    maximal = [
        u
        for u in uses
        if not any(other != u and dag.reaches(u, other) for other in uses)
    ]
    return sorted(maximal)


def select_kill(
    dag: DependenceDAG,
    values: Sequence[ValueInfo],
    exact_limit: int = EXACT_COVER_LIMIT,
) -> KillAssignment:
    """The frozenset counterpart of :func:`repro.core.kill.select_kill`."""
    kill: Dict[str, int] = {}
    contested: Dict[str, List[int]] = {}
    for value in values:
        if value.is_dead:
            kill[value.name] = value.def_uid
            continue
        candidates = candidate_killers(dag, value)
        if len(candidates) == 1:
            kill[value.name] = candidates[0]
        else:
            contested[value.name] = candidates
    if not contested:
        return KillAssignment(kill, frozenset(), exact=True)

    universe = sorted(contested)
    candidate_nodes = sorted({c for cands in contested.values() for c in cands})
    covers: Dict[int, FrozenSet[str]] = {
        node: frozenset(name for name in universe if node in contested[name])
        for node in candidate_nodes
    }
    if len(candidate_nodes) <= exact_limit:
        chosen, exact = _exact_cover_sets(universe, candidate_nodes, covers)
    else:
        chosen, exact = _greedy_cover_sets(universe, candidate_nodes, covers), False

    chosen_set = set(chosen)
    depth = dag.asap()
    for name in universe:
        picks = [c for c in contested[name] if c in chosen_set]
        picks.sort(key=lambda uid: (depth.get(uid, 0), uid))
        kill[name] = picks[-1]
    return KillAssignment(kill, frozenset(universe), exact)


def _greedy_cover_sets(
    universe: List[str],
    nodes: List[int],
    covers: Mapping[int, FrozenSet[str]],
) -> List[int]:
    """Greedy set cover: largest gain, then the smallest node id."""
    uncovered: Set[str] = set(universe)
    chosen: List[int] = []
    while uncovered:
        best = max(nodes, key=lambda n: (len(covers[n] & uncovered), -n))
        gain = covers[best] & uncovered
        if not gain:  # pragma: no cover - every value has >= 1 candidate
            raise AssertionError("uncoverable value in kill selection")
        chosen.append(best)
        uncovered -= gain
    return chosen


def _exact_cover_sets(
    universe: List[str],
    nodes: List[int],
    covers: Mapping[int, FrozenSet[str]],
    node_budget: int = EXACT_COVER_NODE_BUDGET,
) -> Tuple[List[int], bool]:
    """Frozenset branch-and-bound cover plus a completed-search flag."""
    best_solution = _greedy_cover_sets(universe, nodes, covers)
    best_size = len(best_solution)
    universe_set = frozenset(universe)

    ordered = sorted(nodes, key=lambda n: -len(covers[n]))
    max_cover = max((len(covers[n]) for n in ordered), default=1)

    deadline = budgets.active_deadline()
    explored = 0
    truncated = False

    def search(index: int, chosen: List[int], covered: FrozenSet[str]) -> None:
        nonlocal best_solution, best_size, explored, truncated
        if truncated:
            return
        explored += 1
        if explored > node_budget or (
            deadline is not None
            and explored % 256 == 0
            and deadline.expired()
        ):
            truncated = True
            return
        if covered == universe_set:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_solution = list(chosen)
            return
        if index >= len(ordered) or len(chosen) >= best_size - 1:
            return
        remaining = len(universe_set - covered)
        if len(chosen) + (remaining + max_cover - 1) // max_cover >= best_size:
            return
        node = ordered[index]
        gain = covers[node] - covered
        if gain:
            chosen.append(node)
            search(index + 1, chosen, covered | gain)
            chosen.pop()
        search(index + 1, chosen, covered)

    search(0, [], frozenset())
    return best_solution, not truncated


# ======================================================================
# The whole measurement step.
# ======================================================================
def measure_all(
    dag: DependenceDAG, machine: MachineModel
) -> List[ResourceRequirement]:
    """Every FU and register requirement, from the reference kernels, in
    the order :func:`repro.core.measure.measure_all` produces them."""
    levels = HammockAnalysis.of(dag).nesting_levels()
    results = []
    for fu in machine.fu_classes:
        elements = fu_elements(dag, machine, fu.name)
        order = can_reuse_fu(dag, elements)
        results.append(ResourceRequirement(
            kind=ResourceKind.FUNCTIONAL_UNIT,
            cls=fu.name,
            available=fu.count,
            order=order,
            decomposition=minimum_chain_decomposition(order, levels=levels),
            element_node={uid: uid for uid in elements},
        ))
    all_values = collect_values(dag, machine)
    for reg_class in sorted(machine.registers):
        values = [v for v in all_values if v.reg_class == reg_class]
        kill = select_kill(dag, values)
        order = can_reuse_registers(dag, values, kill.kill)
        element_node = {v.name: v.def_uid for v in values}
        value_levels = {name: levels[uid] for name, uid in element_node.items()}
        results.append(ResourceRequirement(
            kind=ResourceKind.REGISTER,
            cls=reg_class,
            available=machine.registers[reg_class],
            order=order,
            decomposition=minimum_chain_decomposition(order, levels=value_levels),
            element_node=element_node,
            kill=kill,
            values={v.name: v for v in values},
        ))
    return results
