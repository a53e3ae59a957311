"""Selecting the ``Kill()`` function for register measurement (§3.2).

For each value, ``Kill`` names the use assumed to execute last — the one
that frees the register.  The measurement wants the *worst case* over
schedules, i.e. the choice that maximizes how many dependents can be
live simultaneously with their ancestors.  The paper (Theorem 2) shows
the optimal choice reduces to Minimum Cover and is NP-complete, and
prescribes finding a minimum-sized set of descendants that kill all of
their ancestors.

We implement that with an exact branch-and-bound for small instances and
the classical greedy set-cover heuristic beyond that, plus the two easy
cases: a value with no uses is killed by its own definition, and a value
whose maximal uses are unique has a forced killer.

The cover search runs on packed int bitmasks (one bit per contested
value) shared with the rest of the measurement core.  The frozenset
originals live on in :mod:`repro.reference`; both make byte-identical
choices — the greedy tie-break (largest gain, then smallest node) and
the branch-and-bound order, bounds, and budgets are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.core.reuse import ValueInfo
from repro.graph import bitset
from repro.graph.dag import DependenceDAG
from repro.resilience import budgets, chaos

#: Instances with at most this many candidate killers are solved exactly.
EXACT_COVER_LIMIT = 14

#: Hard cap on branch-and-bound search-tree nodes.  The search is seeded
#: with the greedy solution, so hitting the cap degrades gracefully to a
#: greedy-or-better cover instead of hanging on a pathological trace.
EXACT_COVER_NODE_BUDGET = 50_000


@dataclass
class KillAssignment:
    """The chosen killer node per value, plus provenance for reporting."""

    kill: Dict[str, int]
    #: values whose killer required the minimum-cover computation.
    contested: FrozenSet[str] = frozenset()
    exact: bool = True

    def __getitem__(self, name: str) -> int:
        return self.kill[name]

    def keys(self):
        return self.kill.keys()

    def items(self):
        return self.kill.items()


def candidate_killers(dag: DependenceDAG, value: ValueInfo) -> List[int]:
    """Uses of ``value`` that can execute last in some schedule.

    A use that reaches another use of the same value always executes
    before it, so only *maximal* uses qualify.
    """
    uses = list(value.use_uids)
    if len(uses) <= 1:
        # Zero or one use: trivially maximal, no reachability needed
        # (callers probe values whose uses may not even be in this DAG).
        return uses
    desc, node_index, _ = dag.closure_masks()
    use_mask = 0
    for u in uses:
        use_mask |= 1 << node_index[u]
    return sorted(u for u in uses if not (desc[u] & use_mask))


def select_kill(
    dag: DependenceDAG,
    values: Sequence[ValueInfo],
    exact_limit: int = EXACT_COVER_LIMIT,
) -> KillAssignment:
    """Choose ``Kill`` for every value, per the paper's minimum-cover rule.

    Values with zero or one candidate killer are resolved directly.  The
    remaining (``contested``) values form a set-cover instance: pick the
    minimum number of killer nodes such that every contested value has
    one of its candidates picked; sharing killers maximizes how many
    sibling dependents stay live together (as in the paper's {B, C, E, F}
    example, where choosing F to kill both B and C leaves E live with
    them).
    """
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

    obs.count("kill.selections")
    if not contested:
        chaos.corrupt_kill(dag, values, kill)
        return KillAssignment(kill, frozenset(), exact=True)
    obs.count("kill.contested_values", len(contested))

    universe = sorted(contested)
    candidate_nodes = sorted({c for cands in contested.values() for c in cands})
    value_bit = {name: i for i, name in enumerate(universe)}
    cover_masks = {node: 0 for node in candidate_nodes}
    for name, cands in contested.items():
        bit = 1 << value_bit[name]
        for node in cands:
            cover_masks[node] |= bit
    universe_mask = (1 << len(universe)) - 1

    if len(candidate_nodes) <= exact_limit:
        chosen, exact = _exact_cover_masks(
            universe_mask, candidate_nodes, cover_masks
        )
        if exact:
            obs.count("kill.exact_covers")
        else:
            obs.count("resilience.kill_cover_truncated")
            obs.event(
                "resilience.degraded",
                site="kill.exact_cover",
                candidates=len(candidate_nodes),
            )
    else:
        chosen = _greedy_cover_masks(universe_mask, candidate_nodes, cover_masks)
        exact = False
        obs.count("kill.greedy_covers")

    chosen_set = set(chosen)
    depth: Optional[Dict[int, int]] = None
    for name in universe:
        picks = [c for c in contested[name] if c in chosen_set]
        if len(picks) > 1:
            # Prefer the deepest chosen killer: it extends the live range
            # the furthest, which is the worst case the measurement looks
            # for.  Depths are only built when such a tie exists.
            if depth is None:
                depth = dag.asap()
            picks.sort(key=lambda uid: (depth.get(uid, 0), uid))
        kill[name] = picks[-1]

    chaos.corrupt_kill(dag, values, kill)
    return KillAssignment(kill, frozenset(universe), exact)


# ======================================================================
# Set-cover cores (bitmask).  The public ``_greedy_min_cover`` /
# ``_exact_min_cover`` wrappers keep the historical frozenset signature.
# ======================================================================
def _greedy_cover_masks(
    universe_mask: int,
    nodes: List[int],
    cover_masks: Mapping[int, int],
) -> List[int]:
    """Classical ln(n)-approximate greedy set cover on bitmasks.

    Lazy-greedy: gains only shrink as the cover grows (submodularity), so
    stale heap entries are safe upper bounds — a popped entry whose gain
    is still current is a true argmax.  The heap key ``(-gain, node)``
    reproduces the set version's tie-break exactly: largest gain first,
    then the smallest node id.
    """
    import heapq

    uncovered = universe_mask
    chosen: List[int] = []
    heap = [
        (-bitset.popcount(cover_masks[node]), node) for node in sorted(nodes)
    ]
    heapq.heapify(heap)
    while uncovered:
        if not heap:  # pragma: no cover - every value has >= 1 candidate
            raise AssertionError("uncoverable value in kill selection")
        stale_gain, node = heapq.heappop(heap)
        gain_mask = cover_masks[node] & uncovered
        gain = bitset.popcount(gain_mask)
        if -stale_gain != gain:
            if gain:
                heapq.heappush(heap, (-gain, node))
            continue
        if not gain:  # pragma: no cover - every value has >= 1 candidate
            raise AssertionError("uncoverable value in kill selection")
        chosen.append(node)
        uncovered &= ~gain_mask
    return chosen


def _exact_cover_masks(
    universe_mask: int,
    nodes: List[int],
    cover_masks: Mapping[int, int],
    node_budget: int = EXACT_COVER_NODE_BUDGET,
) -> Tuple[List[int], bool]:
    """Branch-and-bound cover plus a flag: True when the search finished
    (the result is provably minimum), False when a budget cut it short.

    Same search tree as the historical frozenset version: nodes ordered
    by descending coverage (ties by ascending id, via stable sort), the
    greedy seed as incumbent, identical bounds and budget checks.
    """
    best_solution = _greedy_cover_masks(universe_mask, nodes, cover_masks)
    best_size = len(best_solution)

    ordered = sorted(nodes, key=lambda n: -bitset.popcount(cover_masks[n]))
    max_cover = max(
        (bitset.popcount(cover_masks[n]) for n in ordered), default=1
    )

    deadline = budgets.active_deadline()
    explored = 0
    truncated = False

    def search(index: int, chosen: List[int], covered: int) -> None:
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
        if covered == universe_mask:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_solution = list(chosen)
            return
        if index >= len(ordered) or len(chosen) >= best_size - 1:
            return
        remaining = bitset.popcount(universe_mask & ~covered)
        # Lower bound: even perfect covers need ceil(remaining / max) picks.
        if len(chosen) + (remaining + max_cover - 1) // max_cover >= best_size:
            return
        node = ordered[index]
        gain = cover_masks[node] & ~covered
        if gain:
            chosen.append(node)
            search(index + 1, chosen, covered | gain)
            chosen.pop()
        search(index + 1, chosen, covered)

    search(0, [], 0)
    return best_solution, not truncated


# ======================================================================
# Frozenset-signature wrappers (kept for callers and the test suite).
# ======================================================================
def _masks_from_covers(
    universe: List[str], covers: Mapping[int, FrozenSet[str]]
) -> Tuple[int, Dict[int, int]]:
    value_bit = {name: i for i, name in enumerate(universe)}
    cover_masks = {
        node: bitset.mask_of(value_bit[name] for name in names)
        for node, names in covers.items()
    }
    return (1 << len(universe)) - 1, cover_masks


def _greedy_min_cover(
    universe: List[str],
    nodes: List[int],
    covers: Mapping[int, FrozenSet[str]],
) -> List[int]:
    """Classical ln(n)-approximate greedy set cover."""
    universe_mask, cover_masks = _masks_from_covers(universe, covers)
    return _greedy_cover_masks(universe_mask, nodes, cover_masks)


def _exact_min_cover(
    universe: List[str],
    nodes: List[int],
    covers: Mapping[int, FrozenSet[str]],
    node_budget: int = EXACT_COVER_NODE_BUDGET,
) -> List[int]:
    """Exact minimum cover by branch-and-bound on the candidate nodes.

    The search is budgeted (``node_budget`` tree nodes plus the active
    deadline); on exhaustion it returns the best cover found so far,
    which is never worse than the greedy seed.
    """
    solution, _ = _exact_min_cover_budgeted(
        universe, nodes, covers, node_budget=node_budget
    )
    return solution


def _exact_min_cover_budgeted(
    universe: List[str],
    nodes: List[int],
    covers: Mapping[int, FrozenSet[str]],
    node_budget: int = EXACT_COVER_NODE_BUDGET,
) -> Tuple[List[int], bool]:
    """Branch-and-bound cover plus a flag: True when the search finished
    (the result is provably minimum), False when a budget cut it short."""
    universe_mask, cover_masks = _masks_from_covers(universe, covers)
    return _exact_cover_masks(
        universe_mask, nodes, cover_masks, node_budget=node_budget
    )
