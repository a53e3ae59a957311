"""Packed-int bitset kernels for the measurement core (Thm. 1, §3.1).

The measurement step — reuse-order construction, Dilworth chain
decomposition, and the bipartite matchings underneath — dominates
compile time, and all of it reduces to set algebra over small universes
(DAG nodes, values).  This module is the shared engine: every set is a
Python int used as a bit vector, with one *bit index table* per universe
mapping element -> bit position (the DAG's own table lives in
``DependenceDAG.closure_masks``; partial orders carry theirs in
``PartialOrder.index``).  Union/intersection/difference become single
big-int ops that the interpreter executes 64 bits at a time, which is
where the measured ~10x over the dict-of-sets loops comes from (see
``docs/performance.md`` and ``BENCH_measurement_scaling.json``).

Two matchers are provided; each replicates, in index space, the
dict-of-sets matcher kept in :mod:`repro.reference` (the oracle the
property fuzz and the measurement benchmark compare against):

* :class:`BitsetKuhn` — priority-batched Kuhn augmentation, mirroring
  ``reference.PrioritizedMatcher`` bit for bit: same left iteration
  order, same DFS neighbour order, hence the *same matching* and the
  same chain decomposition.  Used wherever the paper's hammock-priority
  scheme is load-bearing (``core/measure.py``), and unprioritized,
  cold or warm-started, for ``dilworth.width_matching``.
* :func:`hopcroft_karp_masks` — Hopcroft–Karp with bitmask adjacency
  and batched BFS frontier masks, mirroring ``reference.hopcroft_karp``.
  The default matcher for unprioritized decompositions, and the kernel
  behind antichains via :func:`koenig_cover_masks`.

Both honour the active :mod:`repro.resilience` deadline: stopping early
leaves a valid (possibly non-maximum) matching, which overestimates
chain counts — the conservative direction.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.resilience import budgets

try:  # int.bit_count is Python >= 3.10; keep a 3.9 fallback.
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - modern interpreters
    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


def popcount(mask: int) -> int:
    """Number of set bits (elements) in ``mask``."""
    return _popcount(mask)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    """OR of ``1 << i`` over ``indices``."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _degraded(site: str) -> None:
    """An expired deadline stopped a matcher early: fewer augmenting
    passes => more chains => requirement overestimated, which is the
    conservative direction."""
    obs.count("resilience.matching_degraded")
    obs.event("resilience.degraded", site=site)


# ======================================================================
# Priority-batched Kuhn matching (reference.PrioritizedMatcher replica).
# ======================================================================
class BitsetKuhn:
    """Kuhn augmenting-path matching over bitmask adjacency, in priority
    batches.

    Works in index space: both vertex sides are ``0..n-1``.  Adjacency is
    held per left index as a *list* of batch masks in insertion order, so
    the DFS enumerates neighbours exactly as the reference
    ``PrioritizedMatcher`` walks its adjacency lists (earlier batches
    first, ascending index within a batch) — the resulting matching is
    identical, which is what keeps chain decompositions bit-identical to
    the reference.  Augmentation never unmatches a vertex, so edges
    matched in high-priority (intra-hammock) batches persist.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        #: batch-mask lists, allocated lazily (None = no edges yet; the
        #: DFS only ever indexes lefts that have edges).
        self._adj: List[Optional[List[int]]] = [None] * n
        #: OR of all batch masks per left — dead-end pruning in the DFS.
        self._full: List[int] = [0] * n
        #: True once some left holds more than one batch mask; until
        #: then the single-mask DFS specialization applies.
        self._multi = False
        self._seen = 0
        #: lefts with edges, still unmatched, in first-appearance order.
        self._unmatched: List[int] = []
        #: left index -> matched right index, -1 when unmatched.
        self.match_left: List[int] = [-1] * n
        self.match_right: List[int] = [-1] * n
        # Persistent DFS stacks (parallel arrays, preallocated: a simple
        # path alternates distinct lefts, so depth never exceeds n).
        self._st_lefts: List[int] = [0] * n
        self._st_masks: List[Optional[List[int]]] = [None] * n
        self._st_pos: List[int] = [0] * n
        self._st_rights: List[int] = [0] * n

    @classmethod
    def from_state(
        cls,
        adj: Sequence[int],
        match_left: Sequence[int],
        match_right: Sequence[int],
    ) -> "BitsetKuhn":
        """Warm-start from an existing matching (incremental re-measure):
        adjacency is one mask per left, and only still-unmatched lefts
        will be augmented from."""
        n = len(adj)
        matcher = cls(n)
        for i, mask in enumerate(adj):
            if mask:
                matcher._adj[i] = [mask]
                matcher._full[i] = mask
                matcher._seen |= 1 << i
        matcher.match_left = list(match_left)
        matcher.match_right = list(match_right)
        matcher._unmatched = [
            i for i in range(n) if matcher.match_left[i] < 0 and adj[i]
        ]
        return matcher

    def add_batch(self, rows: Iterable[Tuple[int, int]]) -> int:
        """Add one priority batch as ``(left, rights_mask)`` rows (in
        first-appearance order) and re-maximize; returns augment count."""
        adj = self._adj
        for left, mask in rows:
            if not mask:
                continue
            if adj[left] is None:
                adj[left] = [mask]
            else:
                adj[left].append(mask)
                self._multi = True
            self._full[left] |= mask
            if not (self._seen >> left) & 1:
                self._seen |= 1 << left
                if self.match_left[left] < 0:
                    self._unmatched.append(left)
        return self.maximize()

    def maximize(self) -> int:
        """Augment from still-unmatched lefts only (matched lefts can
        never gain: augmentation never unmatches)."""
        gained = 0
        deadline = budgets.active_deadline()
        degraded = False
        still: List[int] = []
        # Rights proven dead by a *failed* DFS stay dead for the rest of
        # this maximize.  A failure leaves the matching intact, and a
        # later success from another root cannot revive them: if an
        # alternating path from a dead right to a free right existed
        # after augmenting along P, its symmetric difference with P
        # would yield one before P was applied — the same exchange
        # argument that lets Kuhn try each root once.  Successful
        # searches seed their visited set with the dead mask; dead
        # subtrees always backtrack without flipping anything, so the
        # path found — and the final matching — stays identical to the
        # reference matcher's.
        dead = 0
        augment = self._augment if self._multi else self._augment1
        for left in self._unmatched:
            if self.match_left[left] >= 0:
                continue
            if degraded or (deadline is not None and deadline.tick()):
                if not degraded:
                    _degraded("matching.maximize")
                    degraded = True
                still.append(left)
                continue
            outcome = augment(left, dead)
            if outcome < 0:
                gained += 1
            else:
                dead = outcome
                still.append(left)
        self._unmatched = still
        obs.count("matching.augmenting_paths", gained)
        return gained

    def _augment(self, root: int, dead: int = 0) -> int:
        """Iterative Kuhn DFS from an unmatched left, on masks.

        The stack of (left, batch position, discovered right) frames *is*
        the alternating path, so a successful search flips it directly —
        no parent map.  Visiting order (earlier batches first, ascending
        bit within a batch) mirrors the reference matcher exactly.
        ``dead`` seeds the visited mask with rights already proven
        hopeless under the current matching.  Returns ``-1`` on success,
        otherwise the final visited mask (the caller's next dead set).

        Pruning tricks that cannot change the outcome: the visited
        complement ``nvis`` is maintained incrementally instead of
        recomputing ``~visited`` per step; a matched right whose owner
        has no unvisited neighbour at all (``full`` mask) is consumed
        without pushing a frame — the reference search would push it,
        scan, and pop without flipping anything; and frames do not store
        their remaining ``avail`` mask, because every bit tried at a
        frame was also removed from ``nvis``, so re-entering after a
        backtrack can recompute it as ``masks[pos] & nvis`` — the stored
        mask re-ANDed with ``nvis`` would yield the identical value.
        Descending therefore costs no mask store, which matters because
        the search is push-dominated (displacement chains backtrack
        rarely).
        """
        adj = self._adj
        full = self._full
        match_l = self.match_left
        match_r = self.match_right
        nvis = ~dead
        lefts = self._st_lefts
        masklists = self._st_masks
        positions = self._st_pos
        rights = self._st_rights
        lefts[0] = root
        masks = masklists[0] = adj[root]
        depth = 0
        pos = 0
        n_masks = len(masks)
        # ``avail`` is the current batch's not-yet-taken rights.
        avail = masks[0] & nvis if n_masks else 0
        while True:
            if not avail:
                pos += 1
                if pos < n_masks:
                    avail = masks[pos] & nvis
                    continue
                # Frame exhausted: pop.
                depth -= 1
                if depth < 0:
                    return ~nvis
                masks = masklists[depth]
                pos = positions[depth]
                n_masks = len(masks)
                avail = masks[pos] & nvis
                continue
            low = avail & -avail
            nvis ^= low
            right = low.bit_length() - 1
            owner = match_r[right]
            if owner < 0:
                # Free right: flip the stack's alternating path.
                rights[depth] = right
                for d in range(depth, -1, -1):
                    match_l[lefts[d]] = rights[d]
                    match_r[rights[d]] = lefts[d]
                return -1
            if not full[owner] & nvis:
                avail ^= low
                continue  # dead-end owner; right stays consumed
            positions[depth] = pos
            rights[depth] = right
            depth += 1
            lefts[depth] = owner
            masks = masklists[depth] = adj[owner]
            pos = 0
            n_masks = len(masks)
            avail = masks[0] & nvis if n_masks else 0

    def _augment1(self, root: int, dead: int = 0) -> int:
        """``_augment`` specialized for one batch mask per left (the
        first priority batch, and every warm start): the per-frame batch
        list collapses to the ``full`` mask, dropping the position
        bookkeeping from the hot loop.  Semantics are identical."""
        full = self._full
        match_l = self.match_left
        match_r = self.match_right
        nvis = ~dead
        lefts = self._st_lefts
        rights = self._st_rights
        lefts[0] = root
        depth = 0
        avail = full[root] & nvis
        while True:
            if not avail:
                depth -= 1
                if depth < 0:
                    return ~nvis
                # Tried bits are all in ``nvis``, so the frame's mask
                # needs no store: recompute instead (see ``_augment``).
                avail = full[lefts[depth]] & nvis
                continue
            low = avail & -avail
            nvis ^= low
            right = low.bit_length() - 1
            owner = match_r[right]
            if owner < 0:
                rights[depth] = right
                for d in range(depth, -1, -1):
                    match_l[lefts[d]] = rights[d]
                    match_r[rights[d]] = lefts[d]
                return -1
            navail = full[owner] & nvis
            if not navail:
                avail ^= low
                continue  # dead-end owner; right stays consumed
            rights[depth] = right
            depth += 1
            lefts[depth] = owner
            avail = navail

    @property
    def size(self) -> int:
        return self.n - self.match_left.count(-1)


# ======================================================================
# Hopcroft–Karp with batched BFS frontier masks.
# ======================================================================
def hopcroft_karp_masks(
    n_left: int,
    n_right: int,
    adj: Sequence[int],
) -> Tuple[List[int], List[int]]:
    """Maximum matching over bitmask adjacency; returns ``(match_left,
    match_right)`` index arrays (-1 = unmatched).

    Index-space replica of :func:`repro.reference.hopcroft_karp`
    for adjacency sorted ascending per left (which is how
    ``PartialOrder`` enumerates pairs), so both produce the same
    matching — and hence the same König cover and the same antichain.
    The BFS processes whole layers as frontier masks: one OR per left
    per phase instead of one queue entry per edge.
    """
    INF = n_left + n_right + 1
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0] * n_left
    deadline = budgets.active_deadline()

    while True:
        # -- BFS phase: layer the unmatched lefts, batching each layer's
        # reachable rights into one frontier mask.
        frontier: List[int] = []
        for u in range(n_left):
            if match_l[u] < 0:
                dist[u] = 0
                frontier.append(u)
            else:
                dist[u] = INF
        visited_r = 0
        found = False
        depth = 0
        while frontier:
            reach = 0
            for u in frontier:
                reach |= adj[u]
            reach &= ~visited_r
            visited_r |= reach
            nxt: List[int] = []
            mask = reach
            while mask:
                low = mask & -mask
                mask ^= low
                owner = match_r[low.bit_length() - 1]
                if owner < 0:
                    found = True
                elif dist[owner] == INF:
                    dist[owner] = depth + 1
                    nxt.append(owner)
            frontier = nxt
            depth += 1
        if not found:
            break
        if deadline is not None and deadline.tick():
            _degraded("matching.hopcroft_karp")
            break
        for u in range(n_left):
            if match_l[u] < 0:
                _hk_dfs(u, adj, match_l, match_r, dist, INF)

    matched = n_left - match_l.count(-1)
    obs.count("matching.hk_calls")
    obs.peak("matching.size_peak", matched)
    return match_l, match_r


def _hk_dfs(
    root: int,
    adj: Sequence[int],
    match_l: List[int],
    match_r: List[int],
    dist: List[int],
    INF: int,
) -> bool:
    """Iterative layered DFS (recursion-free, so N=1024+ is safe)."""
    stack: List[List[int]] = [[root, adj[root]]]
    chosen: List[int] = []  # right tentatively taken by each frame
    while stack:
        frame = stack[-1]
        u, remaining = frame
        advanced = False
        while remaining:
            low = remaining & -remaining
            remaining &= ~low
            right = low.bit_length() - 1
            owner = match_r[right]
            if owner < 0:
                # Success: flip the whole alternating path on the stack.
                chosen.append(right)
                for (left, _), taken in zip(stack, chosen):
                    match_l[left] = taken
                    match_r[taken] = left
                return True
            if dist[owner] == dist[u] + 1:
                frame[1] = remaining
                chosen.append(right)
                stack.append([owner, adj[owner]])
                advanced = True
                break
        if not advanced:
            dist[u] = INF
            stack.pop()
            if chosen:
                chosen.pop()
    return False


def koenig_cover_masks(
    n_left: int,
    adj: Sequence[int],
    match_l: Sequence[int],
    match_r: Sequence[int],
) -> Tuple[int, int]:
    """König alternating BFS from the unmatched lefts, on masks.

    Returns ``(visited_left, visited_right)`` masks; the minimum vertex
    cover is (matched lefts not visited) ∪ (visited rights), exactly as
    :func:`repro.reference.minimum_vertex_cover` computes it — the
    visited sets depend only on the matching, not on traversal order.
    """
    visited_l = 0
    visited_r = 0
    frontier = [u for u in range(n_left) if match_l[u] < 0]
    for u in frontier:
        visited_l |= 1 << u
    while frontier:
        reach = 0
        for u in frontier:
            mask = adj[u]
            matched = match_l[u]
            if matched >= 0:
                mask &= ~(1 << matched)  # non-matching edges only
            reach |= mask
        reach &= ~visited_r
        visited_r |= reach
        nxt: List[int] = []
        mask = reach
        while mask:
            low = mask & -mask
            mask ^= low
            owner = match_r[low.bit_length() - 1]
            if owner >= 0 and not (visited_l >> owner) & 1:
                visited_l |= 1 << owner
                nxt.append(owner)
        frontier = nxt
    return visited_l, visited_r
