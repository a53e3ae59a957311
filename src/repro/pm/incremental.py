"""In-place trial scoring of candidate transforms.

:class:`IncrementalMeasurer` is the allocator's one way to try a
candidate, in every allocator mode: it applies the candidate's edits
inside a :class:`~repro.graph.dag.DagTransaction` on the live DAG,
scores the result, and rolls back.  A trial costs what it changed:

* **A cutoff after every class.**  Classes are scored one at a time in
  snapshot (``measure_all``) order, and the trial stops with ``None`` as
  soon as the weighted excess is above ``min(base − 1, best)``.  A
  candidate stopped there cannot win — a winner needs a strictly lower
  score — so the cutoff never changes which candidate the driver keeps.
  (Chaos faults are keyed to the candidate and class, not to how many
  ``select_kill`` calls came before, so skipped classes move no fault.)
  Only a candidate that can still win gets its critical path computed.
* **Node-inserting journals** (spill, remat) rebuild each class's
  relation with :func:`~repro.core.measure.reuse_orders`, the builder
  ``measure_all`` uses, and score it by a greedy chain cover first: the
  committed matching of an excessive class, mapped by uid or value name
  and restricted to the pairs still in the new relation, is a valid
  matching of it, extended greedily (a fitting class starts empty).
  A cover that fits ``available`` proves the excess 0; otherwise
  Kuhn's algorithm, started from that valid matching, ends at a maximum
  one.  No hammock analysis and no chain decomposition are built.

An edges-only journal is scored against per-class snapshots taken at
the last committed measurement.  Only an excessive class's snapshot
holds a matching; the snapshot reads no exact width of a class that
fits.

* **Functional units** — adding sequence edges only grows reachability,
  so the reuse relation gains pairs and its width never increases.  A
  class with no excess stays excess-free (exact, no work); a class whose
  relevant reachability did not change keeps its excess exactly;
  anything else re-maximizes the committed matching *warm-started* with
  only the delta pairs the transaction's closure journal exposes.
* **Registers** — if no value's def or use changed reachability and no
  contested ``Kill()`` candidate could have moved in the ASAP order, the
  base excess is exact.  Otherwise ``Kill()`` is re-selected: an
  unchanged assignment means the reuse relation grew monotonically, so
  a fitting class stays fitting and an excessive one is warm-started; a
  changed one rebuilds that class's relation (*cold*), scored as a
  node-inserting journal's.

Excesses are what the driver's score needs; no chain decomposition is
built here — a committed winner always gets a full ``measure_all`` at
its new version, so trial shortcuts can never leak into downstream
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.core.kill import candidate_killers, select_kill
from repro.core.measure import ResourceKind, ResourceRequirement, reuse_orders
from repro.core.reuse import can_reuse_registers
from repro.core.transforms.base import TransformCandidate, TransformError
from repro.graph.dag import CycleError, DagTransaction, DependenceDAG
from repro.graph.dilworth import PartialOrder, greedy_matching, width_matching
from repro.machine.model import MachineModel


@dataclass(frozen=True)
class TrialOutcome:
    """Score of one trial that can still win (already rolled back)."""

    weighted_excess: int
    critical_path: int
    #: per-class excess, in snapshot (``measure_all``) order.
    excesses: Tuple[int, ...]


@dataclass
class _ClassBase:
    """Per-resource-class snapshot of the last committed measurement."""

    req: ResourceRequirement
    elements: List
    element_set: Set
    #: element -> bit position (the order's own index table).
    eidx: Dict
    #: base relation as successor bitmasks, one per element index — a
    #: *copy* of the order's masks, safe to grow with delta pairs.
    masks: List[int]
    #: the committed excess, as the requirement decides it.
    excess: int
    available: int
    #: an excessive class's maximum matching, an index array (-1 =
    #: unmatched); None for a class that fits.  Read-only: trials copy
    #: it before augmenting.
    match_left: Optional[List[int]]
    # -- registers only -------------------------------------------------
    values: Optional[List] = None
    relevant: Optional[Set[int]] = None
    def_nodes: Optional[Set[int]] = None
    def_to_names: Optional[Dict[int, List[str]]] = None
    kill_dict: Optional[Dict[str, int]] = None
    contested_candidates: Optional[Set[int]] = None


#: Counter bumped per class by an edges-only journal's scoring mode.
_MODE_COUNTERS = {
    "hit": ("pm.trial.hits",),
    "warm": ("pm.trial.warm", "pm.trial.recomputed"),
    "cold": ("pm.trial.cold", "pm.trial.recomputed"),
}


class IncrementalMeasurer:
    """Scores candidates in place against a rebased snapshot."""

    def __init__(self, machine: MachineModel, register_weight: int = 1) -> None:
        self.machine = machine
        self.register_weight = register_weight
        self.dag: Optional[DependenceDAG] = None
        self._bases: List[_ClassBase] = []
        self._base_weighted = 0

    # ------------------------------------------------------------------
    def rebase(
        self,
        dag: DependenceDAG,
        requirements: Sequence[ResourceRequirement],
    ) -> None:
        """Snapshot the committed measurements trials will diff against."""
        self.dag = dag
        self._bases = [self._snapshot(dag, req) for req in requirements]
        self._base_weighted = sum(
            self._weigh(base.req.kind, base.excess) for base in self._bases
        )

    def _weigh(self, kind: ResourceKind, excess: int) -> int:
        if kind is ResourceKind.REGISTER:
            return self.register_weight * excess
        return excess

    def _snapshot(
        self, dag: DependenceDAG, req: ResourceRequirement
    ) -> _ClassBase:
        elements = req.order.elements
        excess = req.excess
        base = _ClassBase(
            req=req,
            elements=elements,
            element_set=set(elements),
            eidx=req.order.index,
            masks=list(req.order.masks),
            excess=excess,
            available=req.available,
            match_left=req.matching if excess else None,
        )
        if req.kind is ResourceKind.REGISTER:
            values = list((req.values or {}).values())
            base.values = values
            base.relevant = {v.def_uid for v in values} | {
                u for v in values for u in v.use_uids
            }
            base.def_nodes = {v.def_uid for v in values}
            def_to_names: Dict[int, List[str]] = {}
            for v in values:
                def_to_names.setdefault(v.def_uid, []).append(v.name)
            base.def_to_names = def_to_names
            base.kill_dict = dict(req.kill.kill) if req.kill else {}
            contested: Set[int] = set()
            if req.kill is not None:
                by_name = req.values or {}
                for name in req.kill.contested:
                    info = by_name.get(name)
                    if info is not None:
                        contested.update(candidate_killers(dag, info))
            base.contested_candidates = contested
        return base

    # ------------------------------------------------------------------
    def trial(
        self, candidate: TransformCandidate, best: Optional[int] = None
    ) -> Optional[TrialOutcome]:
        """Apply ``candidate`` in a transaction, score it, roll back.

        Returns ``None`` when the weighted excess is above
        ``min(base − 1, best)``: the candidate does not strictly improve
        on the committed DAG (the driver's progress filter), or it
        scores worse than ``best``, the lowest weighted excess the
        driver has seen so far, and so cannot win.  The cutoff is
        checked after every class, in snapshot order.  Only a candidate
        that can still win gets its critical path computed.  Raises
        :class:`TransformError` for illegal edits; the rollback runs
        either way, also when the edits failed partway.
        """
        dag = self.dag
        assert dag is not None, "rebase() before trial()"
        limit = self._base_weighted - 1
        if best is not None:
            limit = min(limit, best)
        txn = dag.begin_transaction()
        try:
            try:
                candidate.edits(dag)
            except CycleError as exc:
                raise TransformError(f"{candidate.kind}: {exc}") from exc

            obs.count(
                "pm.trial.full" if txn.adds_nodes else "pm.trial.incremental"
            )
            excesses = [0] * len(self._bases)
            weighted = 0
            for index, excess in self._class_excesses(dag, txn):
                excesses[index] = excess
                weighted += self._weigh(self._bases[index].req.kind, excess)
                if weighted > limit:
                    obs.count("pm.trial.cut")
                    return None
            cp = dag.critical_path_length(self.machine.latency_of)
            return TrialOutcome(
                weighted_excess=weighted,
                critical_path=cp,
                excesses=tuple(excesses),
            )
        finally:
            if txn.active:
                txn.rollback()

    def _class_excesses(
        self, dag: DependenceDAG, txn: DagTransaction
    ) -> Iterator[Tuple[int, int]]:
        """``(snapshot index, excess)`` of every class, in snapshot order,
        each computed when it is drawn.

        A journal that inserted nodes rebuilds each class's relation with
        ``measure_all``'s builder; an edges-only journal is diffed class
        by class against the snapshot, and counted by scoring mode."""
        if txn.adds_nodes:
            orders = {
                kind: reuse_orders(dag, self.machine, kind)
                for kind in ResourceKind
            }
            for index, base in enumerate(self._bases):
                order = next(orders[base.req.kind])
                yield index, self._rebuilt_excess(base, order)
            return
        for index, base in enumerate(self._bases):
            if base.req.kind is ResourceKind.FUNCTIONAL_UNIT:
                excess, mode = self._fu_excess(dag, txn, base)
            else:
                excess, mode = self._reg_excess(dag, txn, base)
            for counter in _MODE_COUNTERS[mode]:
                obs.count(counter)
            yield index, excess

    # ------------------------------------------------------------------
    def _warm_excess(
        self, base: _ClassBase, delta_pairs: List[Tuple]
    ) -> int:
        """Excess after growing an excessive class's relation by
        ``delta_pairs``, by augmenting the base maximum matching (never
        unmatching).

        The snapshot's masks are ORed with the journal-delta bits and the
        committed matching is re-maximized — only the lefts it left
        unmatched are augmented from."""
        eidx = base.eidx
        adjacency = list(base.masks)
        for a, b in delta_pairs:
            adjacency[eidx[a]] |= 1 << eidx[b]
        width, _ = width_matching(adjacency, base.match_left)
        return max(0, width - base.available)

    def _rebuilt_excess(self, base: _ClassBase, order: PartialOrder) -> int:
        """Excess of a rebuilt relation: zero when :meth:`_upper_bound`'s
        chain cover already fits, else the exact width's — Kuhn's
        algorithm started from the cover's matching, a valid one, ends
        at a maximum one."""
        upper, start = self._upper_bound(base, order)
        if upper <= base.available:
            return 0
        width, _ = width_matching(order.masks, start)
        return max(0, width - base.available)

    @staticmethod
    def _upper_bound(
        base: _ClassBase, order: PartialOrder
    ) -> Tuple[int, List[int]]:
        """A chain cover's size for a rebuilt relation, and the matching
        behind it: the committed matching restricted to the pairs still
        in the relation (when the class had one), extended greedily.

        Elements are uids (FU classes) or value names (registers), so
        the snapshot's pairs map onto the new relation by element; a
        pair whose ends are both present and still related is kept.
        What is kept is a valid matching of the new relation."""
        masks = order.masks
        if base.match_left is None:
            size, matching = greedy_matching(masks)
            return len(masks) - size, matching
        index = order.index
        old = base.elements
        match_left = [-1] * len(order.elements)
        for i, j in enumerate(base.match_left):
            if j < 0:
                continue
            a = index.get(old[i])
            b = index.get(old[j])
            if a is not None and b is not None and masks[a] >> b & 1:
                match_left[a] = b
        size, matching = greedy_matching(masks, match_left)
        return len(masks) - size, matching

    def _fu_excess(
        self, dag: DependenceDAG, txn: DagTransaction, base: _ClassBase
    ) -> Tuple[int, str]:
        if not base.excess:
            # Edge adds only shrink FU width: a fitting class stays
            # fitting, and its exact excess stays zero.
            return 0, "hit"
        delta_pairs: List[Tuple[int, int]] = []
        for a in sorted(txn.changed_nodes() & base.element_set):
            for b in sorted(txn.new_descendants(a) & base.element_set):
                delta_pairs.append((a, b))
        if not delta_pairs:
            return base.excess, "hit"
        return self._warm_excess(base, delta_pairs), "warm"

    # ------------------------------------------------------------------
    def _reg_excess(
        self, dag: DependenceDAG, txn: DagTransaction, base: _ClassBase
    ) -> Tuple[int, str]:
        changed = txn.changed_nodes()
        if not (changed & base.relevant) and not self._asap_sensitive(
            dag, txn, base
        ):
            # No def/use reachability moved and no contested Kill()
            # candidate could have shifted in the ASAP tie-break: the
            # assignment and the relation are both unchanged.
            return base.excess, "hit"

        values = base.values or []
        kill_new = select_kill(dag, values)
        if kill_new.kill == base.kill_dict:
            # An unchanged Kill() only grows the relation, so a fitting
            # class stays fitting.
            if not base.excess:
                return 0, "hit"
            delta_pairs = self._reg_delta_pairs(txn, base)
            if not delta_pairs:
                return base.excess, "hit"
            return self._warm_excess(base, delta_pairs), "warm"
        order = can_reuse_registers(dag, values, kill_new.kill)
        return self._rebuilt_excess(base, order), "cold"

    def _asap_sensitive(
        self, dag: DependenceDAG, txn: DagTransaction, base: _ClassBase
    ) -> bool:
        """Could an added edge have moved a contested killer's depth?

        ASAP depths only grow below an added edge's destination, so the
        contested candidates (whose depths break ``select_kill`` ties)
        are safe unless one sits at or under some ``dst``.
        """
        contested = base.contested_candidates
        if not contested:
            return False
        for _, dst in txn.added_edges():
            if dst in contested or (dag.descendants(dst) & contested):
                return True
        return False

    def _reg_delta_pairs(
        self, txn: DagTransaction, base: _ClassBase
    ) -> List[Tuple[str, str]]:
        """New reuse pairs under an unchanged ``Kill()``: each value's
        killer reaching new definitions."""
        changed = txn.changed_nodes()
        pairs: List[Tuple[str, str]] = []
        for value in base.values or []:
            killer = base.kill_dict[value.name]
            if killer not in changed:
                continue
            new_defs = txn.new_descendants(killer) & base.def_nodes
            for def_uid in sorted(new_defs):
                for name in base.def_to_names[def_uid]:
                    if name != value.name:
                        pairs.append((value.name, name))
        return pairs
