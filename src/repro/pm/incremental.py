"""In-place trial scoring of candidate transforms.

:class:`IncrementalMeasurer` is the allocator's one way to try a
candidate, in every allocator mode: it applies the candidate's edits
inside a :class:`~repro.graph.dag.DagTransaction` on the live DAG,
scores the result, and rolls back.  A trial costs what it changed:

* **Registers first, then a cutoff.**  Every register class is scored
  first, in class order, so ``select_kill`` runs exactly as often and in
  the same order whatever the outcome (the chaos ``kill`` fault draws
  from one RNG stream).  The trial stops with ``None`` as soon as the
  weighted excess is above ``min(base − 1, best)``: checked once after
  the registers and again after each FU class.  A candidate stopped
  there cannot win — a winner needs a strictly lower score — so the
  cutoff never changes which candidate the driver keeps.  Only a
  candidate that can still win gets its critical path computed.
* **Node-inserting journals** (spill, remat) rebuild each class's
  relation with :func:`~repro.core.measure.reuse_orders`, the builder
  ``measure_all`` uses, and re-match it warm: the committed matching,
  mapped by uid or value name and restricted to the pairs still in the
  new relation, is a valid matching of it, and Kuhn's algorithm started
  from any valid matching ends at a maximum one.  No hammock analysis
  and no chain decomposition are built.

An edges-only journal is scored against per-class snapshots taken at
the last committed measurement:

* **Functional units** — adding sequence edges only grows reachability,
  so the reuse relation gains pairs and its width never increases.  A
  class with no excess stays excess-free (exact, no work); a class whose
  relevant reachability did not change keeps its width exactly; anything
  else re-maximizes the committed width's matching *warm-started* with
  only the delta pairs the transaction's closure journal exposes.
* **Registers** — if no value's def or use changed reachability and no
  contested ``Kill()`` candidate could have moved in the ASAP order, the
  base width is exact.  Otherwise ``Kill()`` is re-selected: an
  unchanged assignment means the reuse relation grew monotonically
  (warm-startable); a changed one rebuilds that class's relation
  (*cold*), re-matched from the restricted committed matching.

Widths are what the driver's score needs; no chain decomposition is
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
from repro.graph import bitset
from repro.graph.dag import CycleError, DagTransaction, DependenceDAG
from repro.graph.dilworth import PartialOrder
from repro.machine.model import MachineModel


@dataclass(frozen=True)
class TrialOutcome:
    """Score of one trial that can still win (already rolled back)."""

    weighted_excess: int
    critical_path: int
    widths: Tuple[int, ...]


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
    #: the committed width's maximum matching, an index array (-1 =
    #: unmatched).  Read-only: trials copy it before augmenting.
    match_left: List[int]
    width: int
    available: int
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


def _maximum_width(adjacency: List[int], match_left: List[int]) -> int:
    """Width of the order with successor masks ``adjacency``: Kuhn's
    algorithm warm-started from ``match_left``, a valid matching of it
    (index array, -1 = unmatched), ends at a maximum matching."""
    match_right = [-1] * len(match_left)
    for i, j in enumerate(match_left):
        if j >= 0:
            match_right[j] = i
    matcher = bitset.BitsetKuhn.from_state(adjacency, match_left, match_right)
    matcher.maximize()
    return len(adjacency) - matcher.size


class IncrementalMeasurer:
    """Scores candidates in place against a rebased snapshot."""

    def __init__(self, machine: MachineModel, register_weight: int = 1) -> None:
        self.machine = machine
        self.register_weight = register_weight
        self.dag: Optional[DependenceDAG] = None
        self._bases: List[_ClassBase] = []
        #: snapshot indices per resource kind, in snapshot order.
        self._indices: Dict[ResourceKind, List[int]] = {}
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
        self._indices = {
            kind: [
                i for i, base in enumerate(self._bases) if base.req.kind is kind
            ]
            for kind in ResourceKind
        }
        self._base_weighted = sum(
            self._weigh(base.req.kind, max(0, base.width - base.available))
            for base in self._bases
        )

    def _weigh(self, kind: ResourceKind, excess: int) -> int:
        if kind is ResourceKind.REGISTER:
            return self.register_weight * excess
        return excess

    def _snapshot(
        self, dag: DependenceDAG, req: ResourceRequirement
    ) -> _ClassBase:
        elements = req.order.elements
        base = _ClassBase(
            req=req,
            elements=elements,
            element_set=set(elements),
            eidx=req.order.index,
            masks=list(req.order.masks),
            match_left=req.matching,
            width=req.required,
            available=req.available,
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
        driver has seen so far, and so cannot win.  Every register
        class is scored first (``select_kill`` runs once per class, in
        class order, whatever the outcome), then the cutoff is checked;
        each FU class is followed by another check.  Only a candidate
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
            widths = [0] * len(self._bases)
            weighted = 0
            for kind in (ResourceKind.REGISTER, ResourceKind.FUNCTIONAL_UNIT):
                for index, width in self._class_widths(dag, txn, kind):
                    widths[index] = width
                    available = self._bases[index].available
                    weighted += self._weigh(kind, max(0, width - available))
                    if kind is ResourceKind.FUNCTIONAL_UNIT and weighted > limit:
                        break
                if weighted > limit:
                    obs.count("pm.trial.cut")
                    return None
            cp = dag.critical_path_length(self.machine.latency_of)
            return TrialOutcome(
                weighted_excess=weighted,
                critical_path=cp,
                widths=tuple(widths),
            )
        finally:
            if txn.active:
                txn.rollback()

    def _class_widths(
        self, dag: DependenceDAG, txn: DagTransaction, kind: ResourceKind
    ) -> Iterator[Tuple[int, int]]:
        """``(snapshot index, width)`` of every class of ``kind``, in
        snapshot order, each computed when it is drawn.

        A journal that inserted nodes rebuilds each class's relation with
        ``measure_all``'s builder; an edges-only journal is diffed class
        by class against the snapshot, and counted by scoring mode."""
        indices = self._indices[kind]
        if txn.adds_nodes:
            orders = reuse_orders(dag, self.machine, kind)
            for index, order in zip(indices, orders):
                yield index, self._restricted_width(self._bases[index], order)
            return
        score = self._fu_width if kind is ResourceKind.FUNCTIONAL_UNIT else (
            self._reg_width
        )
        for index in indices:
            width, mode = score(dag, txn, self._bases[index])
            for counter in _MODE_COUNTERS[mode]:
                obs.count(counter)
            yield index, width

    # ------------------------------------------------------------------
    def _warm_width(
        self, base: _ClassBase, delta_pairs: List[Tuple]
    ) -> int:
        """Width after growing the relation by ``delta_pairs``, by
        augmenting the base maximum matching (never unmatching).

        The snapshot's masks are ORed with the journal-delta bits and the
        committed width's matching is re-maximized — only the lefts it
        left unmatched are augmented from."""
        eidx = base.eidx
        adjacency = list(base.masks)
        for a, b in delta_pairs:
            adjacency[eidx[a]] |= 1 << eidx[b]
        return _maximum_width(adjacency, base.match_left)

    def _restricted_width(self, base: _ClassBase, order: PartialOrder) -> int:
        """Width of a rebuilt relation, warm-started from the committed
        matching restricted to the pairs still in it.

        Elements are uids (FU classes) or value names (registers), so
        the snapshot's pairs map onto the new relation by element; a
        pair whose ends are both present and still related is kept.
        What is kept is a valid matching of the new relation, and Kuhn's
        algorithm started from any valid matching ends at a maximum
        one, so the width is exact."""
        index = order.index
        masks = order.masks
        old = base.elements
        match_left = [-1] * len(order.elements)
        for i, j in enumerate(base.match_left):
            if j < 0:
                continue
            a = index.get(old[i])
            b = index.get(old[j])
            if a is not None and b is not None and masks[a] >> b & 1:
                match_left[a] = b
        return _maximum_width(masks, match_left)

    def _fu_width(
        self, dag: DependenceDAG, txn: DagTransaction, base: _ClassBase
    ) -> Tuple[int, str]:
        if base.width <= base.available:
            # Edge adds only shrink FU width: a fitting class stays
            # fitting, and its exact excess stays zero.
            return base.width, "hit"
        delta_pairs: List[Tuple[int, int]] = []
        for a in sorted(txn.changed_nodes() & base.element_set):
            for b in sorted(txn.new_descendants(a) & base.element_set):
                delta_pairs.append((a, b))
        if not delta_pairs:
            return base.width, "hit"
        return self._warm_width(base, delta_pairs), "warm"

    # ------------------------------------------------------------------
    def _reg_width(
        self, dag: DependenceDAG, txn: DagTransaction, base: _ClassBase
    ) -> Tuple[int, str]:
        changed = txn.changed_nodes()
        if not (changed & base.relevant) and not self._asap_sensitive(
            dag, txn, base
        ):
            # No def/use reachability moved and no contested Kill()
            # candidate could have shifted in the ASAP tie-break: the
            # assignment and the relation are both unchanged.
            return base.width, "hit"

        values = base.values or []
        kill_new = select_kill(dag, values)
        if kill_new.kill == base.kill_dict:
            delta_pairs = self._reg_delta_pairs(txn, base)
            if not delta_pairs:
                return base.width, "hit"
            return self._warm_width(base, delta_pairs), "warm"
        order = can_reuse_registers(dag, values, kill_new.kill)
        return self._restricted_width(base, order), "cold"

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
