"""In-place trial scoring of candidate transforms.

:class:`IncrementalMeasurer` is the allocator's one way to try a
candidate, in every allocator mode: it applies the candidate's edits
inside a :class:`~repro.graph.dag.DagTransaction` on the live DAG,
scores the result, and rolls back.  What the journal recorded picks
how the score is computed.

A journal that inserted nodes (spill, remat) is measured cold, in
place, by :func:`~repro.core.measure.measure_widths`: every class's
relation and maximum matching are rebuilt, but no hammock analysis and
no chain decomposition, which only the committed measurement's
Definition 6 sets need.

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
  (warm-startable); a changed one forces a cold re-match of that class
  only.

Widths are what the driver's score needs; no chain decomposition is
built here — a committed winner always gets a full ``measure_all`` at
its new version, so trial shortcuts can never leak into downstream
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.core.kill import candidate_killers, select_kill
from repro.core.measure import ResourceKind, ResourceRequirement, measure_widths
from repro.core.reuse import can_reuse_registers
from repro.core.transforms.base import TransformCandidate, TransformError
from repro.graph import bitset
from repro.graph.dag import CycleError, DagTransaction, DependenceDAG
from repro.graph.dilworth import width as order_width
from repro.machine.model import MachineModel


@dataclass(frozen=True)
class TrialOutcome:
    """Score of one improving in-place trial (already rolled back)."""

    weighted_excess: int
    critical_path: int
    widths: Tuple[int, ...]
    classes_reused: int
    classes_recomputed: int


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
    def trial(self, candidate: TransformCandidate) -> Optional[TrialOutcome]:
        """Apply ``candidate`` in a transaction, score it, roll back.

        Returns ``None`` when the candidate does not strictly improve
        the weighted excess (the driver's progress filter).  Raises
        :class:`TransformError` for illegal edits; the rollback runs
        either way, also when the edits failed partway.
        """
        dag = self.dag
        assert dag is not None, "rebase() before trial()"
        txn = dag.begin_transaction()
        try:
            try:
                candidate.edits(dag)
            except CycleError as exc:
                raise TransformError(f"{candidate.kind}: {exc}") from exc

            if txn.adds_nodes:
                obs.count("pm.trial.full")
                widths = measure_widths(dag, self.machine)
                reused, recomputed = 0, len(widths)
            else:
                widths, reused, recomputed = self._incremental_widths(dag, txn)

            weighted = sum(
                self._weigh(base.req.kind, max(0, w - base.available))
                for base, w in zip(self._bases, widths)
            )
            if weighted >= self._base_weighted:
                return None  # must make progress
            cp = dag.critical_path_length(self.machine.latency_of)
            return TrialOutcome(
                weighted_excess=weighted,
                critical_path=cp,
                widths=tuple(widths),
                classes_reused=reused,
                classes_recomputed=recomputed,
            )
        finally:
            if txn.active:
                txn.rollback()

    def _incremental_widths(
        self, dag: DependenceDAG, txn: DagTransaction
    ) -> Tuple[List[int], int, int]:
        """Per-class widths of an edges-only journal, reusing the base
        widths and matchings wherever the journal allows."""
        obs.count("pm.trial.incremental")
        widths: List[int] = []
        reused = warm = cold = 0
        for base in self._bases:
            if base.req.kind is ResourceKind.FUNCTIONAL_UNIT:
                width, mode = self._fu_width(dag, txn, base)
            else:
                width, mode = self._reg_width(dag, txn, base)
            widths.append(width)
            if mode == "hit":
                reused += 1
            elif mode == "warm":
                warm += 1
            else:
                cold += 1
        recomputed = warm + cold
        obs.count("pm.trial.hits", reused)
        obs.count("pm.trial.warm", warm)
        obs.count("pm.trial.cold", cold)
        obs.count("pm.trial.recomputed", recomputed)
        return widths, reused, recomputed

    # ------------------------------------------------------------------
    def _warm_width(
        self, base: _ClassBase, delta_pairs: List[Tuple]
    ) -> int:
        """Width after growing the relation by ``delta_pairs``, by
        augmenting the base maximum matching (never unmatching).

        The snapshot's masks are ORed with the journal-delta bits and the
        committed width's matching is re-maximized — only the lefts it
        left unmatched are augmented from.  Kuhn's algorithm started
        from any valid matching ends at a maximum one, so the width does
        not depend on which maximum matching the snapshot holds."""
        eidx = base.eidx
        adjacency = list(base.masks)
        for a, b in delta_pairs:
            adjacency[eidx[a]] |= 1 << eidx[b]
        match_left = base.match_left
        match_right = [-1] * len(match_left)
        for i, j in enumerate(match_left):
            if j >= 0:
                match_right[j] = i
        matcher = bitset.BitsetKuhn.from_state(adjacency, match_left, match_right)
        matcher.maximize()
        return len(base.elements) - matcher.size

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
        return order_width(order), "cold"

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
