"""The dependence DAG: URSA's common program representation.

Nodes are instruction uids; two pseudo nodes, ``ENTRY`` and ``EXIT``,
give the DAG the single root and single leaf the paper's algorithms
require (and make the whole DAG a hammock).  Edges are either *data*
dependences (value flow, labelled with the value name) or *sequence*
edges: memory ordering, branch pinning, or the sequentialization edges
URSA's transformations add.

Instructions stored in the DAG are treated as immutable; rewrites (e.g.
retargeting a use at a reloaded value) replace the stored instruction
with a modified copy that keeps the same uid.

The store is plain dicts owned by this module: ``_succ``/``_pred`` map
each uid to an insertion-ordered row ``{neighbour uid: attributes}``
(both rows of an edge share one attribute dict) and ``_inst`` maps each
uid to its instruction.  Attribute dicts are never changed after they
are linked, so copies and transaction snapshots share them; changing an
edge links a new dict.  Other modules read the store through the
accessors (``nodes``, ``preds``, ``succs``, ``edges``, ``edge_data``,
``has_edge``, ``in``).
"""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.ir.instructions import Addr, Instruction, Var
from repro.ir.opcodes import Opcode
from repro.ir.rename import is_single_assignment, rename_trace


class CycleError(Exception):
    """Adding an edge would create a cycle (an illegal sequentialization)."""


class TransactionError(Exception):
    """A transaction was opened twice or closed twice."""


#: ``value_defs`` snapshot marker for a name the transaction introduced.
_ABSENT = object()


class DagTransaction:
    """An undo journal for every mutation :class:`DependenceDAG` offers.

    While a transaction is active the DAG records, on first touch, what
    each mutation is about to change: every adjacency row of the DAG's
    store (successor and predecessor dicts, with their edge insertion
    order), every rewritten instruction, every ``value_defs``/
    ``value_uses`` entry, ``live_out`` and the length of
    ``source_order``.  Added nodes are listed so ``rollback`` can drop
    them.

    The transitive closure is handled in two regimes.  Sequence-edge
    additions update the closure masks in place and journal the old
    mask of every touched node, which lets the incremental measurer
    read exactly which reachability grew (:meth:`new_descendants`).  A
    node insertion instead sets the closure caches aside by reference
    and lets the grown DAG rebuild its own; masks are no longer
    journaled after that point.

    ``rollback`` restores structure, edge order in every row,
    instructions, value tables, closure and ``version`` exactly, so any
    analysis cached against the old version becomes valid again and a
    rolled-back trial is indistinguishable from one that never ran.  The
    DAG's own version-keyed caches (topological order, latency-free
    ASAP depths, collected values) are put back as they stood at
    transaction start, so the trial's recomputations at its own versions
    do not evict them.
    """

    def __init__(self, dag: "DependenceDAG") -> None:
        self.dag = dag
        self._base_version = dag.version
        #: (src, dst) of every sequence edge added, in application order.
        self._edges: List[Tuple[int, int]] = []
        #: first-touch old closure mask per uid, in touch order.
        self._masks: Dict[int, int] = {}
        #: id(row) -> (row, snapshot) for every adjacency row changed.
        self._rows: Dict[int, Tuple[dict, dict]] = {}
        #: uid -> instruction before its first rewrite.
        self._insts: Dict[int, Instruction] = {}
        #: value name -> (old def or _ABSENT, old uses list, its contents).
        self._values: Dict[str, Tuple[object, Optional[list], list]] = {}
        self._nodes: List[int] = []
        self._live_out: Optional[FrozenSet[str]] = None
        self._source_len = len(dag.source_order)
        #: the closure caches set aside at the first node insertion.
        self._closure: Optional[tuple] = None
        #: the version-keyed caches as they stood at transaction start.
        self._caches = (
            dag._topo_cache, dag._topo_version,
            dag._asap_cache, dag._asap_version,
            dag._values_cache,
        )
        self.active = True

    # -- journal recording (called by DependenceDAG) -------------------
    def record_edge(self, src: int, dst: int) -> None:
        self._edges.append((src, dst))

    def record_mask(self, uid: int, old_mask: int) -> None:
        if self._closure is None and uid not in self._masks:
            self._masks[uid] = old_mask

    def record_row(self, row: dict) -> None:
        if id(row) not in self._rows:
            self._rows[id(row)] = (row, dict(row))

    def record_instruction(self, uid: int, old: Instruction) -> None:
        self._insts.setdefault(uid, old)

    def record_value(self, name: str) -> None:
        if name not in self._values:
            dag = self.dag
            uses = dag.value_uses.get(name)
            self._values[name] = (
                dag.value_defs.get(name, _ABSENT),
                uses,
                list(uses) if uses is not None else [],
            )

    def record_live_out(self) -> None:
        if self._live_out is None:
            self._live_out = self.dag.live_out

    def record_node(self, uid: int) -> None:
        self._nodes.append(uid)

    def set_aside_closure(self) -> None:
        """Keep the pre-insertion closure caches for ``rollback``."""
        if self._closure is None:
            dag = self.dag
            self._closure = (dag._desc_cache, dag._mask_index, dag._mask_order)

    # -- queries -------------------------------------------------------
    @property
    def base_version(self) -> int:
        return self._base_version

    @property
    def adds_nodes(self) -> bool:
        """True once a node was inserted: the closure journal stopped,
        so the trial must be measured from scratch."""
        return bool(self._nodes)

    def added_edges(self) -> List[Tuple[int, int]]:
        return list(self._edges)

    def changed_nodes(self) -> Set[int]:
        """Nodes whose descendant set grew during this transaction."""
        return set(self._masks)

    def touched_values(self) -> Set[str]:
        """Names whose ``value_defs`` or ``value_uses`` entry this
        transaction changed, names it introduced included.  Every other
        value's definition and uses are as they stood at its start."""
        return set(self._values)

    @property
    def base_values(self) -> Optional[tuple]:
        """The DAG's collected-values cache as it stood at transaction
        start: ``(version, machine, values)``, or None."""
        return self._caches[4]

    def new_descendants(self, uid: int) -> Set[int]:
        """Nodes reachable from ``uid`` now but not at transaction start."""
        old = self._masks.get(uid)
        if old is None:
            return set()
        dag = self.dag
        return dag._expand_mask(dag._closure()[uid] & ~old)

    # -- lifecycle -----------------------------------------------------
    def rollback(self) -> None:
        """Undo every journaled mutation; restore closure and version."""
        if not self.active:
            raise TransactionError("transaction already closed")
        dag = self.dag
        for uid, inst in self._insts.items():
            dag._inst[uid] = inst
        for uid in reversed(self._nodes):
            dag._remove_node(uid)
        # In place: rows append new neighbours, so refilling each changed
        # row from its snapshot restores edge insertion order and the
        # shared per-edge attribute dicts.
        for row, snapshot in self._rows.values():
            row.clear()
            row.update(snapshot)
        for name, (old_def, uses, contents) in self._values.items():
            if old_def is _ABSENT:
                dag.value_defs.pop(name, None)
            else:
                dag.value_defs[name] = old_def
            if uses is None:
                dag.value_uses.pop(name, None)
            else:
                uses[:] = contents
                dag.value_uses[name] = uses
        if self._live_out is not None:
            dag.live_out = self._live_out
        del dag.source_order[self._source_len:]
        if self._closure is not None:
            dag._desc_cache, dag._mask_index, dag._mask_order = self._closure
        if dag._desc_cache is not None:
            for uid, old in self._masks.items():
                dag._desc_cache[uid] = old
        (
            dag._topo_cache, dag._topo_version,
            dag._asap_cache, dag._asap_version,
            dag._values_cache,
        ) = self._caches
        dag.version = self._base_version
        dag._txn = None
        self.active = False

    def commit(self) -> None:
        """Keep every journaled mutation; the bumped version stands."""
        if not self.active:
            raise TransactionError("transaction already closed")
        self.dag._txn = None
        self.active = False


class EdgeKind(enum.Enum):
    DATA = "data"
    SEQ = "seq"


class DependenceDAG:
    """A mutable dependence DAG over three-address instructions.

    Use :meth:`from_trace` to build one from straight-line code.  All
    reachability queries are cached and invalidated on mutation.
    """

    #: Global monotone version source.  Every structural change to any
    #: DAG draws a fresh number, so a (dag, version) pair identifies one
    #: exact structure forever — rollback can restore an old version
    #: without ever colliding with a different structure, and analysis
    #: caches (``repro.pm``) can be shared across DAGs.
    _version_counter: int = 0

    @classmethod
    def _next_version(cls) -> int:
        cls._version_counter += 1
        return cls._version_counter

    def __init__(self) -> None:
        #: uid -> {successor uid: edge attributes}, rows insertion-ordered.
        self._succ: Dict[int, Dict[int, dict]] = {}
        #: uid -> {predecessor uid: the same attribute dict}.
        self._pred: Dict[int, Dict[int, dict]] = {}
        #: uid -> the instruction stored at that node.
        self._inst: Dict[int, Instruction] = {}
        self._txn: Optional[DagTransaction] = None
        self._entry_inst = Instruction(Opcode.ENTRY)
        self._exit_inst = Instruction(Opcode.EXIT)
        self.entry: int = self._add_node(self._entry_inst)
        self.exit: int = self._add_node(self._exit_inst)
        #: value name -> defining node uid (ENTRY for live-in values).
        self.value_defs: Dict[str, int] = {}
        #: value name -> uids of instructions that read it (may include EXIT).
        self.value_uses: Dict[str, List[int]] = {}
        self.live_out: FrozenSet[str] = frozenset()
        #: uids in original trace order (set by from_trace; spill nodes
        #: added later are appended by insert_spill).
        self.source_order: List[int] = []
        #: monotone structure version; bumped on every mutation.
        self.version: int = DependenceDAG._next_version()
        self._desc_cache: Optional[Dict[int, int]] = None
        self._mask_index: Optional[Dict[int, int]] = None
        self._mask_order: Optional[List[int]] = None
        self._topo_cache: Optional[List[int]] = None
        self._topo_version: int = -1
        self._asap_cache: Optional[Dict[int, int]] = None
        self._asap_version: int = -1
        #: (version, machine, values) — populated by reuse.collect_values.
        self._values_cache: Optional[tuple] = None
        #: (version, HammockAnalysis) — populated by HammockAnalysis.of.
        self._hammock_analysis = None

    # ==================================================================
    # Construction.
    # ==================================================================
    @classmethod
    def from_trace(
        cls,
        instructions: List[Instruction],
        side_exit_liveness: Optional[Mapping[int, FrozenSet[str]]] = None,
        live_out: Optional[Iterable[str]] = None,
        rename: bool = True,
    ) -> "DependenceDAG":
        """Build the dependence DAG of a straight-line trace.

        Args:
            instructions: the trace; ``BR``/``HALT`` terminators are ignored,
                ``CBR`` side exits become DAG nodes.
            side_exit_liveness: per-CBR-uid sets of values live at the
                branch's off-trace target; their definitions are pinned
                above the branch.
            live_out: values still needed after the trace falls through;
                they are "used" by EXIT.  Defaults to no values (memory is
                the only live-out channel), which matches store-terminated
                kernels.
            rename: rewrite the trace into single-assignment form first.
        """
        if rename:
            result = rename_trace(
                [i for i in instructions if i.op not in (Opcode.BR, Opcode.HALT)]
            )
            body = result.instructions
        else:
            body = [i for i in instructions if i.op not in (Opcode.BR, Opcode.HALT)]
            if not is_single_assignment(body):
                raise ValueError(
                    "trace is not single-assignment; pass rename=True"
                )

        dag = cls()
        side_exit_liveness = dict(side_exit_liveness or {})
        live_out_set = frozenset(live_out or ())

        for inst in body:
            dag._add_node(inst)
        dag.source_order = [inst.uid for inst in body]

        # Value definitions and data edges.
        for inst in body:
            if inst.dest is not None:
                dag.value_defs[inst.dest] = inst.uid
        for inst in body:
            # An instruction reading the same value in several operand
            # slots (e.g. ``x = b * b``) is still a single user node.
            for name in dict.fromkeys(inst.uses()):
                def_uid = dag.value_defs.get(name)
                if def_uid is None:
                    # Live-in: ENTRY is the defining node.
                    dag.value_defs[name] = dag.entry
                    def_uid = dag.entry
                if def_uid != inst.uid:
                    dag._add_edge(def_uid, inst.uid, EdgeKind.DATA, value=name)
                dag.value_uses.setdefault(name, []).append(inst.uid)

        # Memory ordering (conservative must/may-alias on symbolic cells).
        memory_ops = [i for i in body if i.is_memory]
        for i, first in enumerate(memory_ops):
            for second in memory_ops[i + 1:]:
                if not first.addr.may_alias(second.addr):
                    continue
                if first.is_memory_write or second.is_memory_write:
                    dag._add_edge(first.uid, second.uid, EdgeKind.SEQ, reason="mem")

        # Branch pinning: branches stay ordered; stores do not cross
        # branches in either direction; faulting ops (DIV/MOD) are never
        # hoisted above a branch (speculating them could trap on a path
        # the source never executes); values live at a side exit are
        # computed before the branch.
        branches = [i for i in body if i.op is Opcode.CBR]
        position = {inst.uid: pos for pos, inst in enumerate(body)}
        for earlier, later in zip(branches, branches[1:]):
            dag._add_edge(earlier.uid, later.uid, EdgeKind.SEQ, reason="branch-order")
        for branch in branches:
            branch_pos = position[branch.uid]
            for other in body:
                other_pos = position[other.uid]
                if other.is_memory_write:
                    if other_pos < branch_pos:
                        dag._add_edge(
                            other.uid, branch.uid, EdgeKind.SEQ,
                            reason="store-branch",
                        )
                    else:
                        dag._add_edge(
                            branch.uid, other.uid, EdgeKind.SEQ,
                            reason="branch-store",
                        )
                elif other.op in (Opcode.DIV, Opcode.MOD) and other_pos > branch_pos:
                    dag._add_edge(
                        branch.uid, other.uid, EdgeKind.SEQ,
                        reason="no-speculation",
                    )
            for name in side_exit_liveness.get(branch.uid, frozenset()):
                def_uid = dag.value_defs.get(name)
                if def_uid is not None and def_uid != branch.uid:
                    dag._add_edge(def_uid, branch.uid, EdgeKind.SEQ, reason="exit-live")

        # Live-out values are read by EXIT.
        dag.live_out = live_out_set
        for name in live_out_set:
            def_uid = dag.value_defs.get(name)
            if def_uid is None:
                dag.value_defs[name] = dag.entry
                def_uid = dag.entry
            dag._add_edge(def_uid, dag.exit, EdgeKind.DATA, value=name)
            dag.value_uses.setdefault(name, []).append(dag.exit)

        dag._connect_entry_exit()
        dag._invalidate()
        return dag

    def _connect_entry_exit(self) -> None:
        """Give every source an ENTRY predecessor and every sink an EXIT
        successor (ignoring the pseudo nodes themselves)."""
        for uid in list(self._succ):
            if uid in (self.entry, self.exit):
                continue
            if not self._pred[uid]:
                self._add_edge(self.entry, uid, EdgeKind.SEQ, reason="root")
            if not self._succ[uid]:
                self._add_edge(uid, self.exit, EdgeKind.SEQ, reason="leaf")
        if not self._succ[self.entry]:
            self._add_edge(self.entry, self.exit, EdgeKind.SEQ, reason="root")

    def _add_edge(self, src: int, dst: int, kind: EdgeKind, **attrs) -> None:
        if src == dst:
            raise CycleError(f"self edge on {src}")
        existing = self._succ[src].get(dst)
        if existing is not None:
            # DATA dominates SEQ; keep the stronger kind.  The upgrade
            # links a new dict: the old one is shared with copies and
            # with transaction snapshots.
            if existing["kind"] is EdgeKind.SEQ and kind is EdgeKind.DATA:
                self._link(src, dst, **{**existing, "kind": kind, **attrs})
            return
        self._link(src, dst, kind=kind, **attrs)

    def _link(self, src: int, dst: int, **attrs) -> None:
        """Store edge ``src -> dst`` with ``attrs`` (an existing edge keeps
        its row positions), journaled in an active transaction."""
        txn = self._txn
        if txn is not None:
            txn.record_row(self._succ[src])
            txn.record_row(self._pred[dst])
        self._succ[src][dst] = self._pred[dst][src] = attrs

    def _unlink(self, src: int, dst: int) -> None:
        """Delete edge ``src -> dst``, journaled in an active transaction."""
        txn = self._txn
        if txn is not None:
            txn.record_row(self._succ[src])
            txn.record_row(self._pred[dst])
        del self._succ[src][dst]
        del self._pred[dst][src]

    def _add_node(self, inst: Instruction) -> int:
        uid = inst.uid
        self._succ[uid] = {}
        self._pred[uid] = {}
        self._inst[uid] = inst
        if self._txn is not None:
            self._txn.record_node(uid)
        return uid

    def _remove_node(self, uid: int) -> None:
        """Drop ``uid`` and every edge touching it.  Not journaled:
        ``rollback`` uses it to drop the nodes a transaction added."""
        for succ in self._succ.pop(uid):
            del self._pred[succ][uid]
        for pred in self._pred.pop(uid):
            del self._succ[pred][uid]
        del self._inst[uid]

    def _set_instruction(self, uid: int, inst: Instruction) -> None:
        """Store ``inst`` at ``uid``, journaled in an active transaction."""
        if self._txn is not None:
            self._txn.record_instruction(uid, self._inst[uid])
        self._inst[uid] = inst

    def _journal_values(self, *names: str) -> None:
        txn = self._txn
        if txn is not None:
            for name in names:
                txn.record_value(name)

    # ==================================================================
    # Queries.
    # ==================================================================
    def __len__(self) -> int:
        return len(self._inst)

    def __contains__(self, uid: object) -> bool:
        return uid in self._inst

    def nodes(self) -> Iterator[int]:
        """Every uid (ENTRY and EXIT included), in insertion order."""
        return iter(self._inst)

    def op_nodes(self) -> List[int]:
        """Real instruction nodes, excluding ENTRY/EXIT, in topo order."""
        return [
            uid for uid in self.topological_order()
            if uid not in (self.entry, self.exit)
        ]

    def instruction(self, uid: int) -> Instruction:
        return self._inst[uid]

    def instructions(self) -> List[Instruction]:
        return [self.instruction(u) for u in self.op_nodes()]

    def edges(self) -> Iterator[Tuple[int, int, Mapping[str, object]]]:
        """Every edge as ``(src, dst, attributes)``: sources in node
        order, each source's successors in edge insertion order.  The
        attribute dicts are shared with copies; treat them as read-only."""
        for src, row in self._succ.items():
            for dst, attrs in row.items():
                yield src, dst, attrs

    def edge_data(self, src: int, dst: int) -> Optional[Mapping[str, object]]:
        """The (read-only) attributes of edge ``src -> dst``, or None."""
        row = self._succ.get(src)
        return None if row is None else row.get(dst)

    def has_edge(self, src: int, dst: int) -> bool:
        row = self._succ.get(src)
        return row is not None and dst in row

    def data_edges(self) -> List[Tuple[int, int, str]]:
        return [
            (u, v, d.get("value", ""))
            for u, v, d in self.edges()
            if d["kind"] is EdgeKind.DATA
        ]

    def preds(self, uid: int) -> List[int]:
        return list(self._pred[uid])

    def succs(self, uid: int) -> List[int]:
        return list(self._succ[uid])

    def topological_order(self) -> List[int]:
        """A deterministic topological order (by uid among ready nodes).

        Cached per ``version``: measurement makes several O(E) sweeps
        (closure, reuse DPs, ASAP, hammocks) that all start here.  The
        version key keeps the cache safe inside transactions — every
        ``add_sequence_edge`` bumps the version, and a new edge can
        invalidate an existing order even without changing reachability.
        An edge that points forward in the cached order leaves this
        min-uid Kahn order unchanged, so ``add_sequence_edge`` carries
        the cache over to the new version in that case.
        """
        if self._topo_cache is not None and self._topo_version == self.version:
            return list(self._topo_cache)
        order = self._topological_order_uncached()
        self._topo_cache = order
        self._topo_version = self.version
        return list(order)

    def _topological_order_uncached(self) -> List[int]:
        indegree = {u: len(row) for u, row in self._pred.items()}
        ready = sorted(u for u, d in indegree.items() if d == 0)
        order: List[int] = []
        import heapq

        heapq.heapify(ready)
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for v in self._succ[u]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    heapq.heappush(ready, v)
        if len(order) != len(indegree):
            raise CycleError("dependence graph contains a cycle")
        return order

    # ------------------------------------------------------------------
    # Reachability (bitmask transitive closure, cached).
    # ------------------------------------------------------------------
    def _closure(self) -> Dict[int, int]:
        if self._desc_cache is None:
            order = self.topological_order()
            index = {uid: i for i, uid in enumerate(order)}
            desc: Dict[int, int] = {uid: 0 for uid in order}
            for uid in reversed(order):
                mask = 0
                for succ in self._succ[uid]:
                    mask |= desc[succ] | (1 << index[succ])
                desc[uid] = mask
            self._desc_cache = desc
            self._mask_index = index
            self._mask_order = order
        return self._desc_cache

    def closure_masks(self) -> Tuple[Dict[int, int], Dict[int, int], List[int]]:
        """The cached transitive closure as packed bitmasks, plus the
        shared uid<->bit index table.

        Returns ``(desc, index, order)``: ``desc[uid]`` is the bitmask of
        ``uid``'s proper descendants, ``index[uid]`` the bit position of
        ``uid``, and ``order[bit]`` the inverse table (uids in topological
        order).  This is the *one* uid<->bit table the bitset measurement
        kernels share (``graph.bitset``, ``core.reuse``, ``core.kill``):
        masks produced against it compose with ``desc`` directly.

        The table is stable for a given ``version``; mutations outside a
        transaction rebuild it (possibly with a different bit layout), so
        callers must not cache index-space masks across versions.  Inside
        a :class:`DagTransaction` sequence edges maintain the masks in
        place, a node insertion sets the table aside for a rebuild, and
        ``rollback`` restores the original exactly — the table survives
        a trial unchanged.
        """
        desc = self._closure()
        assert self._mask_index is not None and self._mask_order is not None
        return desc, self._mask_index, self._mask_order

    def reaches(self, a: int, b: int) -> bool:
        """True when there is a (non-empty) path from ``a`` to ``b``."""
        desc = self._closure()
        return bool(desc[a] >> self._mask_index[b] & 1)

    def descendants(self, uid: int) -> Set[int]:
        desc = self._closure()
        mask = desc[uid]
        order = self._mask_order
        result = set()
        while mask:
            low = mask & -mask
            result.add(order[low.bit_length() - 1])
            mask ^= low
        return result

    def ancestors(self, uid: int) -> Set[int]:
        desc = self._closure()
        idx = self._mask_index[uid]
        return {u for u, mask in desc.items() if mask >> idx & 1}

    def independent(self, a: int, b: int) -> bool:
        """True when neither node reaches the other (they may run in
        parallel)."""
        return a != b and not self.reaches(a, b) and not self.reaches(b, a)

    def _expand_mask(self, mask: int) -> Set[int]:
        """Uids named by the bits of a closure mask."""
        self._closure()
        order = self._mask_order
        result: Set[int] = set()
        while mask:
            low = mask & -mask
            result.add(order[low.bit_length() - 1])
            mask ^= low
        return result

    def _invalidate(self) -> None:
        if self._txn is not None:
            self._txn.set_aside_closure()
        self.version = DependenceDAG._next_version()
        self._desc_cache = None
        self._mask_index = None
        self._mask_order = None

    # ------------------------------------------------------------------
    # Transactions (undo journal; see DagTransaction).
    # ------------------------------------------------------------------
    def begin_transaction(self) -> DagTransaction:
        """Open a transaction; nesting is not allowed.

        The transitive closure is warmed first so every subsequent
        ``add_sequence_edge`` can maintain it incrementally and record
        per-node undo deltas.
        """
        if self._txn is not None:
            raise TransactionError("a transaction is already active")
        self._closure()
        self._txn = DagTransaction(self)
        return self._txn

    @property
    def transaction(self) -> Optional[DagTransaction]:
        """The active transaction, or None."""
        return self._txn

    def _closure_add_edge(self, src: int, dst: int, txn: DagTransaction) -> None:
        """Incrementally fold edge ``src -> dst`` into the warm closure:
        ``src`` and all its ancestors gain ``dst`` and ``dst``'s
        descendants.  Old masks are journaled for rollback."""
        desc = self._desc_cache
        index = self._mask_index
        add_mask = desc[dst] | (1 << index[dst])
        src_bit = index[src]
        for uid, mask in desc.items():
            if uid != src and not (mask >> src_bit & 1):
                continue
            new = mask | add_mask
            if new != mask:
                txn.record_mask(uid, mask)
                desc[uid] = new

    # ------------------------------------------------------------------
    # Timing.
    # ------------------------------------------------------------------
    def asap(
        self, latency: Optional[Callable[[Instruction], int]] = None
    ) -> Dict[int, int]:
        """Earliest start cycle per node along longest paths from ENTRY."""
        if latency is None and self._asap_version == self.version:
            return dict(self._asap_cache)  # type: ignore[arg-type]
        lat = latency or (lambda inst: 0 if inst.is_pseudo else 1)
        order = self.topological_order()
        # One latency lookup per node (not per edge), then a plain dict DP.
        pred_of = self._pred
        inst_of = self._inst
        ready: Dict[int, int] = {}
        start: Dict[int, int] = {}
        for uid in order:
            best = 0
            for pred in pred_of[uid]:
                r = ready[pred]
                if r > best:
                    best = r
            start[uid] = best
            ready[uid] = best + lat(inst_of[uid])
        if latency is None:
            self._asap_cache = start
            self._asap_version = self.version
            return dict(start)
        return start

    def alap(
        self, latency: Optional[Callable[[Instruction], int]] = None
    ) -> Dict[int, int]:
        """Latest start cycle per node that still meets the critical path."""
        lat = latency or (lambda inst: 0 if inst.is_pseudo else 1)
        asap = self.asap(latency)
        horizon = asap[self.exit]
        late: Dict[int, int] = {}
        for uid in reversed(self.topological_order()):
            succs = self._succ[uid]
            own = lat(self.instruction(uid))
            if not succs:
                late[uid] = horizon - own
            else:
                late[uid] = min(late[s] for s in succs) - own
        return late

    def critical_path_length(
        self, latency: Optional[Callable[[Instruction], int]] = None
    ) -> int:
        """Length (cycles) of the longest path through the DAG."""
        return self.asap(latency)[self.exit]

    # ==================================================================
    # Mutation (URSA transformations).
    # ==================================================================
    def add_sequence_edge(self, src: int, dst: int, reason: str = "ursa") -> bool:
        """Add a sequentialization edge ``src -> dst``.

        Returns False when the edge already exists or is implied
        (``src`` already reaches ``dst``); raises :class:`CycleError`
        when it would create a cycle.
        """
        if src == dst:
            raise CycleError("cannot sequence a node after itself")
        if self.reaches(dst, src):
            raise CycleError(f"edge {src}->{dst} would create a cycle")
        if dst in self._succ[src]:
            return False
        redundant = self.reaches(src, dst)
        order = self._topo_cache
        keeps_order = (
            order is not None
            and self._topo_version == self.version
            and order.index(src) < order.index(dst)
        )
        self._link(src, dst, kind=EdgeKind.SEQ, reason=reason)
        txn = self._txn
        if txn is not None:
            # Journaled: maintain the closure in place (a redundant edge
            # changes no reachability, but dominators — hence hammocks —
            # may shift, so the version still moves).
            txn.record_edge(src, dst)
            if not redundant:
                self._closure_add_edge(src, dst, txn)
            self.version = DependenceDAG._next_version()
        else:
            self._invalidate()
        if keeps_order:
            # ``dst`` only becomes ready later than before, and it was
            # never the smallest ready uid before ``src`` was taken, so
            # the min-uid Kahn order is unchanged.
            self._topo_version = self.version
        return not redundant

    def would_cycle(self, src: int, dst: int) -> bool:
        return src == dst or self.reaches(dst, src)

    def replace_instruction(self, uid: int, new_inst: Instruction) -> None:
        """Swap the instruction stored at ``uid`` (uid must be unchanged)."""
        if new_inst.uid != uid:
            raise ValueError("replacement must preserve the uid")
        self._set_instruction(uid, new_inst)

    def _retarget_uses(
        self, value: str, new_uid: int, new_name: str, late: List[int]
    ) -> None:
        """Make every use in ``late`` read ``new_name`` (defined by
        ``new_uid``) instead of ``value``."""
        def_uid = self.value_defs[value]
        self._journal_values(value, new_name)
        for use_uid in late:
            if use_uid == self.exit:
                # Live-out read: retarget the EXIT data edge.
                if self.exit in self._succ[def_uid]:
                    self._unlink(def_uid, self.exit)
            else:
                old = self.instruction(use_uid)
                rewritten = old.with_renamed_uses({value: new_name})
                self.replace_instruction(use_uid, rewritten)
                data = self._succ[def_uid].get(use_uid)
                if (
                    data is not None
                    and data["kind"] is EdgeKind.DATA
                    and data.get("value") == value
                ):
                    self._unlink(def_uid, use_uid)
            self._link(new_uid, use_uid, kind=EdgeKind.DATA, value=new_name)
            self.value_uses[value] = [
                u for u in self.value_uses.get(value, []) if u != use_uid
            ]
            self.value_uses.setdefault(new_name, []).append(use_uid)

        if value in self.live_out and self.exit in late:
            if self._txn is not None:
                self._txn.record_live_out()
            self.live_out = (self.live_out - {value}) | {new_name}

    def insert_spill(
        self,
        value: str,
        late_uses: Iterable[int],
        spill_addr: Addr,
        reload_name: Optional[str] = None,
    ) -> Tuple[int, int, str]:
        """Split ``value``'s live range with a spill/reload pair.

        A ``SPILL`` node is added fed by the value's definition; a
        ``RELOAD`` node defines ``reload_name`` (default ``value+"@r"``);
        every use in ``late_uses`` is rewritten to read the reloaded
        value.  The caller is responsible for adding the sequence edges
        that position the pair (before/after the stage being protected).

        Returns ``(spill_uid, reload_uid, reload_name)``.
        """
        def_uid = self.value_defs[value]
        # Normalize once: tolerate generators and repeated use uids
        # (retargeting the same use twice would double-count it).
        late = list(dict.fromkeys(late_uses))
        if reload_name is None:
            new_name = f"{value}@r"
            suffix = 0
            while new_name in self.value_defs:
                suffix += 1
                new_name = f"{value}@r{suffix}"
        else:
            new_name = reload_name
        if new_name in self.value_defs:
            raise ValueError(f"reload name {new_name!r} already defined")

        spill_uid = self._add_node(
            Instruction(Opcode.SPILL, srcs=(Var(value),), addr=spill_addr)
        )
        reload_uid = self._add_node(
            Instruction(Opcode.RELOAD, dest=new_name, addr=spill_addr)
        )
        self._link(def_uid, spill_uid, kind=EdgeKind.DATA, value=value)
        # True memory dependence spill -> reload (same cell).
        self._link(spill_uid, reload_uid, kind=EdgeKind.SEQ, reason="spill-mem")
        self._journal_values(value, new_name)
        self.value_uses.setdefault(value, []).append(spill_uid)
        self.value_defs[new_name] = reload_uid

        self._retarget_uses(value, reload_uid, new_name, late)
        self.source_order.extend((spill_uid, reload_uid))
        self._connect_entry_exit()
        self._invalidate()
        return spill_uid, reload_uid, new_name

    def insert_remat(
        self,
        value: str,
        late_uses: Iterable[int],
        remat_name: Optional[str] = None,
    ) -> Tuple[int, str]:
        """Split ``value``'s live range by *recomputing* it.

        A clone of the defining instruction is added under a fresh name
        and every use in ``late_uses`` is retargeted at the clone — the
        register-pressure effect of a spill/reload pair without the
        memory traffic.  The caller is responsible for (a) only cloning
        instructions that are safe to re-execute at any later point
        (constants always; loads only when no store may alias them) and
        (b) adding the sequence edges that delay the clone.

        Returns ``(remat_uid, remat_name)``.
        """
        def_uid = self.value_defs[value]
        original = self.instruction(def_uid)
        if original.dest != value:
            raise ValueError(f"{value!r} is not defined by node {def_uid}")
        # Normalize once: ``late_uses`` may be a generator, and a
        # repeated use uid must only be retargeted once.
        late = list(dict.fromkeys(late_uses))

        if remat_name is None:
            remat_name = f"{value}@m"
            suffix = 0
            while remat_name in self.value_defs:
                suffix += 1
                remat_name = f"{value}@m{suffix}"

        clone = replace(original, dest=remat_name).fresh_copy()
        self._add_node(clone)
        self._journal_values(remat_name, *clone.uses())
        self.value_defs[remat_name] = clone.uid
        for name in dict.fromkeys(clone.uses()):
            src_uid = self.value_defs[name]
            if src_uid != clone.uid:
                self._add_edge(src_uid, clone.uid, EdgeKind.DATA, value=name)
            self.value_uses.setdefault(name, []).append(clone.uid)
        # Re-executing a load must still follow any may-aliasing writes.
        if clone.is_memory_read:
            for uid in self.op_nodes():
                other = self.instruction(uid)
                if (
                    other.is_memory_write
                    and other.addr is not None
                    and other.addr.may_alias(clone.addr)
                    and not self.reaches(clone.uid, uid)
                ):
                    self._add_edge(uid, clone.uid, EdgeKind.SEQ, reason="mem")

        self._retarget_uses(value, clone.uid, remat_name, late)
        self.source_order.append(clone.uid)
        self._connect_entry_exit()
        self._invalidate()
        return clone.uid, remat_name

    # ==================================================================
    # Copying and verification.
    # ==================================================================
    def copy(self) -> "DependenceDAG":
        """A structural copy sharing the (immutable) Instruction objects
        and edge-attribute dicts; only the rows are new.

        A warm transitive closure is carried over (the masks are copied;
        the uid<->bit tables are never mutated, so they are shared), so
        edits journaled in a transaction on the copy maintain it
        incrementally instead of rebuilding it from scratch.  A current
        topological order and latency-free ASAP cache are carried to the
        copy's version too: the copy has the same nodes and edges, so
        min-uid Kahn gives the same order, and the caches are never
        changed in place, so they are shared.
        """
        clone = DependenceDAG.__new__(DependenceDAG)
        clone._succ = {uid: dict(row) for uid, row in self._succ.items()}
        clone._pred = {uid: dict(row) for uid, row in self._pred.items()}
        clone._inst = dict(self._inst)
        clone._entry_inst = self._entry_inst
        clone._exit_inst = self._exit_inst
        clone.entry = self.entry
        clone.exit = self.exit
        clone.value_defs = dict(self.value_defs)
        clone.value_uses = {k: list(v) for k, v in self.value_uses.items()}
        clone.live_out = self.live_out
        clone.source_order = list(self.source_order)
        clone.version = DependenceDAG._next_version()
        clone._txn = None
        warm = self._desc_cache is not None
        clone._desc_cache = dict(self._desc_cache) if warm else None
        clone._mask_index = self._mask_index
        clone._mask_order = self._mask_order
        topo_current = self._topo_version == self.version
        clone._topo_cache = self._topo_cache if topo_current else None
        clone._topo_version = clone.version if topo_current else -1
        asap_current = self._asap_version == self.version
        clone._asap_cache = self._asap_cache if asap_current else None
        clone._asap_version = clone.version if asap_current else -1
        clone._values_cache = None
        clone._hammock_analysis = None
        return clone

    def linearize(self) -> List[Instruction]:
        """Any topological order of the real instructions (a legal
        sequential schedule of the transformed trace)."""
        return [self.instruction(u) for u in self.op_nodes()]

    def __str__(self) -> str:
        lines = [f"DAG with {len(self.op_nodes())} ops"]
        for uid in self.op_nodes():
            succs = ", ".join(
                f"{s}{'*' if data['kind'] is EdgeKind.SEQ else ''}"
                for s, data in self._succ[uid].items()
                if s != self.exit
            )
            lines.append(f"  [{uid}] {self.instruction(uid)} -> {succs}")
        return "\n".join(lines)
