"""Reuse relations: ``CanReuse_FU`` and ``CanReuse_Reg`` (paper §3).

Both resources are measured through the same machinery — a strict
partial order whose width (by Dilworth/Theorem 1) is the worst-case
requirement over *all* legal schedules — but the relation differs:

* A functional unit is busy only while its instruction executes, and the
  machine is non-pipelined, so ``(a, b) ∈ CanReuse_FU`` iff ``b`` is a
  descendant of ``a`` in the program DAG (§3.2).
* A register holds a value from its definition until the *killing* use
  executes, so ``(a, b) ∈ CanReuse_Reg`` iff ``b``'s definition is
  ``Kill(a)`` or one of its descendants (Definition 3).  Choosing
  ``Kill`` to reflect the worst case is NP-complete (Theorem 2) and is
  handled by :mod:`repro.core.kill`.

Register elements are *values* rather than nodes: this generalizes the
paper's one-value-per-node model to traces with live-in values (defined
by the virtual ENTRY node) without changing the mathematics.

The orders are built directly in bitmask form: one reverse-topological
sweep (:func:`_element_reach`) computes, per DAG node, the *element
bitmask* reachable below it, so each relation costs O(E) big-int ORs
instead of one descendant-set expansion per element.  The original
per-element loops live on in :mod:`repro.reference`; both constructions
produce the identical relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Tuple

from repro.graph import bitset
from repro.graph.dag import DependenceDAG
from repro.graph.dilworth import PartialOrder
from repro.machine.model import MachineModel


_BY_NAME = attrgetter("name")


@dataclass(frozen=True)
class ValueInfo:
    """A register-resident value: its definition and its uses."""

    name: str
    def_uid: int
    use_uids: Tuple[int, ...]
    reg_class: str = "gpr"

    @property
    def is_dead(self) -> bool:
        return not self.use_uids


def collect_values(
    dag: DependenceDAG,
    machine: Optional[MachineModel] = None,
) -> List[ValueInfo]:
    """Enumerate every value in the DAG with its definition and uses.

    Values are classified into register classes via the machine model
    (default: everything in ``"gpr"``).  Inside a transaction whose
    start version had its values collected for the same machine, only
    the values the transaction touched are collected again and merged
    into that list by name.
    """
    cached = dag._values_cache
    if (
        cached is not None
        and cached[0] == dag.version
        and cached[1] is machine
    ):
        return list(cached[2])
    classify = machine.reg_class_of if machine is not None else (lambda name: "gpr")
    value_defs = dag.value_defs
    value_uses = dag.value_uses

    def info(name: str) -> ValueInfo:
        def_uid = value_defs[name]
        uses = tuple(sorted(set(value_uses.get(name, ())) - {def_uid}))
        return ValueInfo(name, def_uid, uses, classify(name))

    txn = dag.transaction
    base = None if txn is None else txn.base_values
    if base is not None and base[0] == txn.base_version and base[1] is machine:
        touched = txn.touched_values()
        values = [v for v in base[2] if v.name not in touched]
        values.extend(
            info(name) for name in sorted(touched) if name in value_defs
        )
        # Two sorted runs with unique names: one merge pass.
        values.sort(key=_BY_NAME)
    else:
        values = [info(name) for name in sorted(value_defs)]
    # ValueInfo is frozen and the enumeration is a pure function of the
    # DAG's def/use tables, so a version-keyed cache (invalidated by any
    # graph edit, like the topo/hammock caches) is safe; callers get a
    # fresh list so they may filter/extend freely.
    dag._values_cache = (dag.version, machine, values)
    return list(values)


def fu_elements(dag: DependenceDAG, machine: MachineModel, fu_class: str) -> List[int]:
    """Op nodes that execute on ``fu_class`` under ``machine``."""
    instruction = dag.instruction
    fu_class_for = machine.fu_class_for
    result = []
    for uid in dag.op_nodes():
        if fu_class_for(instruction(uid).op).name == fu_class:
            result.append(uid)
    return result


def _element_reach(
    dag: DependenceDAG, seed_bits: Mapping[int, int]
) -> Dict[int, int]:
    """Per DAG node, the OR of ``seed_bits`` over its *proper*
    descendants — the element-space reachability mask.

    One reverse-topological sweep over the DAG edges; ``seed_bits``
    attaches element bits (in whatever element universe the caller is
    building) to the nodes that carry them.
    """
    succs = dag.succs
    get_seed = seed_bits.get
    down: Dict[int, int] = {}
    # carry[v] = down[v] | seed(v), folded once per node, not per edge.
    carry: Dict[int, int] = {}
    for uid in reversed(dag.topological_order()):
        mask = 0
        for succ in succs(uid):
            mask |= carry[succ]
        down[uid] = mask
        carry[uid] = mask | get_seed(uid, 0)
    return down


# ======================================================================
# CanReuse_FU.
# ======================================================================
def can_reuse_fu(dag: DependenceDAG, elements: List[int]) -> PartialOrder:
    """``CanReuse_FU`` restricted to ``elements``: DAG reachability.

    Reachability may pass through nodes outside ``elements`` (a multiply
    can reuse a unit freed by an op reached through ALU work).
    """
    seed_bits = {uid: 1 << i for i, uid in enumerate(elements)}
    down = _element_reach(dag, seed_bits)
    return PartialOrder.from_masks(elements, [down[a] for a in elements])


# ======================================================================
# CanReuse_Reg (sound over-approximation).
# ======================================================================
def can_reuse_registers_sound(
    dag: DependenceDAG,
    values: List[ValueInfo],
) -> PartialOrder:
    """The provably-sound variant of ``CanReuse_Reg``.

    ``(u, w)`` is included only when ``w``'s definition follows *every*
    maximal use of ``u`` — then ``u`` is dead before ``w`` exists in
    every legal schedule, so the width of this order upper-bounds the
    realized register pressure of any schedule.  The paper's ``Kill()``
    relation (one chosen killer per value) is tighter but heuristic: its
    width can fall below the true worst case (Theorem 2), which is the
    leakage the assignment phase must absorb.
    """
    names = [v.name for v in values]
    def_bits_at: Dict[int, int] = {}
    for i, v in enumerate(values):
        def_bits_at[v.def_uid] = def_bits_at.get(v.def_uid, 0) | (1 << i)
    down = _element_reach(dag, def_bits_at)
    desc, node_index, _ = dag.closure_masks()

    masks: List[int] = []
    for i, u in enumerate(values):
        uses = u.use_uids
        if not uses:
            # Dead value: free as soon as it is written.
            masks.append(down[u.def_uid] & ~(1 << i))
            continue
        use_mask = bitset.mask_of(node_index[m] for m in uses)
        # A use that reaches another use never executes last.
        maximal = [m for m in uses if not (desc[m] & use_mask)]
        if dag.exit in maximal:
            masks.append(0)  # live-out: never reusable
            continue
        mask = -1
        for m in maximal:
            # w's def at m itself also counts ("m == dw").
            mask &= down[m] | def_bits_at.get(m, 0)
        masks.append(mask & ~(1 << i))
    return PartialOrder.from_masks(names, masks)


# ======================================================================
# CanReuse_Reg under a Kill() assignment.
# ======================================================================
def can_reuse_registers(
    dag: DependenceDAG,
    values: List[ValueInfo],
    kill: Mapping[str, int],
) -> PartialOrder:
    """``CanReuse_Reg`` over value names, given a ``Kill`` assignment.

    ``(u, w)`` is in the relation iff ``w``'s defining node is ``Kill(u)``
    or a descendant of it: in no legal schedule can ``w`` be computed
    while ``u``'s register is still needed.
    """
    names = [v.name for v in values]
    def_bits_at: Dict[int, int] = {}
    for i, v in enumerate(values):
        def_bits_at[v.def_uid] = def_bits_at.get(v.def_uid, 0) | (1 << i)
    down = _element_reach(dag, def_bits_at)

    masks: List[int] = []
    for i, u in enumerate(values):
        killer = kill[u.name]
        if killer == u.def_uid:
            # Dead value: its register is free the moment it is written;
            # any proper descendant of the definition can reuse it.
            mask = down[u.def_uid]
        else:
            # Defs at the killer itself ("dw == killer") or below it.
            mask = down[killer] | def_bits_at.get(killer, 0)
        masks.append(mask & ~(1 << i))
    return PartialOrder.from_masks(names, masks)
