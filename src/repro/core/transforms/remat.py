"""Rematerialization: recompute instead of spill (a §5-inspired twist).

Section 5 observes that an introduced reload "may require an additional
functional unit" and memory traffic; when the pressured value is a
constant — or a load no store can alias — recomputing it later costs
one FU slot and *no* memory round trip.  This transformation clones the
definition under a new name, retargets the late uses, and delays the
clone past the kill frontier exactly like the spill transform delays
its reload.
"""

from __future__ import annotations

from typing import Dict, List

from repro import obs
from repro.core.measure import ExcessiveChainSet, ResourceKind
from repro.core.transforms.base import TransformCandidate, delay_closes_cycle
from repro.core.transforms.spill import _frontier_after
from repro.graph import bitset
from repro.graph.dag import DependenceDAG
from repro.ir.opcodes import Opcode

#: At most this many remat victims proposed per excessive set.
MAX_REMAT_CANDIDATES = 4


def is_rematerializable(dag: DependenceDAG, value: str) -> bool:
    """True when re-executing ``value``'s definition is always safe.

    Constants always are.  A load is safe only when no memory write in
    the trace may alias its address (otherwise the recomputed load could
    observe a different value than the original).
    """
    def_uid = dag.value_defs.get(value)
    if def_uid is None or def_uid == dag.entry:
        return False
    inst = dag.instruction(def_uid)
    if inst.op is Opcode.CONST:
        return True
    if inst.op is Opcode.LOAD:
        for uid in dag.op_nodes():
            other = dag.instruction(uid)
            if (
                other.is_memory_write
                and other.addr is not None
                and other.addr.may_alias(inst.addr)
            ):
                return False
        return True
    return False


def propose_rematerializations(
    dag: DependenceDAG,
    ecs: ExcessiveChainSet,
    depth: Dict[int, int],
) -> List[TransformCandidate]:
    """Remat candidates for constant/reloadable values in the excess.

    A candidate that would certainly close a cycle
    (:func:`delay_closes_cycle`) is screened out and counted, not
    returned; it still counts toward :data:`MAX_REMAT_CANDIDATES`, so
    screening never lets a later victim in.  ``depth`` is
    ``dag.asap()``.
    """
    if ecs.kind is not ResourceKind.REGISTER or ecs.excess <= 0:
        return []
    element_node = ecs.requirement.element_node
    values = ecs.requirement.values or {}

    from repro.core.transforms.spill import _shallowest_other_kill

    desc, index, _ = dag.closure_masks()

    def make_edits(victim: str, uses: List[int], delays: List[int]):
        def edits(target: DependenceDAG) -> None:
            remat_uid, _ = target.insert_remat(victim, uses)
            for node in delays:
                if not target.reaches(node, remat_uid):
                    target.add_sequence_edge(
                        node, remat_uid, reason="ursa-remat-delay"
                    )

        return edits

    candidates: List[TransformCandidate] = []
    proposed = screened = 0
    for name in (name for chain in ecs.chains for name in chain):
        if proposed >= MAX_REMAT_CANDIDATES:
            break
        if not is_rematerializable(dag, name):
            continue
        info = values.get(name)
        if info is None or not info.use_uids:
            continue

        # Heavy variant: clone after the whole kill frontier.
        frontier = _frontier_after(dag, ecs, name)
        frontier_mask = bitset.mask_of(index[s] for s in frontier)
        late_uses = [
            use for use in info.use_uids if not desc[use] & frontier_mask
        ]
        if late_uses:
            proposed += 1
            if delay_closes_cycle(late_uses, frontier):
                screened += 1
                continue
            candidates.append(
                TransformCandidate(
                    kind="remat",
                    description=(
                        f"rematerialize {name} past the kill frontier "
                        f"{frontier}"
                    ),
                    base_dag=dag,
                    edits=make_edits(name, late_uses, frontier),
                    spills_added=0,
                    preference=1,
                )
            )
            continue

        # Light variant: park the recomputation past a single other
        # lifetime (needed for single-use values, whose only use is
        # usually downstream of the full frontier).
        single = _shallowest_other_kill(dag, ecs, name, depth)
        if single is None:
            continue
        single_bit = 1 << index[single]
        light_uses = [
            use for use in info.use_uids if not desc[use] & single_bit
        ]
        if not light_uses:
            continue
        proposed += 1
        if delay_closes_cycle(light_uses, (single,)):
            screened += 1
            continue
        candidates.append(
            TransformCandidate(
                kind="remat",
                description=(
                    f"rematerialize {name} after the lifetime ending "
                    f"at {single}"
                ),
                base_dag=dag,
                edits=make_edits(name, light_uses, [single]),
                spills_added=0,
                preference=1,
            )
        )
    obs.count("transform.remat.proposed", len(candidates))
    obs.count("transform.remat.screened", screened)
    return candidates
