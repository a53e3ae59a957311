"""Spill-introducing register transformation (paper §4.3).

When sequencing cannot free registers — values such as the paper's D
stay live across every stage split — a value is stored to memory right
after its definition and reloaded once SD1 has finished, trading memory
traffic for register pressure.  Unlike sequencing, this transformation
can always be applied.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import obs
from repro.core.measure import ExcessiveChainSet, ResourceKind
from repro.core.transforms.base import (
    TransformCandidate,
    delay_closes_cycle,
    maximal_nodes,
    minimal_nodes,
)
from repro.graph import bitset
from repro.graph.dag import DependenceDAG
from repro.ir.instructions import Addr

#: Memory base for transformation-introduced spill slots.  Distinct
#: from the assignment-phase scheduler's ``%spill`` base so the two slot
#: numberings can never alias each other's cells.
URSA_SPILL_BASE = "%ursa"

#: At most this many victim values are proposed per excessive set.
MAX_SPILL_CANDIDATES = 6


def spill_slot_for(dag: DependenceDAG, def_uid: int) -> Addr:
    """A spill slot unique to the spilled value's defining node.

    Slots are numbered by the node's *source rank*, not its raw uid, so
    logically identical compilations produce identical code regardless
    of the global uid counter's state.
    """
    order = dag.source_order or sorted(dag.op_nodes())
    try:
        slot = order.index(def_uid)
    except ValueError:
        slot = len(order) + def_uid % 1024
    return Addr(URSA_SPILL_BASE, slot)


def _frontier_after(
    dag: DependenceDAG,
    ecs: ExcessiveChainSet,
    excluded: str,
) -> List[int]:
    """Kill frontier of every excessive value except ``excluded``."""
    kill = ecs.requirement.kill
    nodes: List[int] = []
    for chain in ecs.chains:
        for name in chain:
            if name == excluded:
                continue
            nodes.append(ecs.requirement.element_node[name])
            killer = kill[name]
            if killer != dag.exit:
                nodes.append(killer)
    return maximal_nodes(dag, nodes)


def propose_spills(
    dag: DependenceDAG,
    ecs: ExcessiveChainSet,
    depth: Dict[int, int],
) -> List[TransformCandidate]:
    """Spill candidates: one per plausible victim value.

    A victim's value is spilled immediately after its definition; its
    reload is sequenced after the kill frontier of the remaining
    excessive values (SD1), and every use that is not itself needed by
    SD1 is retargeted at the reloaded value.  A candidate that would
    certainly close a cycle (:func:`delay_closes_cycle`) is screened out
    and counted, not returned.  ``depth`` is ``dag.asap()``.
    """
    if ecs.kind is not ResourceKind.REGISTER or ecs.excess <= 0:
        return []

    element_node = ecs.requirement.element_node
    values = ecs.requirement.values or {}
    desc, index, _ = dag.closure_masks()

    # Victims: heads of the excessive chains (their lifetimes start the
    # contention), ranked shallow-definition-first — a value defined early
    # and used late (the paper's D) is the model victim.
    victims: List[str] = []
    for chain in ecs.chains:
        victims.extend(chain)
    kill = ecs.requirement.kill

    def victim_rank(name: str) -> Tuple:
        def_uid = element_node[name]
        killer = kill[name]
        killer_depth = depth.get(killer, 1 << 30)
        # Long live ranges first (early def, late kill).
        return (depth[def_uid] - killer_depth, depth[def_uid], name)

    victims.sort(key=victim_rank)
    candidates: List[TransformCandidate] = []
    screened = 0

    def make_edits(
        victim: str,
        victim_def: int,
        uses: List[int],
        frontier_nodes: List[int],
        roots: List[int],
    ):
        def edits(target: DependenceDAG) -> None:
            spill_uid, reload_uid, _ = target.insert_spill(
                victim, uses, spill_slot_for(target, victim_def)
            )
            for node in frontier_nodes:
                if not target.reaches(node, reload_uid):
                    target.add_sequence_edge(
                        node, reload_uid, reason="ursa-spill-delay"
                    )
            # The spill happens before SD1 claims the register file.
            for root in roots:
                if not target.would_cycle(spill_uid, root) and not (
                    target.reaches(spill_uid, root)
                ):
                    target.add_sequence_edge(
                        spill_uid, root, reason="ursa-spill-early"
                    )

        return edits

    for name in victims[:MAX_SPILL_CANDIDATES]:
        info = values.get(name)
        if info is None or not info.use_uids:
            continue  # dead or unknown values cannot benefit from a spill
        def_uid = element_node[name]
        frontier = _frontier_after(dag, ecs, name)
        # Uses that may be delayed until after SD1: those with no path
        # back into the frontier (a use feeding SD1 must keep reading the
        # original register).
        frontier_mask = bitset.mask_of(index[s] for s in frontier)
        late_uses = [
            use for use in info.use_uids if not desc[use] & frontier_mask
        ]
        if not late_uses:
            continue
        if delay_closes_cycle(late_uses, frontier):
            screened += 1
        else:
            sd1_roots = minimal_nodes(
                dag,
                [
                    element_node[v]
                    for chain in ecs.chains
                    for v in chain
                    if v != name
                ],
            )
            candidates.append(
                TransformCandidate(
                    kind="spill",
                    description=(
                        f"spill {name} (def {def_uid}) across the kill "
                        f"frontier {frontier}"
                    ),
                    base_dag=dag,
                    edits=make_edits(
                        name, def_uid, late_uses, frontier, sd1_roots
                    ),
                    spills_added=1,
                    preference=1,
                )
            )

        # A lighter variant: park the value across a *single* other
        # lifetime (the shallowest kill) instead of the whole frontier —
        # frees one register with minimal critical-path cost.
        single = _shallowest_other_kill(dag, ecs, name, depth)
        if single is not None and single not in frontier:
            single_bit = 1 << index[single]
            light_uses = [
                use for use in info.use_uids if not desc[use] & single_bit
            ]
            if not light_uses:
                continue
            if delay_closes_cycle(light_uses, (single,)):
                screened += 1
                continue
            candidates.append(
                TransformCandidate(
                    kind="spill",
                    description=(
                        f"spill {name} (def {def_uid}) across the "
                        f"lifetime ending at {single}"
                    ),
                    base_dag=dag,
                    edits=make_edits(name, def_uid, light_uses, [single], []),
                    spills_added=1,
                    preference=1,
                )
            )
    obs.count("transform.spill.proposed", len(candidates))
    obs.count("transform.spill.screened", screened)
    return candidates


def _shallowest_other_kill(
    dag: DependenceDAG,
    ecs: ExcessiveChainSet,
    excluded: str,
    depth,
) -> int:
    """The shallowest kill node among the other excessive values."""
    kill = ecs.requirement.kill
    best = None
    for chain in ecs.chains:
        for name in chain:
            if name == excluded:
                continue
            killer = kill[name]
            if killer == dag.exit:
                continue
            if best is None or depth.get(killer, 0) < depth.get(best, 0):
                best = killer
    return best
