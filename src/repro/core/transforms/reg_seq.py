"""Register sequentialization (paper §4.2).

Delays a *nonsupporting* sub-DAG SD2 (a subset of the excessive value
chains) until after SD1 (the rest) has finished using its registers: the
hammock splits into two stages and the requirement becomes
``max(Chains(Stage1), Chains(Stage2))``.  The sequence edges run from
the nodes that end SD1's register lifetimes (the kill frontier — node I
in the paper's example) to the roots of SD2.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from repro import obs
from repro.core.measure import ExcessiveChainSet, ResourceKind
from repro.core.transforms.base import (
    TransformCandidate,
    edges_close_cycle,
    maximal_nodes,
    minimal_nodes,
)
from repro.graph import bitset
from repro.graph.dag import DependenceDAG

#: Enumerate all SD2 subsets when the chain count is at most this.
MAX_ENUMERATED_SUBSETS = 40


def _kill_frontier(
    dag: DependenceDAG,
    values: Sequence[str],
    ecs: ExcessiveChainSet,
) -> List[int]:
    """Nodes after which all of ``values``' registers are free: the
    maximal elements among their definitions and kill nodes."""
    kill = ecs.requirement.kill
    nodes: List[int] = []
    for name in values:
        def_uid = ecs.requirement.element_node[name]
        nodes.append(def_uid)
        killer = kill[name]
        if killer != dag.exit:
            nodes.append(killer)
    return maximal_nodes(dag, nodes)


def _candidate_subsets(
    ecs: ExcessiveChainSet,
    size: int,
    depth: Dict[int, int],
) -> List[Tuple[int, ...]]:
    """Index subsets of the excessive chains to try as SD2.

    Chains whose definitions sit deepest are the natural ones to delay;
    enumerate everything when small, otherwise combinations drawn from
    the deepest few chains.
    """
    indices = list(range(len(ecs.chains)))

    def chain_depth(i: int) -> int:
        return min(depth[ecs.requirement.element_node[v]] for v in ecs.chains[i])

    ranked = sorted(indices, key=lambda i: (-chain_depth(i), i))
    from math import comb

    if comb(len(indices), size) <= MAX_ENUMERATED_SUBSETS:
        pool = indices
    else:
        pool = ranked[: size + 4]
    return list(itertools.combinations(sorted(pool), size))[:MAX_ENUMERATED_SUBSETS]


def _component_candidates(
    dag: DependenceDAG,
    ecs: ExcessiveChainSet,
    depth: Dict[int, int],
) -> List[TransformCandidate]:
    """Stage whole weakly-connected components of the DAG.

    Unrolled loops, butterflies, and other replicated structures appear
    as disconnected op-subgraphs; delaying entire later components after
    earlier ones is the cleanest register sequentialization available —
    nonsupport holds trivially and no cycles are possible.
    """
    op_nodes = dag.op_nodes()
    op_set = set(op_nodes)
    seen = set()
    components: List[List[int]] = []
    for start in op_nodes:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for uid in comp:  # grows while scanned: a BFS over op-op edges
            for other in dag.succs(uid) + dag.preds(uid):
                if other in op_set and other not in seen:
                    seen.add(other)
                    comp.append(other)
        components.append(sorted(comp))
    if len(components) < 2:
        return []

    components.sort(key=lambda c: (min(depth[n] for n in c), c[0]))
    comp_values: List[List[str]] = []
    for comp in components:
        comp_set = set(comp)
        comp_values.append(
            sorted(
                name
                for name, def_uid in dag.value_defs.items()
                if def_uid in comp_set
            )
        )

    kill = ecs.requirement.kill
    candidates: List[TransformCandidate] = []
    for split in range(1, len(components)):
        sd1_values = [v for vs in comp_values[:split] for v in vs]
        sd2_nodes = [n for comp in components[split:] for n in comp]
        frontier_nodes: List[int] = []
        for name in sd1_values:
            frontier_nodes.append(dag.value_defs[name])
            killer = kill.kill.get(name)
            if killer is None:
                # A value of another register class: its lifetime still
                # bounds the stage, so include every use.
                frontier_nodes.extend(
                    use
                    for use in dag.value_uses.get(name, ())
                    if use != dag.exit
                )
            elif killer != dag.exit:
                frontier_nodes.append(killer)
        frontier = maximal_nodes(dag, frontier_nodes)
        roots = minimal_nodes(dag, sd2_nodes)
        edges = [(s, r) for s in frontier for r in roots]
        if not edges:
            continue

        def make_edits(edge_list: List[Tuple[int, int]]):
            def edits(target: DependenceDAG) -> None:
                for src, dst in edge_list:
                    target.add_sequence_edge(src, dst, reason="ursa-reg-seq")

            return edits

        candidates.append(
            TransformCandidate(
                kind="reg-seq",
                description=(
                    f"stage components: run {split} of {len(components)} "
                    f"components, then the rest"
                ),
                base_dag=dag,
                edits=make_edits(edges),
                preference=0,
            )
        )
    return candidates


def propose_register_sequencing(
    dag: DependenceDAG,
    ecs: ExcessiveChainSet,
    depth: Dict[int, int],
) -> List[TransformCandidate]:
    """Candidates delaying ``excess`` value chains behind the others.

    A subset whose edges would certainly close a cycle
    (:func:`edges_close_cycle`) is screened out and counted, not
    returned.  ``depth`` is ``dag.asap()``.
    """
    if ecs.kind is not ResourceKind.REGISTER or ecs.excess <= 0:
        return []
    if len(ecs.chains) < 2:
        return []

    desc, index, _ = dag.closure_masks()
    element_node = ecs.requirement.element_node
    candidates: List[TransformCandidate] = list(
        _component_candidates(dag, ecs, depth)
    )
    screened = 0

    def make_edits(edge_list: List[Tuple[int, int]]):
        def edits(target: DependenceDAG) -> None:
            for src, dst in edge_list:
                target.add_sequence_edge(src, dst, reason="ursa-reg-seq")

        return edits

    for subset in _candidate_subsets(ecs, ecs.excess, depth):
        sd2_values = [v for i in subset for v in ecs.chains[i]]
        sd1_values = [
            v
            for i, chain in enumerate(ecs.chains)
            if i not in subset
            for v in chain
        ]
        sd2_nodes = sorted({element_node[v] for v in sd2_values})

        # Nonsupport (Definition 7): delaying SD2 must not cut a path it
        # feeds into SD1.
        sd1_mask = bitset.mask_of(index[element_node[v]] for v in sd1_values)
        if any(desc[a] & sd1_mask for a in sd2_nodes):
            continue

        frontier = _kill_frontier(dag, sd1_values, ecs)
        roots = minimal_nodes(dag, sd2_nodes)
        edges = [
            (s, r)
            for s in frontier
            for r in roots
            if not desc[s] >> index[r] & 1
        ]
        if not edges:
            continue
        if edges_close_cycle(dag, edges):
            screened += 1
            continue

        value_list = ",".join(sd2_values)
        candidates.append(
            TransformCandidate(
                kind="reg-seq",
                description=(
                    f"delay values {{{value_list}}} behind the kill frontier "
                    + ", ".join(f"{a}->{b}" for a, b in edges)
                ),
                base_dag=dag,
                edits=make_edits(edges),
                preference=0,
            )
        )
    obs.count("transform.reg_seq.proposed", len(candidates))
    obs.count("transform.reg_seq.screened", screened)
    return candidates
