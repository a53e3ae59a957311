"""Functional-unit sequentialization (paper §4.1).

The only way to lower FU requirements is to remove parallelism: add
sequence edges between independent members of the excessive chain set,
concatenating pairs of allocation chains.  The paper's *ideal sequence
matching* pairs the chain whose tail is i-th closest to the hammock's
entry with the chain whose head is i-th closest to the exit, averaging
path lengths instead of stacking them onto one long path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.measure import ExcessiveChainSet
from repro.core.transforms.base import TransformCandidate

from repro.graph.dag import DependenceDAG
from repro.scheduling.priorities import latency_weighted_height


def _merge_edges(
    dag: DependenceDAG,
    chains: List[List[int]],
    excess: int,
    tail_order: List[int],
    head_order: List[int],
) -> List[Tuple[int, int]]:
    """Greedy ideal-sequence pairing of chain tails with chain heads.

    ``tail_order``/``head_order`` index the chains by preference.  A pair
    merges two chains into one path; merges must keep the chain-level
    structure acyclic and each chain accepts at most one incoming and
    one outgoing merge.
    """
    parent = list(range(len(chains)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    has_out: set = set()
    has_in: set = set()
    edges: List[Tuple[int, int]] = []
    for t_idx in tail_order:
        if len(edges) >= excess:
            break
        if t_idx in has_out:
            continue
        tail = chains[t_idx][-1]
        for h_idx in head_order:
            if h_idx == t_idx or h_idx in has_in:
                continue
            if find(h_idx) == find(t_idx):
                continue  # would close a loop of chains
            head = chains[h_idx][0]
            if dag.reaches(head, tail):
                continue  # DAG cycle
            edges.append((tail, head))
            has_out.add(t_idx)
            has_in.add(h_idx)
            parent[find(h_idx)] = find(t_idx)
            break
    return edges


def propose_fu_sequencing(
    dag: DependenceDAG,
    ecs: ExcessiveChainSet,
    depth: Dict[int, int],
) -> List[TransformCandidate]:
    """Candidates that add ``excess`` sequence edges to the excessive set.

    Two orderings are proposed: the paper's optimality guidance (sources
    closest to the entry, sinks closest to the exit) and the literal
    ideal-sequence statement (both ranked from the entry); the driver
    keeps whichever measures better.  ``depth`` is ``dag.asap()``.
    """
    chains = [list(chain) for chain in ecs.chains]
    if ecs.excess <= 0 or len(chains) < 2:
        return []

    height = latency_weighted_height(dag)

    indices = list(range(len(chains)))
    tails_by_entry = sorted(indices, key=lambda i: (depth[chains[i][-1]], i))
    heads_by_exit = sorted(indices, key=lambda i: (height[chains[i][0]], i))
    heads_by_entry = sorted(indices, key=lambda i: (depth[chains[i][0]], i))

    candidates: List[TransformCandidate] = []
    seen_edge_sets = set()
    for head_order, label in (
        (heads_by_exit, "tails-from-entry/heads-from-exit"),
        (heads_by_entry, "ideal-sequence-matching"),
    ):
        edges = _merge_edges(dag, chains, ecs.excess, tails_by_entry, head_order)
        if not edges:
            continue
        key = tuple(sorted(edges))
        if key in seen_edge_sets:
            continue
        seen_edge_sets.add(key)
        obs.count("transform.fu_seq.edges", len(edges))

        def make_edits(edge_list: List[Tuple[int, int]]):
            def edits(target: DependenceDAG) -> None:
                for src, dst in edge_list:
                    target.add_sequence_edge(src, dst, reason="ursa-fu-seq")

            return edits

        candidates.append(
            TransformCandidate(
                kind="fu-seq",
                description=(
                    f"{label}: sequence {ecs.cls} chains via "
                    + ", ".join(f"{a}->{b}" for a, b in edges)
                ),
                base_dag=dag,
                edits=make_edits(edges),
                preference=0,
            )
        )
    obs.count("transform.fu_seq.proposed", len(candidates))
    return candidates
