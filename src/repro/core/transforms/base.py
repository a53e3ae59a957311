"""Common machinery for URSA's requirement-reduction transformations.

A candidate is a description plus an ``edits`` function over a DAG.
Every candidate — sequencing, spill and remat alike — is tried the same
way: its edits run inside one journaled
:class:`~repro.graph.dag.DagTransaction` on the live DAG, are scored in
place by :class:`~repro.pm.incremental.IncrementalMeasurer`, and are
rolled back.  Only the winner is materialized, by :meth:`apply`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

from repro.graph.dag import CycleError, DependenceDAG
from repro.resilience import chaos


class TransformError(Exception):
    """A transformation candidate turned out to be inapplicable."""


@dataclass
class TransformCandidate:
    """One tentative application of a transformation (paper §5).

    ``edits`` must behave identically on the base DAG (an in-place
    trial) and on a copy of it (a commit).  ``apply`` returns a *copy*
    of the DAG with the edits applied; the allocator commits every winner
    this way.  It raises :class:`TransformError` when the edits turn out
    to be illegal (e.g. a sequence edge would close a cycle).
    """

    kind: str
    description: str
    base_dag: DependenceDAG
    edits: Callable[[DependenceDAG], None]
    spills_added: int = 0
    #: lower is preferred on ties (the paper prefers sequencing over
    #: spilling when the critical-path impact is equal).
    preference: int = 0

    def apply(self) -> DependenceDAG:
        clone = self.base_dag.copy()
        # The transaction keeps the copy's closure up to date edge by
        # edge instead of rebuilding it after every edit.
        txn = clone.begin_transaction()
        try:
            self.edits(clone)
        except CycleError as exc:
            raise TransformError(f"{self.kind}: {exc}") from exc
        txn.commit()
        chaos.corrupt_transform(clone)
        return clone

    def __str__(self) -> str:
        return f"[{self.kind}] {self.description}"


def maximal_nodes(dag: DependenceDAG, nodes: List[int]) -> List[int]:
    """Nodes in ``nodes`` with no descendant also in ``nodes``."""
    desc, index, _ = dag.closure_masks()
    node_set = set(nodes)
    set_mask = 0
    for n in node_set:
        set_mask |= 1 << index[n]
    return sorted(n for n in node_set if not desc[n] & set_mask)


def minimal_nodes(dag: DependenceDAG, nodes: List[int]) -> List[int]:
    """Nodes in ``nodes`` with no ancestor also in ``nodes``."""
    desc, index, _ = dag.closure_masks()
    node_set = set(nodes)
    below = 0  # every proper descendant of some node in the set
    for n in node_set:
        below |= desc[n]
    return sorted(n for n in node_set if not below >> index[n] & 1)


# ----------------------------------------------------------------------
# Certain-cycle screens: a proposal whose edits would certainly raise
# ``CycleError`` is dropped before it is built and trialled.
# ----------------------------------------------------------------------
def delay_closes_cycle(uses: Iterable[int], delays: Sequence[int]) -> bool:
    """True when a retargeted use is itself a delay node.

    Spill and remat retarget ``uses`` at a new definition (a reload or a
    clone) and then sequence every delay node before it.  A use that is
    also a delay node closes ``new def -> use -> new def``.  The uses
    passed here reach no delay node, so the new definition's descendants
    are the uses, their descendants and EXIT: this is the only way such
    a candidate can be cyclic.
    """
    return not set(delays).isdisjoint(uses)


def edges_close_cycle(dag: DependenceDAG, edges: Sequence[Tuple[int, int]]) -> bool:
    """True when adding ``edges`` in order would certainly raise: some
    edge is a self edge or runs against an existing path (its
    destination already reaches its source).  For a frontier x roots
    product less the implied pairs, this is also the only way a cycle
    can form (see docs/algorithms.md)."""
    desc, index, _ = dag.closure_masks()
    return any(
        src == dst or desc[dst] >> index[src] & 1 for src, dst in edges
    )
