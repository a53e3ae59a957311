"""Common machinery for URSA's requirement-reduction transformations.

Besides the candidate representation itself, this module defines the
**invalidation contract**: every transformation declares, per candidate,
what its edits dirty.  An edges-only declaration lets the driver score
the candidate *in place* under a :class:`~repro.graph.dag.DagTransaction`
(no DAG copy, incremental re-measurement — see ``repro.pm``); anything
stronger falls back to the classic clone-and-remeasure path.  A
declaration is a promise, not a hint: the transaction journal refuses
undeclared mutations, so a lying transform is caught, not trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.graph.dag import CycleError, DependenceDAG
from repro.resilience import chaos


class TransformError(Exception):
    """A transformation candidate turned out to be inapplicable."""


@dataclass(frozen=True)
class Invalidation:
    """What one candidate's edits dirty — its declared contract.

    ``edges_only`` means the edits call ``add_sequence_edge`` and
    nothing else, which makes them journalable (checkpoint/rollback
    instead of deep copy).  ``analyses`` names the analysis families
    (see ``repro.pm.analysis.ANALYSES``) whose cached results the edits
    invalidate; ``invalidates_all`` is the conservative from-scratch
    fallback every unknown transform gets.
    """

    edges_only: bool = False
    adds_nodes: bool = False
    invalidates_all: bool = True
    analyses: Tuple[str, ...] = ("*",)

    def describe(self) -> str:
        if self.invalidates_all:
            return "invalidates-all"
        bits = []
        if self.edges_only:
            bits.append("edges-only")
        if self.adds_nodes:
            bits.append("adds-nodes")
        return ",".join(bits) + " -> " + ",".join(self.analyses)


#: Sequence-edge additions: reachability grows monotonically; hammocks,
#: depths, and per-class measurements must be refreshed, but liveness
#: (the value/def/use tables) is untouched.
EDGES_ONLY = Invalidation(
    edges_only=True,
    invalidates_all=False,
    analyses=("reachability", "hammock", "asap", "kill", "measure"),
)

#: Node-inserting transforms (spill/remat): everything is dirtied,
#: including the value tables.
INVALIDATES_ALL = Invalidation()

#: Transform kind -> declared contract, for the ``repro passes`` CLI and
#: the pm verifier.  Populated by each transform module at import time.
INVALIDATION_CONTRACTS: Dict[str, Invalidation] = {}


def register_contract(kind: str, invalidation: Invalidation) -> Invalidation:
    INVALIDATION_CONTRACTS[kind] = invalidation
    return invalidation


@dataclass
class TransformCandidate:
    """One tentative application of a transformation (paper §5).

    ``apply`` returns a *copy* of the DAG with the edits applied; the
    driver always commits a winner this way (or as the clone it was
    scored on).  It raises :class:`TransformError` when the edits turn
    out to be illegal (e.g. a sequence edge would close a cycle).

    Candidates whose ``invalidation`` declares ``edges_only`` are
    *scored* in place inside a DAG transaction and rolled back; the
    rest are scored on an ``apply()`` clone.  The declared contract
    picks the path, so ``edits`` must behave identically on a clone and
    on the base DAG.
    """

    kind: str
    description: str
    base_dag: DependenceDAG
    edits: Callable[[DependenceDAG], None]
    spills_added: int = 0
    #: lower is preferred on ties (the paper prefers sequencing over
    #: spilling when the critical-path impact is equal).
    preference: int = 0
    #: the declared invalidation contract (safe default: everything).
    invalidation: Invalidation = INVALIDATES_ALL

    def apply(self) -> DependenceDAG:
        clone = self.base_dag.copy()
        # Edges-only edits run in a transaction on the copy, which keeps
        # its closure up to date edge by edge (and refuses any mutation
        # the contract does not declare).
        txn = clone.begin_transaction() if self.invalidation.edges_only else None
        try:
            self.edits(clone)
        except CycleError as exc:
            raise TransformError(f"{self.kind}: {exc}") from exc
        if txn is not None:
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
