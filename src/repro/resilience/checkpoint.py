"""Transactional DAG commits: checkpoint, verify, roll back.

URSA's driver commits every winning candidate as a *fresh* DAG (a copy
plus the candidate's edits), so the pre-commit state is never mutated —
a checkpoint is just a pair of references, and rollback is restoring
them.  :class:`DagCheckpoint` packages that discipline;
:func:`guarded_apply` offers the same guarantee for ad-hoc edits
outside the allocator (clone, edit, verify, and only then adopt).

``URSAAllocator(transactional=True)`` uses these to undo a committed
transform that regresses the weighted excess or trips the
``verify_each`` packs, banning the offending candidate instead of
letting it poison the rest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro import obs


class RollbackError(Exception):
    """An edit was rejected and rolled back; the original is untouched."""


@dataclass
class DagCheckpoint:
    """A restorable snapshot of the allocator's (dag, requirements) state.

    Relies on the copy-on-write discipline above: the captured DAG must
    not be mutated after capture (commits always produce fresh DAGs).
    """

    dag: object
    requirements: Tuple
    label: str = ""

    @classmethod
    def capture(
        cls, dag, requirements: Sequence = (), label: str = ""
    ) -> "DagCheckpoint":
        obs.count("resilience.checkpoints")
        return cls(dag=dag, requirements=tuple(requirements), label=label)

    def restore(self) -> Tuple[object, List]:
        """Return the checkpointed state (counted; the caller emits the
        richer ``resilience.rollback`` event with its own context)."""
        obs.count("resilience.rollbacks")
        return self.dag, list(self.requirements)


def guarded_apply(
    dag,
    edits: Callable[[object], None],
    verifier: Optional[Callable[[object], None]] = None,
):
    """Apply ``edits`` to a clone of ``dag``; adopt it only if it passes.

    ``verifier`` (when given) is called with the edited clone and must
    raise to reject it.  On any failure the clone is discarded and
    :class:`RollbackError` is raised — ``dag`` itself is never touched.
    Returns the edited clone on success.
    """
    clone = dag.copy()
    try:
        edits(clone)
        if verifier is not None:
            verifier(clone)
    except Exception as exc:
        obs.count("resilience.rollbacks")
        obs.event("resilience.rollback", label="guarded_apply", reason=str(exc))
        raise RollbackError(f"edit rejected: {exc}") from exc
    return clone
