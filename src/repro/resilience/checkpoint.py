"""Transactional DAG edits: clone, verify, roll back.

URSA's driver commits every winning candidate as a *fresh* DAG (a copy
plus the candidate's edits), so the pre-commit state is never mutated:
``URSAAllocator(transactional=True)`` keeps its pre-commit
``dag, requirements`` as the checkpoint, and rolling back a committed
transform that regresses the weighted excess or trips the
``verify_each`` packs is keeping them (the offending candidate is
banned instead of poisoning the rest of the run).
:func:`guarded_apply` offers the same guarantee for ad-hoc edits
outside the allocator (clone, edit, verify, and only then adopt).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import obs


class RollbackError(Exception):
    """An edit was rejected and rolled back; the original is untouched."""


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
