"""Fault-tolerant compilation: deadlines, fallback ladder, rollback, chaos.

Public surface:

* :mod:`repro.resilience.budgets` — :class:`Deadline` / work budgets
  threaded through the NP-hard paths (kill cover, exact scheduling,
  matching, the allocator loop);
* :mod:`repro.resilience.fallback` — the escalation ladder
  (:func:`compile_with_fallback`) ending in the always-feasible
  spill-everywhere baseline, plus :class:`DegradationReport`;
* :mod:`repro.resilience.chaos` — seeded fault injection proving every
  recovery path is exercised.

``fallback`` is imported lazily (it needs ``repro.pipeline``, which the
core allocator — an importer of this package — sits underneath).
"""

from repro.resilience.budgets import (
    Deadline,
    DeadlineExpired,
    active_deadline,
    deadline_scope,
)
from repro.resilience.chaos import (
    FAULT_CLASSES,
    SERVICE_FAULTS,
    ChaosMonkey,
    chaos_scope,
)

__all__ = [
    "ChaosMonkey",
    "Deadline",
    "DeadlineExpired",
    "DegradationReport",
    "FAULT_CLASSES",
    "SERVICE_FAULTS",
    "active_deadline",
    "chaos_scope",
    "compile_with_fallback",
    "deadline_scope",
    "spill_everywhere_schedule",
]

_LAZY = {"DegradationReport", "compile_with_fallback", "spill_everywhere_schedule"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.resilience import fallback

        return getattr(fallback, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
