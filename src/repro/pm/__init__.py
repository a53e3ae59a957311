"""repro.pm — incremental re-measurement of transform candidates.

:mod:`repro.pm.incremental` holds :class:`IncrementalMeasurer`, which
scores every transform candidate in place under a journaled DAG
transaction (see ``docs/passes.md``).  The compile's phases themselves
are one straight-line function, ``repro.pipeline._compile_once``.
"""

from repro.pm.incremental import IncrementalMeasurer, TrialOutcome

__all__ = [
    "IncrementalMeasurer",
    "TrialOutcome",
]
