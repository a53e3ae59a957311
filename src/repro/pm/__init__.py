"""repro.pm — pass manager and incremental re-measurement.

Two pieces (see ``docs/passes.md``):

* :mod:`repro.pm.incremental` — :class:`IncrementalMeasurer`, scoring
  every transform candidate in place under a journaled DAG
  transaction;
* :mod:`repro.pm.passes` — :class:`PassManager` composing the pipeline
  as explicit, instrumented passes.
"""

from repro.pm.incremental import IncrementalMeasurer, TrialOutcome
from repro.pm.passes import (
    PASS_REGISTRY,
    Pass,
    PassManager,
    PassSpec,
    PipelineState,
    register_pass_spec,
    verify_instrument,
)

__all__ = [
    "IncrementalMeasurer",
    "TrialOutcome",
    "PASS_REGISTRY",
    "Pass",
    "PassManager",
    "PassSpec",
    "PipelineState",
    "register_pass_spec",
    "verify_instrument",
]
