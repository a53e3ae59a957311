"""repro.pm — pass manager, analysis caching, incremental re-measurement.

Three pieces (see ``docs/passes.md``):

* :mod:`repro.pm.analysis` — :class:`AnalysisManager`, a cache of
  derived artifacts keyed by the DAG's monotone version;
* :mod:`repro.pm.incremental` — :class:`IncrementalMeasurer`, scoring
  every transform candidate in place under a journaled DAG
  transaction;
* :mod:`repro.pm.passes` — :class:`PassManager` composing the pipeline
  as explicit, instrumented passes.
"""

from repro.pm.analysis import ANALYSES, AnalysisManager, AnalysisSpec
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
    "ANALYSES",
    "AnalysisManager",
    "AnalysisSpec",
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
