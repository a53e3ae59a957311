"""A small LLVM-new-PM-style pass manager for the compilation pipeline.

A *pass* is a named step that transforms :class:`PipelineState`
(build the DAG, allocate, schedule, assign, codegen, verify).  The
:class:`PassManager` runs them in order, wraps each in the ``phase.*``
observability span the dashboards already key on, and runs registered
*instruments* between passes — that is how the ``repro.verify`` packs
plug in as an inter-pass check (``verify_each``) without any pass
knowing about them.

Analyses are not passes: a derived artifact (ASAP depths, the hammock
analysis) is cached on the DAG itself, keyed by its monotone version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs


@dataclass(frozen=True)
class PassSpec:
    """Metadata for one registered pass (shown by ``repro passes``)."""

    name: str
    description: str
    #: state fields the pass reads / fills in.
    requires: Tuple[str, ...] = ()
    provides: Tuple[str, ...] = ()
    #: False for bookkeeping steps that never carried a phase span.
    emit_span: bool = True


#: Every pass spec registered at import time, in registration order.
PASS_REGISTRY: List[PassSpec] = []


def register_pass_spec(spec: PassSpec) -> PassSpec:
    if all(existing.name != spec.name for existing in PASS_REGISTRY):
        PASS_REGISTRY.append(spec)
    return spec


@dataclass
class PipelineState:
    """The artifacts a pipeline run accumulates, one field per product."""

    machine: Any
    method: str
    source: Any = None
    live_out: Tuple[str, ...] = ()
    options: Dict[str, Any] = field(default_factory=dict)
    # -- artifacts, in the order passes produce them --------------------
    dag: Any = None
    allocation: Any = None
    schedule: Any = None
    final_dag: Any = None
    program: Any = None
    simulation: Any = None
    verified: Optional[bool] = None
    #: backend-specific attribution (exact-search certificate, portfolio
    #: win report); set by schedule passes that have one to report.
    backend_report: Optional[Dict[str, Any]] = None


class Pass:
    """One pipeline step: a spec plus a function mutating the state."""

    def __init__(self, spec: PassSpec, run: Callable[[PipelineState], None]):
        self.spec = spec
        self._run = run

    def run(self, state: PipelineState) -> None:
        missing = [
            name for name in self.spec.requires if getattr(state, name) is None
        ]
        if missing:
            raise RuntimeError(
                f"pass {self.spec.name!r} requires {missing} but the "
                "pipeline has not produced them"
            )
        self._run(state)


#: An instrument runs after every pass: (completed pass, state) -> None.
Instrument = Callable[[Pass, PipelineState], None]


class PassManager:
    """Runs passes in order with spans and inter-pass instruments."""

    def __init__(self, instruments: Tuple[Instrument, ...] = ()) -> None:
        self.passes: List[Pass] = []
        self.instruments: List[Instrument] = list(instruments)

    def add(self, spec: PassSpec, run: Callable[[PipelineState], None]) -> "PassManager":
        self.passes.append(Pass(spec, run))
        return self

    def add_instrument(self, instrument: Instrument) -> "PassManager":
        self.instruments.append(instrument)
        return self

    def run(self, state: PipelineState) -> PipelineState:
        for pipeline_pass in self.passes:
            spec = pipeline_pass.spec
            if spec.emit_span:
                with obs.span(f"phase.{spec.name}", method=state.method):
                    pipeline_pass.run(state)
            else:
                pipeline_pass.run(state)
            for instrument in self.instruments:
                instrument(pipeline_pass, state)
        return state

    def describe(self) -> List[str]:
        return [
            f"{p.spec.name}: {p.spec.description}" for p in self.passes
        ]


def verify_instrument(pipeline_pass: Pass, state: PipelineState) -> None:
    """The ``verify_each`` inter-pass check: re-lint the DAG after every
    pass that produced or rewrote one; raises on the first violation."""
    if not {"dag", "final_dag"} & set(pipeline_pass.spec.provides):
        return
    from repro.verify import verify_dag

    dag = state.final_dag if state.final_dag is not None else state.dag
    if dag is None:
        return
    report = verify_dag(dag, state.machine)
    report.raise_if_errors(f"after pass {pipeline_pass.spec.name}")
