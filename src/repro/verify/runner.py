"""Pack orchestration: verify whole pipeline artifacts in one call.

The rule packs each check one artifact; this module composes them into
the entry points the rest of the stack uses:

* :func:`verify_dag_state` — DAG + allocation-step packs, the cheap
  combination ``URSAAllocator(verify_each=True)`` runs after every
  committed transform;
* :func:`verify_compilation` — every applicable pack over a finished
  :class:`repro.pipeline.CompilationResult`;
* :func:`verify_source` — build + compile + verify in one shot (the
  ``repro verify`` CLI subcommand).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import obs
from repro.machine.model import MachineModel
from repro.verify.alloc_rules import verify_allocation, verify_allocation_step
from repro.verify.dag_rules import verify_dag
from repro.verify.diagnostics import VerifyReport
from repro.verify.lint_rules import lint_dag
from repro.verify.schedule_rules import verify_schedule


def _finish(report: VerifyReport) -> VerifyReport:
    obs.count("verify.errors", len(report.errors()))
    return report


def verify_dag_state(
    dag,
    requirements: Sequence = (),
    machine: Optional[MachineModel] = None,
    artifact: str = "dag",
) -> VerifyReport:
    """The ``verify_each`` combination: structural DAG rules plus the
    capacity-agnostic allocation-step rules.

    Region enumeration (``dag.hammock-structure``) is skipped here: it
    re-derives from the same dominance masks it checks, and this runs
    after *every* committed transform.
    """
    reports = [verify_dag(dag, machine, regions=False)]
    if requirements:
        reports.append(verify_allocation_step(dag, requirements, machine))
    return _finish(VerifyReport(artifact=artifact).extend(*reports))


def _compilation_reports(result, lint: bool, remeasure: bool):
    reports = [verify_dag(result.dag, result.machine)]
    if result.allocation is not None:
        reports.append(
            verify_allocation(result.allocation, remeasure=remeasure)
        )
    reports.append(
        verify_schedule(result.schedule, dag=result.dag, machine=result.machine)
    )
    if lint:
        reports.append(lint_dag(result.dag, result.machine))
    return reports


def verify_compilation(
    result, lint: bool = True, remeasure: bool = False
) -> VerifyReport:
    """Run every applicable rule pack over one compilation result."""
    artifact = f"{result.method} on {result.machine.name}"
    reports = _compilation_reports(result, lint, remeasure)
    return _finish(VerifyReport(artifact=artifact).extend(*reports))


def verify_source(
    source,
    machine: MachineModel,
    method: str = "ursa",
    live_out: Sequence[str] = (),
    lint: bool = True,
    remeasure: bool = True,
) -> VerifyReport:
    """Compile ``source`` (without simulating) and verify every artifact.

    This is the engine behind ``repro verify``: the input DAG gets the
    DAG + lint packs, then the chosen method's compilation artifacts get
    the full treatment.  Simulation stays off — the point is that the
    static verifier alone judges the pipeline.
    """
    from repro.pipeline import build_dag, compile_trace

    input_dag = build_dag(source, live_out=live_out)
    reports = [verify_dag(input_dag, machine)]
    if lint:
        reports.append(lint_dag(input_dag, machine))
    result = compile_trace(
        input_dag, machine, method=method, verify=False, static_checks=False
    )
    reports.extend(_compilation_reports(result, lint=False, remeasure=remeasure))
    artifact = f"{method} on {machine.name}"
    return _finish(VerifyReport(artifact=artifact).extend(*reports))
