"""Allocation invariant rules (``alloc.*``).

Checks on what URSA's measure/reduce loop *claims* versus what the DAG
actually says: capacity after reduction, spill store/load pairing,
Kill() coverage, and the transformation record chain.

Two entry points:

* :func:`verify_allocation` — full pack over a finished
  :class:`AllocationResult` (optionally re-measuring the DAG to catch a
  stale requirements list);
* :func:`verify_allocation_step` — the cheap subset run after every
  committed transform in ``verify_each`` mode, where excess capacity is
  still expected and only structural spill/kill properties must hold.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import obs
from repro.core.kill import candidate_killers
from repro.core.measure import ResourceRequirement, measure_all
from repro.graph.dag import DependenceDAG
from repro.ir.instructions import Opcode
from repro.machine.model import MachineModel
from repro.verify.diagnostics import Severity, VerifyReport, register

PACK = "alloc"

R_FU_CAPACITY = register(
    "alloc.fu-capacity", Severity.ERROR,
    "after a converged reduction, measured FU requirements must fit "
    "the machine",
)
R_REG_CAPACITY = register(
    "alloc.reg-capacity", Severity.ERROR,
    "after a converged reduction, measured register requirements must "
    "fit the machine",
)
R_CONVERGED_FLAG = register(
    "alloc.converged-flag", Severity.ERROR,
    "the converged flag must agree with the recorded excesses",
)
R_STALE_MEASURE = register(
    "alloc.stale-measure", Severity.ERROR,
    "recorded requirements must match a fresh measurement of the DAG",
)
R_SPILL_PAIRING = register(
    "alloc.spill-pairing", Severity.ERROR,
    "every RELOAD must be reached by exactly one SPILL of the same slot",
)
R_SPILL_SLOT_CLASH = register(
    "alloc.spill-slot-clash", Severity.ERROR,
    "no two SPILLs may write the same spill slot",
)
R_KILL_COVERAGE = register(
    "alloc.kill-coverage", Severity.ERROR,
    "Kill() must name exactly one legal killer for every measured value",
)
R_RECORDS = register(
    "alloc.records", Severity.ERROR,
    "the transformation record chain must be consistent "
    "(excess_after[i] == excess_before[i+1], iterations increasing)",
)


def verify_allocation(allocation, remeasure: bool = True) -> VerifyReport:
    """Run the ``alloc.*`` pack over a finished AllocationResult."""
    with obs.span("verify.alloc"):
        report = VerifyReport(artifact="allocation", packs=[PACK])
        dag = allocation.dag
        machine = allocation.machine
        _capacity(allocation, report)
        _records(allocation.records, report)
        _spills(dag, report)
        for requirement in allocation.requirements:
            _kill_coverage(dag, requirement, report)
        if remeasure:
            _stale_measure(allocation, report)
        obs.count("verify.diagnostics", len(report.diagnostics))
        return report


def verify_allocation_step(
    dag: DependenceDAG,
    requirements: Sequence[ResourceRequirement],
    machine: Optional[MachineModel] = None,
) -> VerifyReport:
    """The ``verify_each`` subset: spill and kill structure only.

    Mid-reduction the requirements may legitimately still exceed the
    machine, so no capacity rules fire here.
    """
    with obs.span("verify.alloc"):
        report = VerifyReport(artifact="allocation-step", packs=[PACK])
        _spills(dag, report)
        for requirement in requirements:
            _kill_coverage(dag, requirement, report)
        obs.count("verify.diagnostics", len(report.diagnostics))
        return report


# ----------------------------------------------------------------------
def _capacity(allocation, report: VerifyReport) -> None:
    any_excess = False
    for requirement in allocation.requirements:
        if not requirement.is_excessive:
            continue
        any_excess = True
        rule = (
            R_FU_CAPACITY if requirement.kind.value == "fu" else R_REG_CAPACITY
        )
        # A non-converged reduction hands leftovers to the assignment
        # phase by design (§2); that is a warning, not a violation.
        severity = Severity.ERROR if allocation.converged else Severity.WARNING
        report.add(
            rule.diag(
                f"{requirement.kind.value}:{requirement.cls} requires "
                f"{requirement.required} but only {requirement.available} "
                f"available (excess {requirement.excess})",
                location=f"{requirement.kind.value}:{requirement.cls}",
                severity=severity,
            )
        )
    if allocation.converged and any_excess:
        report.add(
            R_CONVERGED_FLAG.diag(
                "allocation claims convergence but recorded requirements "
                "still show excess"
            )
        )
    if not allocation.converged and not any_excess:
        report.add(
            R_CONVERGED_FLAG.diag(
                "allocation claims non-convergence but no recorded "
                "requirement shows excess"
            )
        )


def _records(records, report: VerifyReport) -> None:
    previous = None
    for record in records:
        if previous is not None:
            if record.iteration <= previous.iteration:
                report.add(
                    R_RECORDS.diag(
                        f"record iterations not increasing: "
                        f"{previous.iteration} then {record.iteration}",
                        location=f"iter{record.iteration}",
                    )
                )
            if record.excess_before != previous.excess_after:
                report.add(
                    R_RECORDS.diag(
                        f"iteration {record.iteration} starts from excess "
                        f"{record.excess_before} but the previous transform "
                        f"left {previous.excess_after}",
                        location=f"iter{record.iteration}",
                    )
                )
        previous = record


def _spills(dag: DependenceDAG, report: VerifyReport) -> None:
    stores = {}  # (base, offset) -> uid
    for uid in dag.op_nodes():
        inst = dag.instruction(uid)
        if inst.op is Opcode.SPILL and inst.addr is not None:
            key = (inst.addr.base, inst.addr.offset)
            if key in stores:
                report.add(
                    R_SPILL_SLOT_CLASH.diag(
                        f"nodes {stores[key]} and {uid} both spill to "
                        f"[{inst.addr}]",
                        location=f"n{uid}",
                    )
                )
            else:
                stores[key] = uid
    for uid in dag.op_nodes():
        inst = dag.instruction(uid)
        if inst.op is not Opcode.RELOAD or inst.addr is None:
            continue
        sources = [
            suid
            for (base, offset), suid in stores.items()
            if base == inst.addr.base
            and offset == inst.addr.offset
            and dag.reaches(suid, uid)
        ]
        if len(sources) != 1:
            report.add(
                R_SPILL_PAIRING.diag(
                    f"reload {uid} from [{inst.addr}] is reached by "
                    f"{len(sources)} matching spill store(s)",
                    location=f"n{uid}",
                )
            )


def _kill_coverage(
    dag: DependenceDAG, requirement: ResourceRequirement, report: VerifyReport
) -> None:
    if requirement.kind.value != "reg" or requirement.kill is None:
        return
    values = requirement.values or {}
    kill = requirement.kill.kill
    for name, info in values.items():
        if name not in kill:
            report.add(
                R_KILL_COVERAGE.diag(
                    f"value {name!r} has no Kill() entry",
                    location=name,
                )
            )
            continue
        killer = kill[name]
        if not info.use_uids:
            if killer != info.def_uid:
                report.add(
                    R_KILL_COVERAGE.diag(
                        f"dead value {name!r} must be killed at its own "
                        f"definition {info.def_uid}, not {killer}",
                        location=name,
                    )
                )
            continue
        legal = candidate_killers(dag, info)
        if killer not in legal:
            report.add(
                R_KILL_COVERAGE.diag(
                    f"value {name!r} killed at {killer}, which is not one "
                    f"of its maximal uses {sorted(legal)}",
                    location=name,
                )
            )


def _stale_measure(allocation, report: VerifyReport) -> None:
    fresh = {
        (r.kind.value, r.cls): r.required
        for r in measure_all(allocation.dag, allocation.machine)
    }
    for requirement in allocation.requirements:
        key = (requirement.kind.value, requirement.cls)
        measured = fresh.get(key)
        if measured is not None and measured != requirement.required:
            report.add(
                R_STALE_MEASURE.diag(
                    f"{key[0]}:{key[1]} recorded as {requirement.required} "
                    f"but the DAG now measures {measured}",
                    location=f"{key[0]}:{key[1]}",
                )
            )
