"""IR/trace lint rules (``lint.*``).

Unlike the ``dag.*`` pack these are not soundness requirements — a
trace can compile and run correctly while tripping every one of them.
They flag *suspicious* shapes: work that cannot matter (unused
definitions, spill slots never reloaded), control flow decided at
compile time, and degenerate edges.  All default to WARNING or INFO.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.graph.dag import DependenceDAG, EdgeKind
from repro.ir.instructions import Opcode
from repro.machine.model import MachineConfigError, MachineModel
from repro.verify.diagnostics import Severity, VerifyReport, register

PACK = "lint"

R_UNUSED_DEF = register(
    "lint.unused-def", Severity.WARNING,
    "a defined value is never used and not live-out (dead code)",
)
R_DEAD_SPILL_SLOT = register(
    "lint.dead-spill-slot", Severity.WARNING,
    "a spill slot is written but never reloaded",
)
R_CONSTANT_BRANCH = register(
    "lint.constant-branch", Severity.WARNING,
    "a conditional branch tests a compile-time constant; one side of "
    "the hammock is unreachable",
)
R_ZERO_LATENCY = register(
    "lint.zero-latency-edge", Severity.WARNING,
    "a data edge departs a producer with zero latency (suspicious for "
    "any real functional unit)",
)
R_REDUNDANT_SEQ = register(
    "lint.redundant-seq-edge", Severity.INFO,
    "a sequence edge is implied by another path and could be dropped",
)


def lint_dag(
    dag: DependenceDAG, machine: Optional[MachineModel] = None
) -> VerifyReport:
    """Run the ``lint.*`` rule pack over one DAG."""
    with obs.span("verify.lint"):
        report = VerifyReport(artifact="lint", packs=[PACK])
        _unused_defs(dag, report)
        _spill_slots(dag, report)
        _constant_branches(dag, report)
        _redundant_seq_edges(dag, report)
        if machine is not None:
            _zero_latency_edges(dag, machine, report)
        obs.count("verify.diagnostics", len(report.diagnostics))
        return report


# ----------------------------------------------------------------------
def _unused_defs(dag: DependenceDAG, report: VerifyReport) -> None:
    for name, def_uid in dag.value_defs.items():
        if def_uid == dag.entry or name in dag.live_out:
            continue
        users = [u for u in dag.value_uses.get(name, ()) if u != def_uid]
        if not users:
            report.add(
                R_UNUSED_DEF.diag(
                    f"value {name!r} (node {def_uid}) is never used",
                    location=name,
                )
            )


def _spill_slots(dag: DependenceDAG, report: VerifyReport) -> None:
    reloaded = set()
    for uid in dag.op_nodes():
        inst = dag.instruction(uid)
        if inst.op is Opcode.RELOAD and inst.addr is not None:
            reloaded.add((inst.addr.base, inst.addr.offset))
    for uid in dag.op_nodes():
        inst = dag.instruction(uid)
        if inst.op is Opcode.SPILL and inst.addr is not None:
            if (inst.addr.base, inst.addr.offset) not in reloaded:
                report.add(
                    R_DEAD_SPILL_SLOT.diag(
                        f"spill to [{inst.addr}] (node {uid}) is never "
                        "reloaded",
                        location=f"n{uid}",
                    )
                )


def _constant_branches(dag: DependenceDAG, report: VerifyReport) -> None:
    for uid in dag.op_nodes():
        inst = dag.instruction(uid)
        if inst.op is not Opcode.CBR:
            continue
        for name in inst.uses():
            def_uid = dag.value_defs.get(name)
            if def_uid is None or def_uid == dag.entry:
                continue
            if dag.instruction(def_uid).op is Opcode.CONST:
                report.add(
                    R_CONSTANT_BRANCH.diag(
                        f"branch {uid} tests {name!r}, a constant from "
                        f"node {def_uid}",
                        location=f"n{uid}",
                    )
                )


def _zero_latency_edges(
    dag: DependenceDAG, machine: MachineModel, report: VerifyReport
) -> None:
    for u, v, data in dag.edges():
        if data.get("kind") is not EdgeKind.DATA or u == dag.entry:
            continue
        try:
            latency = machine.latency_of(dag.instruction(u))
        except MachineConfigError:
            continue  # unknown op: dag.unknown-op territory
        if latency == 0:
            report.add(
                R_ZERO_LATENCY.diag(
                    f"data edge {u}->{v} leaves {dag.instruction(u).op!r} "
                    "with zero latency",
                    location=f"n{u}",
                )
            )


def _redundant_seq_edges(dag: DependenceDAG, report: VerifyReport) -> None:
    for u, v, data in dag.edges():
        if data.get("kind") is not EdgeKind.SEQ:
            continue
        if u == dag.entry or v == dag.exit:
            continue  # root/leaf pinning edges are structural
        if any(
            m != v and dag.reaches(m, v) for m in dag.succs(u)
        ):
            report.add(
                R_REDUNDANT_SEQ.diag(
                    f"seq edge {u}->{v} ({data.get('reason', '?')}) is "
                    "implied by a longer path",
                    location=f"n{u}",
                )
            )
