"""DAG invariant rules (``dag.*``).

These check the structural soundness of a :class:`DependenceDAG` at any
point in its life: freshly built from a trace, mid-reduction inside
``URSAAllocator`` (``verify_each``), or final.  Everything here is a
*graph* property — no schedule or machine state is consulted except for
the optional op-legality check, which needs a machine to ask whether
any functional-unit class executes each opcode.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.graph.dag import CycleError, DependenceDAG, EdgeKind
from repro.graph.hammock import HammockAnalysis
from repro.machine.model import MachineConfigError, MachineModel
from repro.verify.diagnostics import Severity, VerifyReport, register

PACK = "dag"

R_CYCLE = register(
    "dag.cycle", Severity.ERROR,
    "dependence DAG must stay acyclic after every transform commit",
)
R_SELF_EDGE = register(
    "dag.self-edge", Severity.ERROR,
    "no node may depend on itself",
)
R_UID = register(
    "dag.uid-mismatch", Severity.ERROR,
    "node key must equal the attached instruction's uid",
)
R_ENTRY_EXIT = register(
    "dag.entry-exit", Severity.ERROR,
    "only ENTRY may lack predecessors and only EXIT may lack successors",
)
R_DEF_BEFORE_USE = register(
    "dag.def-before-use", Severity.ERROR,
    "every used value must be defined on a path before the use",
)
R_MISSING_DATA_EDGE = register(
    "dag.missing-data-edge", Severity.ERROR,
    "each def-use pair must be connected by a direct data edge",
)
R_DANGLING_DATA = register(
    "dag.dangling-data-edge", Severity.ERROR,
    "data edges must run from a value's definer to one of its users",
)
R_VALUE_DEF = register(
    "dag.value-def", Severity.ERROR,
    "value_defs must point at a live node that actually defines the value",
)
R_VALUE_USE = register(
    "dag.value-use", Severity.ERROR,
    "value_uses must list exactly the nodes that read the value",
)
R_DUPLICATE_USE = register(
    "dag.duplicate-use", Severity.ERROR,
    "value_uses must not record the same user node twice",
)
R_HAMMOCK = register(
    "dag.hammock", Severity.ERROR,
    "the DAG must remain a single-entry single-exit hammock",
)
R_HAMMOCK_STRUCTURE = register(
    "dag.hammock-structure", Severity.ERROR,
    "each hammock region must be dominated by its entry and "
    "postdominated by its exit",
)
R_UNKNOWN_OP = register(
    "dag.unknown-op", Severity.ERROR,
    "every opcode must be executable by some functional-unit class",
)


def verify_dag(
    dag: DependenceDAG,
    machine: Optional[MachineModel] = None,
    regions: bool = True,
) -> VerifyReport:
    """Run the ``dag.*`` rule pack over one DAG.

    ``regions=False`` skips the per-hammock region enumeration
    (``dag.hammock-structure``) — it cross-checks the analysis against
    its own dominance masks, so the hot ``verify_each`` path drops it
    and keeps only the direct connectivity/dominance rules.
    """
    with obs.span("verify.dag"):
        report = VerifyReport(artifact="dag", packs=[PACK])
        _structural(dag, report)
        if any(d.code == R_CYCLE.code for d in report.diagnostics):
            # Reachability, dominance and hammocks are meaningless on a
            # cyclic graph; bail out after the structural findings.
            obs.count("verify.diagnostics", len(report.diagnostics))
            return report
        _values(dag, report)
        _hammocks(dag, report, regions=regions)
        if machine is not None:
            _op_legality(dag, machine, report)
        obs.count("verify.diagnostics", len(report.diagnostics))
        return report


# ----------------------------------------------------------------------
def _structural(dag: DependenceDAG, report: VerifyReport) -> None:
    try:
        dag.topological_order()
    except CycleError as exc:
        report.add(R_CYCLE.diag(f"dependence graph is cyclic: {exc}"))
    for u, v, _ in dag.edges():
        if u == v:
            report.add(
                R_SELF_EDGE.diag(f"node {u} has a self edge", location=f"n{u}")
            )
    # Raw node iteration: op_nodes() topo-sorts, which raises on the
    # very cyclic graphs this pass must survive to report on.
    for uid in dag.nodes():
        if uid in (dag.entry, dag.exit):
            continue
        inst = dag.instruction(uid)
        if inst.uid != uid:
            report.add(
                R_UID.diag(
                    f"node {uid} carries instruction with uid {inst.uid}",
                    location=f"n{uid}",
                )
            )
    for uid in dag.nodes():
        if uid != dag.entry and not dag.preds(uid):
            report.add(
                R_ENTRY_EXIT.diag(
                    f"node {uid} has no predecessors (only ENTRY may)",
                    location=f"n{uid}",
                )
            )
        if uid != dag.exit and not dag.succs(uid):
            report.add(
                R_ENTRY_EXIT.diag(
                    f"node {uid} has no successors (only EXIT may)",
                    location=f"n{uid}",
                )
            )


def _values(dag: DependenceDAG, report: VerifyReport) -> None:
    # value_defs side: the recorded definer must exist and define it.
    for name, def_uid in dag.value_defs.items():
        if def_uid not in dag:
            report.add(
                R_VALUE_DEF.diag(
                    f"value {name!r} maps to missing definer node {def_uid}",
                    location=name,
                )
            )
            continue
        if def_uid != dag.entry and dag.instruction(def_uid).defines != name:
            report.add(
                R_VALUE_DEF.diag(
                    f"value {name!r} maps to node {def_uid}, which defines "
                    f"{dag.instruction(def_uid).defines!r}",
                    location=name,
                )
            )

    # value_uses side: recorded users must exist, read the value, and be
    # unique; exit entries must correspond to live-out values.
    for name, users in dag.value_uses.items():
        seen = set()
        for uid in users:
            if uid in seen:
                report.add(
                    R_DUPLICATE_USE.diag(
                        f"value {name!r} lists user {uid} more than once",
                        location=name,
                    )
                )
            seen.add(uid)
            if uid not in dag:
                report.add(
                    R_VALUE_USE.diag(
                        f"value {name!r} lists missing user node {uid}",
                        location=name,
                    )
                )
                continue
            if uid == dag.exit:
                if name not in dag.live_out:
                    report.add(
                        R_VALUE_USE.diag(
                            f"value {name!r} flows to EXIT but is not "
                            "live-out",
                            location=name,
                        )
                    )
            elif name not in set(dag.instruction(uid).uses()):
                report.add(
                    R_VALUE_USE.diag(
                        f"value {name!r} lists node {uid} as a user but "
                        f"{dag.instruction(uid)} does not read it",
                        location=name,
                    )
                )

    # Instruction side: every read must be defined strictly earlier and
    # be wired up with a direct data edge and a value_uses entry.
    for uid in dag.op_nodes():
        inst = dag.instruction(uid)
        for name in set(inst.uses()):
            def_uid = dag.value_defs.get(name)
            if def_uid is None or def_uid not in dag:
                report.add(
                    R_DEF_BEFORE_USE.diag(
                        f"node {uid} reads {name!r} which has no definition",
                        location=f"n{uid}",
                    )
                )
                continue
            data = dag.edge_data(def_uid, uid)
            if data is None or data.get("kind") is not EdgeKind.DATA:
                report.add(
                    R_MISSING_DATA_EDGE.diag(
                        f"no data edge {def_uid}->{uid} for value {name!r}",
                        location=f"n{uid}",
                    )
                )
                # A direct data edge proves precedence on an acyclic
                # graph, so reachability only needs checking without it.
                if def_uid not in (dag.entry, uid) and not dag.reaches(
                    def_uid, uid
                ):
                    report.add(
                        R_DEF_BEFORE_USE.diag(
                            f"node {uid} reads {name!r} but its definition "
                            f"(node {def_uid}) does not precede it",
                            location=f"n{uid}",
                        )
                    )
            if uid not in dag.value_uses.get(name, ()):
                report.add(
                    R_VALUE_USE.diag(
                        f"node {uid} reads {name!r} but value_uses does not "
                        "record it",
                        location=f"n{uid}",
                    )
                )

    # Data-edge side: each must connect a definer to one of its users.
    for u, v, data in dag.edges():
        if data.get("kind") is not EdgeKind.DATA:
            continue
        name = data.get("value")
        if dag.value_defs.get(name) != u:
            report.add(
                R_DANGLING_DATA.diag(
                    f"data edge {u}->{v} carries {name!r}, defined by node "
                    f"{dag.value_defs.get(name)}",
                    location=f"n{u}",
                )
            )
        if v == dag.exit:
            if name not in dag.live_out:
                report.add(
                    R_DANGLING_DATA.diag(
                        f"data edge {u}->EXIT carries {name!r}, which is "
                        "not live-out",
                        location=f"n{u}",
                    )
                )
        elif name not in set(dag.instruction(v).uses()):
            report.add(
                R_DANGLING_DATA.diag(
                    f"data edge {u}->{v} carries {name!r}, which node {v} "
                    "does not read",
                    location=f"n{v}",
                )
            )


def _hammocks(
    dag: DependenceDAG, report: VerifyReport, regions: bool = True
) -> None:
    disconnected = set()
    for uid in dag.nodes():
        # Direct reachability first: the dataflow masks behind
        # dominates()/postdominates() are vacuously true for nodes cut
        # off from ENTRY or EXIT, so check connectivity explicitly.
        if uid != dag.entry and not dag.reaches(dag.entry, uid):
            report.add(
                R_HAMMOCK.diag(
                    f"node {uid} is unreachable from ENTRY",
                    location=f"n{uid}",
                )
            )
            disconnected.add(uid)
        elif uid != dag.exit and not dag.reaches(uid, dag.exit):
            report.add(
                R_HAMMOCK.diag(
                    f"node {uid} cannot reach EXIT", location=f"n{uid}"
                )
            )
            disconnected.add(uid)
    if not regions:
        # The hot verify_each path stops at connectivity: building the
        # dominance bitmasks is the expensive part, and on an acyclic
        # single-source/single-sink graph it adds no new signal beyond
        # the region cross-check skipped here anyway.
        return
    analysis = HammockAnalysis(dag)
    for uid in dag.nodes():
        if uid in disconnected:
            continue
        if not analysis.dominates(dag.entry, uid):
            report.add(
                R_HAMMOCK.diag(
                    f"ENTRY does not dominate node {uid}", location=f"n{uid}"
                )
            )
        if not analysis.postdominates(dag.exit, uid):
            report.add(
                R_HAMMOCK.diag(
                    f"EXIT does not postdominate node {uid}",
                    location=f"n{uid}",
                )
            )
    for hammock in analysis.hammocks():
        for uid in hammock.nodes:
            if uid == hammock.entry or uid == hammock.exit:
                continue
            if not analysis.dominates(hammock.entry, uid):
                report.add(
                    R_HAMMOCK_STRUCTURE.diag(
                        f"hammock ({hammock.entry},{hammock.exit}) contains "
                        f"node {uid} not dominated by its entry",
                        location=f"n{uid}",
                    )
                )
            if not analysis.postdominates(hammock.exit, uid):
                report.add(
                    R_HAMMOCK_STRUCTURE.diag(
                        f"hammock ({hammock.entry},{hammock.exit}) contains "
                        f"node {uid} not postdominated by its exit",
                        location=f"n{uid}",
                    )
                )


def _op_legality(
    dag: DependenceDAG, machine: MachineModel, report: VerifyReport
) -> None:
    for uid in dag.op_nodes():
        inst = dag.instruction(uid)
        if inst.is_pseudo:
            continue
        try:
            machine.fu_class_for(inst.op)
        except MachineConfigError:
            report.add(
                R_UNKNOWN_OP.diag(
                    f"no functional-unit class executes {inst.op!r}",
                    location=f"n{uid}",
                )
            )
