"""Schedule invariant rules (``sched.*``).

Static checks over a :class:`Schedule` — everything the VLIW simulator
would reject at run time (reads of in-flight values, busy functional
units, clobbered registers) must be caught here first, without
executing anything.

Sequence-edge strictness is calibrated per edge *reason*.  Memory and
transformation-ordering edges (``mem``, ``spill-mem``, ``ursa*``) must
separate by a full cycle, matching the simulator's execute-at-issue
memory semantics; register-reuse edges must wait for the predecessor's
writeback; the branch-pinning and liveness reasons
(``branch-order``, ``store-branch``, ``no-speculation``, ...) only pin
relative *order*, which the in-order packers legitimately satisfy
within a single wide cycle — those are checked non-strictly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.graph.dag import DependenceDAG, EdgeKind
from repro.machine.model import MachineConfigError, MachineModel
from repro.scheduling.list_scheduler import Schedule
from repro.verify.diagnostics import Severity, VerifyReport, register

PACK = "sched"

#: Sequence-edge reasons that demand a strictly later cycle.
STRICT_SEQ_REASONS = ("mem", "spill-mem")

R_DEPENDENCE = register(
    "sched.dependence", Severity.ERROR,
    "every DAG edge's latency/ordering constraint must hold in the "
    "schedule",
)
R_UNSCHEDULED = register(
    "sched.unscheduled-op", Severity.ERROR,
    "every DAG op must appear in the schedule exactly once",
)
R_USE_BEFORE_DEF = register(
    "sched.use-before-def", Severity.ERROR,
    "no op may read a value before its producer's writeback completes",
)
R_FU_CLASS = register(
    "sched.fu-class", Severity.ERROR,
    "ops must be placed on an existing FU slot whose class executes them",
)
R_FU_OVERLAP = register(
    "sched.fu-overlap", Severity.ERROR,
    "a functional unit must not be issued a new op while busy",
)
R_REG_UNASSIGNED = register(
    "sched.reg-unassigned", Severity.ERROR,
    "every value touched by the schedule must have a register binding",
)
R_REG_RANGE = register(
    "sched.reg-range", Severity.ERROR,
    "register bindings must reference existing registers",
)
R_REG_OVERWRITE = register(
    "sched.reg-overwrite", Severity.ERROR,
    "a register must not be redefined while its current value is live",
)
R_REG_PRESSURE = register(
    "sched.reg-pressure", Severity.ERROR,
    "concurrently live values must not outnumber a register file",
)
R_LIVE_OUT = register(
    "sched.live-out", Severity.ERROR,
    "every advertised live-out register must hold the matching value",
)


def verify_schedule(
    schedule: Schedule,
    dag: Optional[DependenceDAG] = None,
    machine: Optional[MachineModel] = None,
) -> VerifyReport:
    """Run the ``sched.*`` rule pack over one schedule.

    ``dag`` enables the dependence/completeness rules; without it only
    the schedule-local rules (FUs, registers) run.
    """
    machine = machine or schedule.machine
    with obs.span("verify.schedule"):
        report = VerifyReport(artifact="schedule", packs=[PACK])
        _fu_rules(schedule, machine, report)
        _register_rules(schedule, machine, report)
        if dag is not None:
            _dependence_rules(schedule, dag, machine, report)
        obs.count("verify.diagnostics", len(report.diagnostics))
        return report


# ----------------------------------------------------------------------
def _fu_rules(
    schedule: Schedule, machine: MachineModel, report: VerifyReport
) -> None:
    slots: Dict[Tuple[str, int], List] = {}
    for op in schedule.ops:
        try:
            fu = machine.fu_class(op.fu_class)
        except KeyError:
            report.add(
                R_FU_CLASS.diag(
                    f"{op.inst} placed on unknown FU class {op.fu_class!r}",
                    location=f"cycle{op.cycle}",
                )
            )
            continue
        if not fu.executes(op.inst.op):
            report.add(
                R_FU_CLASS.diag(
                    f"FU class {fu.name!r} cannot execute {op.inst.op!r}",
                    location=f"cycle{op.cycle}",
                )
            )
        if not 0 <= op.fu_index < fu.count:
            report.add(
                R_FU_CLASS.diag(
                    f"{op.inst} placed on {fu.name}[{op.fu_index}] but the "
                    f"class has {fu.count} unit(s)",
                    location=f"cycle{op.cycle}",
                )
            )
        slots.setdefault((op.fu_class, op.fu_index), []).append(op)

    for (cls, index), ops in slots.items():
        try:
            occupancy = machine.fu_class(cls).occupancy
        except KeyError:
            continue  # already reported above
        ops.sort(key=lambda op: op.cycle)
        for prev, cur in zip(ops, ops[1:]):
            if cur.cycle < prev.cycle + occupancy:
                report.add(
                    R_FU_OVERLAP.diag(
                        f"{cls}[{index}] issued {cur.inst} at cycle "
                        f"{cur.cycle} while busy with {prev.inst} "
                        f"(issued {prev.cycle}, occupancy {occupancy})",
                        location=f"cycle{cur.cycle}",
                    )
                )


# ----------------------------------------------------------------------
def _latency(machine: MachineModel, inst) -> int:
    try:
        return machine.latency_of(inst)
    except MachineConfigError:
        return 1  # unknown op: reported by sched.fu-class / dag.unknown-op


def _register_rules(
    schedule: Schedule, machine: MachineModel, report: VerifyReport
) -> None:
    binding = schedule.reg_assignment
    # Range checks over every binding we know about.
    for name, reg in {
        **binding, **schedule.live_in_regs,
        **{f"<live-out {k}>": v for k, v in schedule.live_out_regs.items()},
    }.items():
        count = machine.registers.get(reg.cls)
        if count is None:
            report.add(
                R_REG_RANGE.diag(
                    f"{name} bound to unknown register class {reg.cls!r}",
                    location=name,
                )
            )
        elif not 0 <= reg.index < count:
            report.add(
                R_REG_RANGE.diag(
                    f"{name} bound to {reg.cls}{reg.index}, but the class "
                    f"has {count} register(s)",
                    location=name,
                )
            )

    # Binding intervals: def issue -> last use issue, in (start, end]
    # open-closed form (read-at-issue lets a dying value's register be
    # redefined in the same cycle).
    defs: Dict[str, int] = {}
    last_use: Dict[str, int] = {}
    for op in schedule.ops:
        if op.inst.dest is not None:
            if op.inst.dest not in binding:
                report.add(
                    R_REG_UNASSIGNED.diag(
                        f"defined value {op.inst.dest!r} has no register "
                        "binding",
                        location=f"cycle{op.cycle}",
                    )
                )
            defs[op.inst.dest] = op.cycle
        for name in op.inst.uses():
            if name not in binding and name not in schedule.live_in_regs:
                report.add(
                    R_REG_UNASSIGNED.diag(
                        f"used value {name!r} has no register binding",
                        location=f"cycle{op.cycle}",
                    )
                )
            last_use[name] = max(last_use.get(name, -1), op.cycle)

    intervals: Dict[str, Tuple[int, int]] = {}
    for name, reg in binding.items():
        if name in defs:
            start = defs[name]
        elif name in schedule.live_in_regs:
            start = -1
        else:
            continue  # bound but never materialized: nothing to check
        end = last_use.get(name, start)
        intervals[name] = (start, end)

    # The advertised live-out registers extend the *latest* matching
    # value's interval to the end of the schedule (spilled values are
    # renamed `orig@r0`/`orig@p0`..., so match on the original prefix).
    for orig, reg in schedule.live_out_regs.items():
        candidates = [
            name
            for name in intervals
            if binding.get(name) == reg
            and (name == orig or name.startswith(orig + "@"))
        ]
        if not candidates and orig in schedule.live_in_regs:
            # A live-in passed straight through without a redefinition.
            if schedule.live_in_regs[orig] == reg:
                intervals[orig] = (-1, schedule.length)
                candidates = [orig]
        if not candidates:
            report.add(
                R_LIVE_OUT.diag(
                    f"live-out {orig!r} advertised in {reg.cls}{reg.index} "
                    "but no value with that binding was produced",
                    location=orig,
                )
            )
            continue
        latest = max(candidates, key=lambda name: intervals[name][0])
        start, end = intervals[latest]
        intervals[latest] = (start, max(end, schedule.length))

    # Overlap within one physical register, and per-class pressure.
    by_reg: Dict[Tuple[str, int], List[Tuple[int, int, str]]] = {}
    by_class: Dict[str, List[Tuple[int, int]]] = {}
    for name, (start, end) in intervals.items():
        if end <= start:
            continue  # dead definition: register reusable immediately
        reg = binding[name]
        by_reg.setdefault((reg.cls, reg.index), []).append((start, end, name))
        by_class.setdefault(reg.cls, []).append((start, end))

    for (cls, index), spans in by_reg.items():
        spans.sort()
        busy_until, holder = None, None
        for start, end, name in spans:
            if busy_until is not None and start < busy_until:
                report.add(
                    R_REG_OVERWRITE.diag(
                        f"{cls}{index} redefined by {name!r} at cycle "
                        f"{start} while still holding {holder!r} "
                        f"(live through cycle {busy_until})",
                        location=name,
                    )
                )
            if busy_until is None or end > busy_until:
                busy_until, holder = end, name

    for cls, spans in by_class.items():
        capacity = machine.registers.get(cls)
        if capacity is None:
            continue  # reported by sched.reg-range
        events = sorted(
            [(start, 1) for start, _ in spans]
            + [(end, -1) for _, end in spans],
            key=lambda event: (event[0], event[1]),
        )
        live = peak = peak_at = 0
        for when, delta in events:
            live += delta
            if live > peak:
                peak, peak_at = live, when
        if peak > capacity:
            report.add(
                R_REG_PRESSURE.diag(
                    f"{peak} values of class {cls!r} live around cycle "
                    f"{peak_at}, but the file holds {capacity}",
                    location=cls,
                )
            )


# ----------------------------------------------------------------------
def _dependence_rules(
    schedule: Schedule,
    dag: DependenceDAG,
    machine: MachineModel,
    report: VerifyReport,
) -> None:
    placed: Dict[int, List] = {}
    for op in schedule.ops:
        if op.uid is not None:
            placed.setdefault(op.uid, []).append(op)

    for uid in dag.op_nodes():
        ops = placed.get(uid, ())
        if len(ops) != 1:
            report.add(
                R_UNSCHEDULED.diag(
                    f"DAG op {uid} ({dag.instruction(uid)}) appears "
                    f"{len(ops)} time(s) in the schedule",
                    location=f"n{uid}",
                )
            )

    cycle_of = {
        uid: ops[0].cycle for uid, ops in placed.items() if len(ops) == 1
    }
    pseudo = (dag.entry, dag.exit)
    for u, v, data in dag.edges():
        if u in pseudo or v in pseudo:
            continue
        if u not in cycle_of or v not in cycle_of:
            continue  # missing ops already reported
        gap = cycle_of[v] - cycle_of[u]
        if data.get("kind") is EdgeKind.DATA:
            required = _latency(machine, dag.instruction(u))
            constraint = f"data ({dag.instruction(u).op.name} latency)"
        else:
            reason = data.get("reason", "")
            if reason == "reg-reuse":
                required = max(1, _latency(machine, dag.instruction(u)))
                constraint = "seq reg-reuse (writeback)"
            elif reason in STRICT_SEQ_REASONS or reason.startswith("ursa"):
                required = 1
                constraint = f"seq {reason}"
            else:
                required = 0  # order-pinning only: same cycle is legal
                constraint = f"seq {reason} (order)"
        if gap < required:
            report.add(
                R_DEPENDENCE.diag(
                    f"edge {u}->{v} [{constraint}] needs {required} "
                    f"cycle(s) but the schedule provides {gap} "
                    f"(cycles {cycle_of[u]} -> {cycle_of[v]})",
                    location=f"n{v}",
                )
            )

    # Writeback timing for every read, including scheduler-synthesized
    # spill code that the DAG knows nothing about.
    def_ops: Dict[str, Tuple[int, int]] = {}
    for op in schedule.ops:
        if op.inst.dest is not None:
            def_ops[op.inst.dest] = (op.cycle, _latency(machine, op.inst))
    for op in schedule.ops:
        for name in op.inst.uses():
            if name in schedule.live_in_regs:
                continue
            if name not in def_ops:
                report.add(
                    R_USE_BEFORE_DEF.diag(
                        f"{op.inst} reads {name!r}, which nothing in the "
                        "schedule defines",
                        location=f"cycle{op.cycle}",
                    )
                )
                continue
            def_cycle, latency = def_ops[name]
            ready = def_cycle + latency
            if op.cycle < ready:
                report.add(
                    R_USE_BEFORE_DEF.diag(
                        f"{op.inst} reads {name!r} at cycle {op.cycle}, "
                        f"before its writeback completes at {ready}",
                        location=f"cycle{op.cycle}",
                    )
                )
