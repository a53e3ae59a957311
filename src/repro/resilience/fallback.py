"""The escalation ladder: every compile ends in a verified schedule.

The paper concedes (§5) that the measurement/reduction heuristics are
best-effort: allocation can fail to converge, and downstream phases can
reject its output.  ``compile_with_fallback`` turns that into a
guarantee by walking a ladder of progressively simpler methods —

    INTEGRATED -> PHASED -> SPILL_ONLY -> spill-everywhere

— advancing whenever a rung raises, fails to converge, trips the
verify packs, or the shared deadline expires.  The last rung is the
classic always-feasible baseline (cf. Bouchez/Darte/Rastello): store
every value to memory right after its definition and reload it right
before each use, so worst-case register pressure is bounded by one
instruction's operand count and no allocation search is needed at all.

The returned :class:`~repro.pipeline.CompilationResult` carries a
structured :class:`DegradationReport` (which rung won, why earlier
rungs lost, and the cycle-count cost of degrading) in its
``degradation`` field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.allocator import AllocationError
from repro.diagnostics import CompileError, first_line
from repro.graph.dag import DependenceDAG
from repro.ir.instructions import Addr, Instruction, Var
from repro.ir.opcodes import Opcode
from repro.machine.model import MachineModel
from repro.methods import ladder_for  # noqa: F401  (re-exported API)
from repro.resilience import chaos
from repro.resilience.budgets import Deadline, deadline_scope
from repro.scheduling.list_scheduler import Schedule
from repro.scheduling.packer import pack_in_order
from repro.scheduling.regalloc import LinearScanAllocator

#: Memory region for the spill-everywhere baseline.  Distinct from the
#: allocators' ``%spill`` region so slot counters can never collide;
#: every ``%``-prefixed base is excluded from user-memory verification.
SE_SPILL_BASE = "%spillse"


# ======================================================================
# Degradation reporting.
# ======================================================================
@dataclass
class RungAttempt:
    """One ladder rung's outcome: ok / degraded / failed / skipped."""

    method: str
    outcome: str
    reason: str = ""
    cycles: Optional[int] = None

    def describe(self) -> str:
        tail = f" ({self.cycles} cycles)" if self.cycles is not None else ""
        reason = f" — {self.reason}" if self.reason else ""
        return f"{self.method}: {self.outcome}{reason}{tail}"


@dataclass
class DegradationReport:
    """Structured account of how resilient compilation degraded (or not)."""

    requested_method: str
    final_method: str
    degraded: bool
    attempts: List[RungAttempt] = field(default_factory=list)
    #: why the shared deadline tripped (``time``/``work``/``chaos``), if it did.
    deadline_tripped: Optional[str] = None
    #: final cycles minus the best cycle count any rung achieved (>= 0
    #: means correctness cost this many cycles; None when nothing ran).
    cost_delta: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "requested_method": self.requested_method,
            "final_method": self.final_method,
            "degraded": self.degraded,
            "deadline_tripped": self.deadline_tripped,
            "cost_delta": self.cost_delta,
            "attempts": [
                {
                    "method": a.method,
                    "outcome": a.outcome,
                    "reason": a.reason,
                    "cycles": a.cycles,
                }
                for a in self.attempts
            ],
        }

    def render(self) -> str:
        status = "degraded" if self.degraded else "clean"
        arrow = (
            self.requested_method
            if self.final_method == self.requested_method
            else f"{self.requested_method} -> {self.final_method}"
        )
        lines = [f"degradation report: {arrow} ({status})"]
        lines.extend(f"  {a.describe()}" for a in self.attempts)
        if self.deadline_tripped:
            lines.append(f"  deadline tripped: {self.deadline_tripped}")
        if self.cost_delta is not None and self.cost_delta > 0:
            lines.append(f"  cost delta: +{self.cost_delta} cycles vs best rung")
        return "\n".join(lines)


# ======================================================================
# The always-feasible last rung.
# ======================================================================
def spill_everywhere_rewrite(
    instructions: Sequence[Instruction],
    live_ins: Sequence[str] = (),
    live_outs: Sequence[str] = (),
) -> List[Instruction]:
    """Insert a store after every definition and a load before every use.

    Values with later consumers live in ``%spillse`` cells between
    their definition and each use; every use reads a freshly reloaded
    copy under a unique name, so at most one instruction's operands
    (plus its result) ever need registers simultaneously.
    """
    future_uses: Dict[str, int] = {}
    for inst in instructions:
        for name in inst.uses():
            future_uses[name] = future_uses.get(name, 0) + 1

    slots = itertools.count()
    reload_ids = itertools.count()
    slot_of: Dict[str, Addr] = {}
    out: List[Instruction] = []

    def assign_slot(name: str) -> None:
        if name not in slot_of:
            slot_of[name] = Addr(SE_SPILL_BASE, next(slots))
            out.append(
                Instruction(Opcode.SPILL, srcs=(Var(name),), addr=slot_of[name])
            )

    live_out_set = set(live_outs)
    for name in sorted(live_ins):
        if future_uses.get(name):
            assign_slot(name)

    for inst in instructions:
        rename: Dict[str, str] = {}
        for name in dict.fromkeys(inst.uses()):
            if name in slot_of:
                fresh = f"{name}@se{next(reload_ids)}"
                out.append(
                    Instruction(Opcode.RELOAD, dest=fresh, addr=slot_of[name])
                )
                rename[name] = fresh
        out.append(inst.with_renamed_uses(rename) if rename else inst)
        dest = inst.dest
        if dest is not None and (future_uses.get(dest) or dest in live_out_set):
            assign_slot(dest)

    return out


def _check_register_fit(
    machine: MachineModel, names: Sequence[str], what: str
) -> None:
    by_class: Dict[str, int] = {}
    for name in names:
        cls = machine.reg_class_of(name)
        by_class[cls] = by_class.get(cls, 0) + 1
    for cls, needed in by_class.items():
        if needed > machine.registers.get(cls, 0):
            raise AllocationError(
                f"{needed} {what} values need class {cls!r} but the machine "
                f"has {machine.registers.get(cls, 0)} registers; no method "
                "can be feasible"
            )


def spill_everywhere_schedule(
    dag: DependenceDAG, machine: MachineModel
) -> Schedule:
    """Compile ``dag`` with the spill-everywhere baseline.

    Feasible for any program whose live-in and live-out sets fit the
    register file (the execution model pins those in registers at entry
    and exit — no schedule can relax that).  Involves no measurement,
    kill selection, or transformation search, which makes this rung
    immune to every chaos fault class and guarantees the escalation
    ladder terminates with a correct schedule.
    """
    order = dag.source_order or sorted(dag.op_nodes())
    instructions = [dag.instruction(uid) for uid in order]
    live_ins = sorted(
        name for name, d in dag.value_defs.items() if d == dag.entry
    )
    live_outs = sorted(dag.live_out)
    _check_register_fit(machine, live_ins, "live-in")
    _check_register_fit(machine, live_outs, "live-out")

    obs.count("resilience.spill_everywhere")
    rewritten = spill_everywhere_rewrite(instructions, live_ins, live_outs)
    outcome = LinearScanAllocator(machine).run(
        rewritten, live_ins=live_ins, live_outs=live_outs
    )
    return pack_in_order(outcome.instructions, machine, outcome)


# ======================================================================
# The ladder itself.
# ======================================================================
def _attribution(result) -> str:
    """One-line backend attribution for a winning rung.

    Surfaces the exact solver's certificate and the portfolio's win
    report in the :class:`DegradationReport` (the full structured form
    stays on ``result.backend_report``).
    """
    report = getattr(result, "backend_report", None)
    if not report:
        return ""
    backend = report.get("backend")
    if backend == "portfolio":
        exact = " (exact result delivered)" if report.get("exact_delivered") else ""
        return f"portfolio winner: {report.get('winner')}{exact}"
    if backend == "bnb-exact":
        state = "proved optimal" if report.get("proved") else "best-so-far"
        return f"bnb-exact: {state} at {report.get('length')} cycles"
    return ""


def compile_with_fallback(
    source,
    machine: MachineModel,
    method: str = "ursa",
    deadline: Optional[Deadline] = None,
    hints=None,
    **kwargs,
):
    """Compile ``source``, escalating down the ladder until a rung yields
    a verified result; always attaches a :class:`DegradationReport`.

    Each rung's output also runs ``verify_compilation`` (with
    remeasurement), and pack errors are a reason to escalate.  ``hints``
    accepts a :class:`repro.analyze.bounds.FeasibilityReport` for this
    trace on this machine: a report that proves global infeasibility (live-in or
    live-out set exceeds the register file) raises immediately instead
    of burning the whole ladder, and rungs the static bounds prove
    doomed (e.g. ``ursa-seq`` when the pressure floor already exceeds
    the register file) are skipped with a ``skipped`` attempt — the
    always-feasible last rung is never skipped.  Remaining keyword
    arguments are forwarded to :func:`repro.pipeline.compile_trace`
    for every rung.
    """
    from repro.pipeline import PipelineError, compile_trace
    from repro.verify import verify_compilation

    doomed: Dict[str, str] = {}
    if hints is not None:
        if getattr(hints, "infeasible", False):
            reasons = "; ".join(hints.infeasible_reasons())
            obs.count("resilience.hint_infeasible")
            raise PipelineError(
                f"static analysis proves no method can compile this trace: "
                f"{reasons}"
            )
        doomed = dict(hints.doomed_rungs())

    ladder = ladder_for(method)
    attempts: List[RungAttempt] = []
    fallback_best: Optional[Tuple[int, object]] = None
    final = None

    for index, rung in enumerate(ladder):
        last = index == len(ladder) - 1
        if deadline is not None and deadline.expired() and not last:
            attempts.append(
                RungAttempt(
                    rung, "skipped", f"deadline expired ({deadline.tripped})"
                )
            )
            obs.count("resilience.fallback_skipped")
            continue
        if rung in doomed and not last:
            attempts.append(
                RungAttempt(
                    rung, "skipped", f"static analysis: {doomed[rung]}"
                )
            )
            obs.count("resilience.fallback_skipped")
            obs.count("resilience.hint_skips")
            continue

        obs.count("resilience.fallback_attempts")
        try:
            with deadline_scope(deadline), chaos.decision(rung=rung):
                result = compile_trace(source, machine, method=rung, **kwargs)
        except CompileError as exc:
            if exc.code == "parse_error":
                raise  # bad input fails every rung alike
            reason = f"{type(exc).__name__}: {first_line(exc)}"
            attempts.append(RungAttempt(rung, "failed", reason))
            obs.count("resilience.fallback_escalations")
            obs.event("resilience.escalate", rung=rung, reason=reason)
            continue

        problems: List[str] = []
        if result.deadline_tripped is not None and not last:
            # Some search during this rung returned best-so-far; the
            # output may differ from an unhurried compile.
            problems.append(f"deadline tripped ({result.deadline_tripped})")
        allocation = result.allocation
        if allocation is not None and not allocation.converged:
            problems.append("allocation did not converge")
        errors = verify_compilation(result, remeasure=True).errors()
        if errors:
            problems.append(
                f"{len(errors)} verify pack error(s) ({errors[0].code})"
            )

        if not problems:
            attempts.append(
                RungAttempt(
                    rung,
                    "ok",
                    _attribution(result),
                    cycles=result.cycles,
                )
            )
            final = result
            break

        attempts.append(
            RungAttempt(rung, "degraded", "; ".join(problems), result.cycles)
        )
        obs.count("resilience.fallback_escalations")
        obs.event("resilience.escalate", rung=rung, reason="; ".join(problems))
        if fallback_best is None or result.cycles < fallback_best[0]:
            fallback_best = (result.cycles, result)

    if final is None and fallback_best is not None:
        # No rung was fully clean, but a verified-if-degraded result
        # exists (e.g. non-converged allocation rescued by assignment).
        final = fallback_best[1]
    if final is None:
        raise PipelineError(
            f"resilient compile of {method!r} exhausted the ladder:\n"
            + "\n".join(f"  {a.describe()}" for a in attempts)
        )

    degraded = (
        final.method != method
        or any(a.outcome != "ok" for a in attempts)
        or final.deadline_tripped is not None
    )
    cycles_seen = [a.cycles for a in attempts if a.cycles is not None]
    report = DegradationReport(
        requested_method=method,
        final_method=final.method,
        degraded=degraded,
        attempts=attempts,
        deadline_tripped=deadline.tripped if deadline is not None else None,
        cost_delta=(final.cycles - min(cycles_seen)) if cycles_seen else None,
    )
    final.degradation = report
    if degraded:
        obs.count("resilience.degraded_compiles")
    obs.event(
        "resilience.report",
        requested=method,
        final=final.method,
        degraded=degraded,
        rungs=len(attempts),
    )
    return final
