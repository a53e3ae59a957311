"""The ``portfolio`` backend: run a backend set, best verified answer wins.

The portfolio compiles the same trace with a configurable member set
(default: the exact solver plus three heuristics) and keeps the best
answer.  Members run serially in-process, cheapest ``cost_hint``
first, in every mode: with or without a wall-clock
:class:`~repro.resilience.Deadline` the same code runs at the same
cost, so one input gets one answer whatever the budget.  A deadline is
shared and sticky — once it trips, the remaining members fail fast —
and because the exact solver is the most expensive member it runs
last, after the heuristics have had their turn.

The winner is the member with the fewest cycles among those that
finish inside the budget (ties broken by declared ``cost_hint``, then
member order).  A member whose cycle count matches the static
``analyze.bounds`` length bound, or whose search the exact backend
certifies, is exact; its report entry says how it was proved
(``proof: "bound"`` or ``"search"``).  Attribution (who won, every
member's outcome in declared order, whether an exact result landed in
time) is recorded in the compilation's ``backend_report`` and surfaces
in the ``DegradationReport`` and ``repro compare --json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.allocator import AllocationError
from repro.diagnostics import CompileError
from repro.methods import ScheduleOutcome
from repro.resilience.budgets import DeadlineExpired, active_deadline

#: Run when the caller does not configure a member set.
DEFAULT_MEMBERS = ("bnb-exact", "ursa", "prepass", "goodman-hsu")


def _validate_members(members: Sequence[str]) -> Tuple[str, ...]:
    from repro.methods import resolve

    validated = []
    for member in members:
        backend = resolve(member)  # unknown names raise UnknownMethodError
        if backend.name == "portfolio":
            raise AllocationError("portfolio cannot race itself")
        validated.append(backend.name)
    if not validated:
        raise AllocationError("portfolio needs at least one member")
    return tuple(validated)


class _MemberOutcome:
    """One member's result and how (if at all) it was proved optimal."""

    __slots__ = (
        "method", "outcome", "cycles", "reason", "report", "result", "proof",
    )

    def __init__(self, method: str):
        self.method = method
        self.outcome = "failed"  # until the member compiles
        self.cycles: Optional[int] = None
        self.reason = ""
        self.report: Optional[Dict] = None
        self.result = None  # (schedule, final_dag, allocation)
        #: how an ok result was proved optimal: "search" (the backend
        #: certified it), "bound" (it meets the static length bound)
        #: or None.
        self.proof: Optional[str] = None

    def prove(self, length_bound: int) -> Optional[str]:
        if self.outcome == "ok":
            if self.report and self.report.get("proved"):
                self.proof = "search"
            elif self.cycles == length_bound:
                self.proof = "bound"
        return self.proof

    def to_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "outcome": self.outcome,
            "cycles": self.cycles,
            "reason": self.reason,
            "report": self.report,
            "proof": self.proof,
        }


def _compile_member(method: str, dag, machine) -> Tuple:
    """Serial in-process member compile (shares the active deadline)."""
    from repro.pipeline import compile_trace

    result = compile_trace(dag, machine, method=method, verify=False)
    return result.cycles, result.schedule, result.dag, result.allocation, (
        result.backend_report
    )


def _run_members(
    members: Sequence[str], dag, machine
) -> List[_MemberOutcome]:
    """Run members one after another in-process, cheapest first.

    The shared sticky deadline (if any) is already on the scope stack:
    once it trips, later members fail fast with ``DeadlineExpired``.
    Ascending ``cost_hint`` order puts the exact solver last, so it
    cannot spend the budget before the heuristics run.  Outcomes come
    back in declared order.
    """
    from repro.methods import resolve

    outcomes = {member: _MemberOutcome(member) for member in members}
    for member in sorted(members, key=lambda m: resolve(m).cost_hint):
        outcome = outcomes[member]
        try:
            cycles, schedule, final_dag, allocation, report = _compile_member(
                member, dag, machine
            )
        except CompileError as exc:
            outcome.outcome = "failed"
            outcome.reason = f"{type(exc).__name__}: {exc}"
            obs.count("portfolio.member_failures")
        else:
            outcome.outcome = "ok"
            outcome.cycles = cycles
            outcome.report = report
            outcome.result = (schedule, final_dag, allocation)
    return [outcomes[member] for member in members]


def run_portfolio_pass(dag, machine, options) -> ScheduleOutcome:
    """Pipeline schedule pass for the ``portfolio`` backend."""
    from repro.analyze.bounds import length_lower_bound
    from repro.methods import resolve

    members = _validate_members(
        options.get("portfolio_members") or DEFAULT_MEMBERS
    )
    deadline = active_deadline()
    length_bound = length_lower_bound(dag, machine)

    obs.count("portfolio.races")
    with obs.span("portfolio.race", members=len(members)):
        outcomes = _run_members(members, dag, machine)

    finishers = [o for o in outcomes if o.outcome == "ok"]
    if not finishers:
        details = "; ".join(
            f"{o.method}: {o.reason or o.outcome}" for o in outcomes
        )
        if deadline is not None and deadline.expired():
            raise DeadlineExpired("portfolio", deadline)
        raise AllocationError(f"every portfolio member lost: {details}")

    order = {member: i for i, member in enumerate(members)}
    winner = min(
        finishers,
        key=lambda o: (o.cycles, resolve(o.method).cost_hint, order[o.method]),
    )
    # A finisher that meets the sound length bound is as exact as a
    # certified search: nothing can beat it.
    proofs = [o.prove(length_bound) for o in outcomes]
    exact_delivered = any(proofs)
    report = {
        "backend": "portfolio",
        "winner": winner.method,
        "winner_cycles": winner.cycles,
        "exact_delivered": exact_delivered,
        "length_lower_bound": length_bound,
        "members": [o.to_dict() for o in outcomes],
    }
    obs.event(
        "portfolio.win",
        winner=winner.method,
        cycles=winner.cycles,
        exact=exact_delivered,
    )
    return ScheduleOutcome(*winner.result, backend_report=report)
