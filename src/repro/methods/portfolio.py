"""The ``portfolio`` backend: race a backend set, best verified answer wins.

The racer fans a configurable member set (default: the exact solver
plus three heuristics) over the same trace.  Under a wall-clock
:class:`~repro.resilience.Deadline` the members run as separate
processes — the deadline stack is process-local state, so racing in
threads would corrupt it — using the same pool idiom as
``repro.serve.shard`` (module-level worker, pickle preflight, broad
pool-failure fallback to serial).  Without a wall-clock budget the
members run serially in-process, which is deterministic and is what
the method-sweep tests exercise.

The winner is the member with the fewest cycles among those that
finish inside the budget (ties broken by declared ``cost_hint``, then
member order).  A member that proves optimality — its cycle count
matches the static ``analyze.bounds`` length bound, or the exact
backend certifies its search — ends the race immediately: nothing can
beat it.  Either way the member's result counts as exact, and its
report entry says how it was proved (``proof: "bound"`` or
``"search"``).  Attribution (who won, every member's outcome, whether
an exact result landed in time) is recorded in the compilation's
``backend_report`` and surfaces in the ``DegradationReport`` and
``repro compare --json``.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.allocator import AllocationError
from repro.resilience.budgets import DeadlineExpired, active_deadline

#: Raced when the caller does not configure a member set.
DEFAULT_MEMBERS = ("bnb-exact", "ursa", "prepass", "goodman-hsu")

#: Poll interval while waiting on racing workers.
_POLL_SECONDS = 0.01


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


def _recoverable():
    from repro.graph.dag import CycleError
    from repro.pipeline import PipelineError
    from repro.scheduling.list_scheduler import ScheduleError
    from repro.scheduling.regalloc import RegAllocError

    return (
        PipelineError,
        AllocationError,
        ScheduleError,
        RegAllocError,
        DeadlineExpired,
        CycleError,
    )


class _MemberOutcome:
    """One member's race result (parent-side bookkeeping)."""

    __slots__ = (
        "method", "outcome", "cycles", "reason", "report", "result", "proof",
    )

    def __init__(self, method: str):
        self.method = method
        self.outcome = "timeout"
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


def _race_worker(payload: Tuple) -> Tuple:
    """Pool entry point; must stay module-level (pickled by name)."""
    method, dag, machine, seconds = payload
    from repro.pipeline import compile_trace
    from repro.resilience.budgets import Deadline

    deadline = Deadline(seconds=seconds) if seconds is not None else None
    try:
        result = compile_trace(
            dag, machine, method=method, verify=False, deadline=deadline
        )
        # The allocation is dropped: it does not always pickle cheaply
        # and the racer only needs the verified schedule + final DAG.
        return (
            method,
            result.cycles,
            result.schedule,
            result.dag,
            result.backend_report,
            None,
        )
    except Exception as exc:  # rendered; the parent records the loss
        return (method, None, None, None, None, f"{type(exc).__name__}: {exc}")


def _compile_member(method: str, dag, machine) -> Tuple:
    """Serial in-process member compile (shares the active deadline)."""
    from repro.pipeline import compile_trace

    result = compile_trace(dag, machine, method=method, verify=False)
    return result.cycles, result.schedule, result.dag, result.allocation, (
        result.backend_report
    )


def _serial_race(
    members: Sequence[str], dag, machine
) -> List[_MemberOutcome]:
    """Run members one after another in-process.

    Used when there is no wall-clock budget to race against, and as the
    degradation path when a pool cannot be spawned.  The shared sticky
    deadline (if any) is already on the scope stack: once it trips,
    later members fail fast with ``DeadlineExpired``.
    """
    obs.count("portfolio.serial_races")
    recoverable = _recoverable()
    outcomes = []
    for member in members:
        outcome = _MemberOutcome(member)
        try:
            cycles, schedule, final_dag, allocation, report = _compile_member(
                member, dag, machine
            )
        except recoverable as exc:
            outcome.outcome = "failed"
            outcome.reason = f"{type(exc).__name__}: {exc}"
            obs.count("portfolio.member_failures")
        else:
            outcome.outcome = "ok"
            outcome.cycles = cycles
            outcome.report = report
            outcome.result = (schedule, final_dag, allocation)
        outcomes.append(outcome)
    return outcomes


def _pool_race(
    members: Sequence[str], dag, machine, deadline, length_bound: int
) -> Optional[List[_MemberOutcome]]:
    """Race members as processes under ``deadline``.

    Returns None when the pool cannot run at all (the caller degrades
    to the serial path under the same deadline).
    """
    from repro.serve.shard import POOL_ERRORS

    seconds = deadline.remaining_seconds()
    payloads = [(member, dag, machine, seconds) for member in members]
    try:
        pickle.dumps(payloads[0])
    except Exception:
        obs.count("portfolio.pool_fallback")
        obs.event("portfolio.pool_fallback", reason="unpicklable payload")
        return None

    import multiprocessing

    outcomes = {member: _MemberOutcome(member) for member in members}
    try:
        pool = multiprocessing.Pool(processes=min(4, len(payloads)))
    except (AssertionError, *POOL_ERRORS) as exc:
        # AssertionError: daemonic pool workers (e.g. inside a serve
        # worker) are not allowed children; degrade to serial.
        obs.count("portfolio.pool_fallback")
        obs.event("portfolio.pool_fallback", reason=f"{type(exc).__name__}: {exc}")
        return None
    try:
        pending = {
            payload[0]: pool.apply_async(_race_worker, (payload,))
            for payload in payloads
        }
        while pending:
            for member, handle in list(pending.items()):
                if not handle.ready():
                    continue
                del pending[member]
                try:
                    method, cycles, schedule, final_dag, report, error = (
                        handle.get()
                    )
                except POOL_ERRORS as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    cycles = schedule = final_dag = report = None
                outcome = outcomes[member]
                if error is not None:
                    outcome.outcome = "failed"
                    outcome.reason = error
                    obs.count("portfolio.member_failures")
                else:
                    outcome.outcome = "ok"
                    outcome.cycles = cycles
                    outcome.report = report
                    outcome.result = (schedule, final_dag, None)
                    if outcome.prove(length_bound):
                        # A certified-optimal answer ends the race.
                        obs.count("portfolio.early_finish")
                        pending = {}
                        break
            if pending and deadline.expired():
                break
            if pending:
                time.sleep(_POLL_SECONDS)
    finally:
        pool.terminate()
        pool.join()
    for member, outcome in outcomes.items():
        if outcome.outcome == "timeout":
            outcome.reason = "deadline expired before the member finished"
    return list(outcomes.values())


def run_portfolio_pass(state) -> None:
    """Pipeline schedule pass for the ``portfolio`` backend."""
    from repro.analyze.bounds import length_lower_bound
    from repro.methods import resolve

    options = state.options.get("backend") or {}
    members = _validate_members(
        options.get("portfolio_members") or DEFAULT_MEMBERS
    )
    deadline = active_deadline()
    length_bound = length_lower_bound(state.dag, state.machine)

    obs.count("portfolio.races")
    with obs.span("portfolio.race", members=len(members)):
        outcomes = None
        mode = "serial"
        if deadline is not None and deadline.remaining_seconds() is not None:
            outcomes = _pool_race(
                members, state.dag, state.machine, deadline, length_bound
            )
            mode = "race"
        if outcomes is None:
            outcomes = _serial_race(members, state.dag, state.machine)
            mode = "serial"

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
    schedule, final_dag, allocation = winner.result
    state.schedule = schedule
    state.final_dag = final_dag
    state.allocation = allocation
    # A finisher that meets the sound length bound is as exact as a
    # certified search: nothing can beat it.
    proofs = [o.prove(length_bound) for o in outcomes]
    exact_delivered = any(proofs)
    state.backend_report = {
        "backend": "portfolio",
        "mode": mode,
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
        mode=mode,
        exact=exact_delivered,
    )
