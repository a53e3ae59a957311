"""The ``bnb-exact`` backend: branch-and-bound allocation + scheduling.

A pure-python exact solver in the spirit of combinatorial register
allocation / instruction scheduling (Castañeda Lozano et al.): depth
first search over per-cycle issue sets, seeded by the heuristic list
scheduler's incumbent, pruned by the static ``repro.analyze.bounds``
lower bounds, a per-state dominance memo, and per-class register
capacity.  On termination the result is provably optimal (its length
matches either the exhausted search's best or the static lower bound);
under an expiring :class:`~repro.resilience.Deadline` it degrades to
the best schedule found so far (anytime), tagging the certificate
``proved=False``.

Model (matches :mod:`repro.scheduling.optimal` and the list
scheduler's binding semantics):

* unit latencies and unit occupancy only — the paper's base model;
* reads happen at issue, writes land at end of cycle, so an op's
  destination may take over a register its own (dying) source held;
* no spilling (``can_spill=False``): if the static pressure floor
  already exceeds the register file the backend fails fast and the
  escalation ladder moves on to ``ursa``.

Unlike the evaluation oracle in ``scheduling/optimal.py`` this solver
is *sound for compilation*: live-in values occupy registers from cycle
0 and dead definitions hold their register through writeback, so every
plan it returns can be realized as a verifier-clean
:class:`~repro.scheduling.list_scheduler.Schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.allocator import AllocationError
from repro.graph.dag import DependenceDAG
from repro.machine.model import MachineModel
from repro.machine.vliw import RegRef
from repro.methods import ScheduleOutcome
from repro.resilience.budgets import DeadlineExpired, active_deadline
from repro.scheduling.list_scheduler import (
    ListScheduler,
    Schedule,
    ScheduledOp,
    ScheduleError,
)

#: Default cap on op count (the DP state space is exponential).
MAX_BNB_OPS = 20

#: How many node expansions between deadline checks.
_DEADLINE_STRIDE = 256


class ExactSearchError(AllocationError):
    """The exact search cannot handle this instance (too large,
    non-unit latencies, or no spill-free schedule exists).

    Subclasses :class:`AllocationError` so the escalation ladder treats
    it as a recoverable rung failure.
    """


@dataclass(frozen=True)
class BnbCertificate:
    """What the search established about its answer."""

    proved: bool            # length is the true optimum
    length: int
    lower_bound: int
    explored: int           # DFS node expansions
    source: str             # "search" | "incumbent"

    def to_dict(self) -> Dict[str, object]:
        return {
            "proved": self.proved,
            "length": self.length,
            "lower_bound": self.lower_bound,
            "explored": self.explored,
            "source": self.source,
        }


# ======================================================================
# Problem extraction.
# ======================================================================
@dataclass(frozen=True)
class _Problem:
    n: int
    uids: Tuple[int, ...]            # op index -> DAG uid
    preds: Tuple[int, ...]           # predecessor mask per op index
    fu_class: Tuple[str, ...]
    fu_limit: Dict[str, int]
    dest_class: Tuple[Optional[str], ...]   # register class of dest, or None
    users: Tuple[int, ...]           # ops reading op i's value
    live_out: Tuple[bool, ...]
    #: (users mask, pinned-forever, register class) per live-in value.
    live_ins: Tuple[Tuple[int, bool, str], ...]
    registers: Dict[str, int]
    heights: Tuple[int, ...]         # chain length from op i to a sink


def _build_problem(
    dag: DependenceDAG, machine: MachineModel, max_ops: int
) -> _Problem:
    ops = list(dag.op_nodes())
    if len(ops) > max_ops:
        raise ExactSearchError(
            f"{len(ops)} ops exceed bnb-exact's cap of {max_ops} "
            "(raise via backend_options={'bnb_max_ops': ...})"
        )
    for fu in machine.fu_classes:
        if fu.latency != 1 or fu.occupancy != 1:
            raise ExactSearchError(
                "bnb-exact assumes unit latencies and occupancy "
                f"(class {fu.name!r} has latency {fu.latency}, "
                f"occupancy {fu.occupancy})"
            )
    index = {uid: i for i, uid in enumerate(ops)}

    preds = [0] * len(ops)
    for uid in ops:
        for pred in dag.preds(uid):
            if pred in index:
                preds[index[uid]] |= 1 << index[pred]

    users = [0] * len(ops)
    live_out = [False] * len(ops)
    dest_class: List[Optional[str]] = [None] * len(ops)
    for uid in ops:
        inst = dag.instruction(uid)
        if inst.dest is None:
            continue
        dest_class[index[uid]] = machine.reg_class_of(inst.dest)
        for use in dag.value_uses.get(inst.dest, ()):
            if use in index:
                users[index[uid]] |= 1 << index[use]
        if inst.dest in dag.live_out:
            live_out[index[uid]] = True

    live_ins: List[Tuple[int, bool, str]] = []
    for name, def_uid in sorted(dag.value_defs.items()):
        if def_uid != dag.entry:
            continue
        mask = 0
        for use in dag.value_uses.get(name, ()):
            if use in index:
                mask |= 1 << index[use]
        # A use-less live-in (or a live-out one) holds its register for
        # the whole schedule, exactly as the list scheduler binds it.
        pinned = name in dag.live_out or mask == 0
        live_ins.append((mask, pinned, machine.reg_class_of(name)))

    # Chain height in ops (unit latency): cycles still needed once an
    # op becomes the search frontier.  Masks are downward-closed, so a
    # static height is a valid remaining-length bound.
    succs = [0] * len(ops)
    for i in range(len(ops)):
        for j in range(len(ops)):
            if (preds[j] >> i) & 1:
                succs[i] |= 1 << j
    heights = [0] * len(ops)
    todo = list(range(len(ops)))
    while todo:
        rest = []
        for i in todo:
            pending = succs[i]
            tallest = 0
            ok = True
            j = 0
            while pending:
                if pending & 1:
                    if heights[j] == 0:
                        ok = False
                        break
                    tallest = max(tallest, heights[j])
                pending >>= 1
                j += 1
            if ok:
                heights[i] = tallest + 1
            else:
                rest.append(i)
        if len(rest) == len(todo):  # pragma: no cover - DAG is acyclic
            raise ExactSearchError("dependence cycle in exact search")
        todo = rest

    return _Problem(
        n=len(ops),
        uids=tuple(ops),
        preds=tuple(preds),
        fu_class=tuple(
            machine.fu_class_for(dag.instruction(uid).op).name for uid in ops
        ),
        fu_limit={fu.name: fu.count for fu in machine.fu_classes},
        dest_class=tuple(dest_class),
        users=tuple(users),
        live_out=tuple(live_out),
        live_ins=tuple(live_ins),
        registers=dict(machine.registers),
        heights=tuple(heights),
    )


# ======================================================================
# Capacity and bound helpers.
# ======================================================================
def _live_per_class(problem: _Problem, mask: int) -> Dict[str, int]:
    """Registers held per class once exactly ``mask`` has issued."""
    live: Dict[str, int] = {cls: 0 for cls in problem.registers}
    for umask, pinned, cls in problem.live_ins:
        if pinned or umask & ~mask:
            live[cls] = live.get(cls, 0) + 1
    for i in range(problem.n):
        cls = problem.dest_class[i]
        if cls is None or not (mask >> i) & 1:
            continue
        if problem.users[i] & ~mask or problem.live_out[i]:
            live[cls] = live.get(cls, 0) + 1
    return live


def _fits_registers(problem: _Problem, mask: int, subset: Sequence[int]) -> bool:
    """Can ``subset`` issue from cumulative ``mask`` (which includes it)?

    Post-state liveness plus this cycle's dead definitions (their
    registers are held through writeback, freeing before the next
    cycle's issue) must fit every class.
    """
    live = _live_per_class(problem, mask)
    for i in subset:
        cls = problem.dest_class[i]
        if cls is None:
            continue
        if not (problem.users[i] & ~mask) and not problem.live_out[i]:
            live[cls] = live.get(cls, 0) + 1  # dead def, held this cycle
    return all(
        live.get(cls, 0) <= count for cls, count in problem.registers.items()
    )


def _remaining_bound(problem: _Problem, mask: int) -> int:
    """Cycles any completion of ``mask`` still needs (chain + resources)."""
    chain = 0
    per_class: Dict[str, int] = {}
    for i in range(problem.n):
        if (mask >> i) & 1:
            continue
        if problem.heights[i] > chain:
            chain = problem.heights[i]
        cls = problem.fu_class[i]
        per_class[cls] = per_class.get(cls, 0) + 1
    bound = chain
    for cls, ops in per_class.items():
        need = -(-ops // problem.fu_limit[cls])
        if need > bound:
            bound = need
    return bound


def _issue_sets(problem: _Problem, mask: int, ready: Sequence[int]):
    """Ready subsets legal on FUs *and* registers, largest first."""
    width = sum(problem.fu_limit.values())
    for size in range(min(len(ready), width), 0, -1):
        for subset in combinations(ready, size):
            counts: Dict[str, int] = {}
            ok = True
            for i in subset:
                cls = problem.fu_class[i]
                counts[cls] = counts.get(cls, 0) + 1
                if counts[cls] > problem.fu_limit[cls]:
                    ok = False
                    break
            if not ok:
                continue
            new_mask = mask
            for i in subset:
                new_mask |= 1 << i
            if _fits_registers(problem, new_mask, subset):
                yield subset, new_mask


# ======================================================================
# The search.
# ======================================================================
def _search(
    problem: _Problem,
    incumbent_length: Optional[int],
    global_lb: int,
) -> Tuple[Optional[List[Tuple[int, ...]]], Optional[int], bool, int]:
    """Branch and bound over per-cycle issue sets.

    Returns ``(best_plan, best_length, proved, explored)``; the plan is
    None when the incumbent was never beaten.
    """
    full = (1 << problem.n) - 1
    INF = 1 << 30
    best_len = incumbent_length if incumbent_length is not None else INF
    best_plan: Optional[List[Tuple[int, ...]]] = None
    seen: Dict[int, int] = {}
    deadline = active_deadline()
    explored = 0
    proved = True
    plan: List[Tuple[int, ...]] = []

    def dfs(mask: int, cycle: int) -> None:
        nonlocal best_len, best_plan, explored, proved
        if best_len == global_lb:
            return  # optimum already certified; unwind
        explored += 1
        if (
            deadline is not None
            and explored % _DEADLINE_STRIDE == 0
            and deadline.expired()
        ):
            raise DeadlineExpired("bnb-exact", deadline)
        if mask == full:
            if cycle < best_len:
                best_len = cycle
                best_plan = list(plan)
            return
        if cycle + _remaining_bound(problem, mask) >= best_len:
            return
        if seen.get(mask, INF) <= cycle:
            return
        seen[mask] = cycle
        ready = [
            i
            for i in range(problem.n)
            if not (mask >> i) & 1 and not (problem.preds[i] & ~mask)
        ]
        for subset, new_mask in _issue_sets(problem, mask, ready):
            plan.append(subset)
            dfs(new_mask, cycle + 1)
            plan.pop()

    try:
        dfs(0, 0)
    except DeadlineExpired:
        proved = False
        obs.count("bnb.deadline_stops")
    if best_len >= INF:
        return None, None, proved, explored
    # An expired search that already reached the static lower bound is
    # still a proof of optimality.
    if not proved and best_len == global_lb:
        proved = True
    return best_plan, best_len, proved, explored


# ======================================================================
# Realizing a plan as a Schedule.
# ======================================================================
def _realize(
    dag: DependenceDAG,
    machine: MachineModel,
    problem: _Problem,
    plan: List[Tuple[int, ...]],
) -> Schedule:
    """Bind a per-cycle issue plan to concrete registers and FU slots.

    Mirrors the list scheduler's semantics exactly: live-ins allocated
    at cycle 0 sorted by name, sources freed at the issue of their last
    use (so a dest may reuse a dying source's register), dead
    definitions freed after writeback.
    """
    free: Dict[str, List[int]] = {
        cls: list(range(count)) for cls, count in machine.registers.items()
    }

    def alloc(cls: str) -> RegRef:
        pool = free.get(cls)
        if not pool:  # pragma: no cover - capacity proved during search
            raise ExactSearchError(f"register class {cls!r} exhausted")
        return RegRef(pool.pop(0), cls)

    def release(ref: RegRef) -> None:
        pool = free[ref.cls]
        pool.append(ref.index)
        pool.sort()

    reg_of: Dict[str, RegRef] = {}
    reg_assignment: Dict[str, RegRef] = {}
    live_in_regs: Dict[str, RegRef] = {}
    remaining_users: Dict[str, set] = {
        name: set(dag.value_uses.get(name, ()))
        for name in dag.value_defs
    }
    for name, def_uid in sorted(dag.value_defs.items()):
        if def_uid != dag.entry:
            continue
        ref = alloc(machine.reg_class_of(name))
        reg_of[name] = ref
        reg_assignment[name] = ref
        live_in_regs[name] = ref

    scheduled: List[ScheduledOp] = []
    deferred: List[RegRef] = []
    for cycle, subset in enumerate(plan):
        for ref in deferred:  # dead defs from last cycle, past writeback
            release(ref)
        deferred = []
        issued = {problem.uids[i] for i in subset}
        insts = {i: dag.instruction(problem.uids[i]) for i in subset}
        # Reads happen at issue: values whose final users all issue this
        # cycle free their registers before any destination allocates.
        for i, inst in insts.items():
            for name in set(inst.uses()):
                remaining_users[name].discard(problem.uids[i])
        for i, inst in insts.items():
            for name in set(inst.uses()):
                pending = remaining_users[name] - {dag.exit}
                if (
                    not pending
                    and name not in dag.live_out
                    and name in reg_of
                ):
                    release(reg_of.pop(name))
        fu_cursor: Dict[str, int] = {}
        for i in sorted(subset):
            inst = insts[i]
            cls = machine.fu_class_for(inst.op).name
            slot = fu_cursor.get(cls, 0)
            fu_cursor[cls] = slot + 1
            scheduled.append(
                ScheduledOp(inst, cycle, cls, slot, problem.uids[i])
            )
            if inst.dest is not None:
                ref = alloc(machine.reg_class_of(inst.dest))
                reg_assignment[inst.dest] = ref
                pending = remaining_users[inst.dest] - {dag.exit}
                if pending or inst.dest in dag.live_out:
                    reg_of[inst.dest] = ref
                else:
                    deferred.append(ref)  # dead def: free after writeback
        del issued

    live_out_regs: Dict[str, RegRef] = {}
    for name in dag.live_out:
        if name not in reg_of:  # pragma: no cover - pinned during search
            raise ExactSearchError(f"live-out {name!r} not in a register")
        live_out_regs[name] = reg_of[name]

    scheduled.sort(key=lambda op: (op.cycle, op.fu_class, op.fu_index))
    return Schedule(
        machine=machine,
        ops=scheduled,
        length=len(plan),
        reg_assignment=reg_assignment,
        live_in_regs=live_in_regs,
        live_out_regs=live_out_regs,
        spill_count=0,
    )


# ======================================================================
# The backend entrypoint (schedule pass).
# ======================================================================
def bnb_compile(
    dag: DependenceDAG,
    machine: MachineModel,
    max_ops: int = MAX_BNB_OPS,
) -> Tuple[Schedule, BnbCertificate]:
    """Exact spill-free schedule for ``dag``; anytime under a deadline."""
    from repro.analyze.bounds import (
        length_lower_bound,
        register_pressure_floor,
    )

    for cls, available in machine.registers.items():
        floor = register_pressure_floor(dag, machine, cls)
        if floor > available:
            raise ExactSearchError(
                f"register class {cls!r} pressure floor {floor} > "
                f"{available} available; bnb-exact cannot spill"
            )

    problem = _build_problem(dag, machine, max_ops)
    global_lb = length_lower_bound(dag, machine)

    incumbent: Optional[Schedule] = None
    try:
        incumbent = ListScheduler(
            dag, machine, respect_registers=True, allow_spill=False
        ).run()
    except ScheduleError:
        pass  # heuristic failed spill-free; the search starts cold

    if incumbent is not None and incumbent.length == global_lb:
        obs.count("bnb.incumbent_optimal")
        certificate = BnbCertificate(
            proved=True,
            length=incumbent.length,
            lower_bound=global_lb,
            explored=0,
            source="incumbent",
        )
        return incumbent, certificate

    with obs.span("bnb.search", ops=problem.n):
        plan, length, proved, explored = _search(
            problem,
            incumbent.length if incumbent is not None else None,
            global_lb,
        )
    obs.count("bnb.nodes", explored)

    if plan is not None:
        schedule: Schedule = _realize(dag, machine, problem, plan)
        source = "search"
    elif incumbent is not None:
        # The search never beat the heuristic; exhausting it proves the
        # incumbent optimal.
        schedule, length = incumbent, incumbent.length
        source = "incumbent"
    else:
        if not proved:
            raise ExactSearchError(
                "deadline expired before any spill-free schedule was found"
            )
        raise ExactSearchError(
            "no spill-free schedule exists for this register file"
        )

    assert length is not None
    if proved:
        obs.count("bnb.proved")
    certificate = BnbCertificate(
        proved=proved,
        length=length,
        lower_bound=global_lb,
        explored=explored,
        source=source,
    )
    obs.event(
        "bnb.done",
        length=length,
        proved=proved,
        explored=explored,
        lower_bound=global_lb,
    )
    return schedule, certificate


def run_bnb_pass(dag, machine, options) -> ScheduleOutcome:
    """Pipeline schedule pass for the ``bnb-exact`` backend."""
    max_ops = int(options.get("bnb_max_ops", MAX_BNB_OPS))
    schedule, certificate = bnb_compile(dag, machine, max_ops)
    return ScheduleOutcome(
        schedule,
        dag,
        backend_report={"backend": "bnb-exact", **certificate.to_dict()},
    )
