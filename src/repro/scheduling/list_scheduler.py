"""Machine-constrained list scheduling with integrated register binding.

This is the execution engine shared by URSA's *assignment* phase and the
baseline compilers:

* functional units are bound per cycle, respecting class legality and
  non-pipelined occupancy;
* registers are bound at issue (optional), with Belady-style emergency
  spilling when the register file is exhausted — the paper's "assignment
  phase handles any excessive requirements URSA's heuristics missed";
* priorities are pluggable: critical-path height (default), source
  order, or the Goodman–Hsu CSP/CSR mode-switching policy.

The scheduler consumes a :class:`DependenceDAG` and produces a
:class:`Schedule`: cycle/slot placement for every op (including any
spill code it synthesized) plus a physical register for every value.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro import obs
from repro.diagnostics import CompileError
from repro.graph.dag import DependenceDAG, EdgeKind
from repro.ir.instructions import Addr, Instruction, Var
from repro.ir.opcodes import Opcode
from repro.machine.model import MachineModel
from repro.machine.vliw import RegRef
from repro.scheduling.priorities import latency_weighted_height

#: Symbolic memory base reserved for compiler-introduced spill slots.
SPILL_BASE = "%spill"


class ScheduleError(CompileError):
    """The scheduler could not produce a legal schedule."""


@dataclass
class ScheduledOp:
    """One op placed in the schedule."""

    inst: Instruction
    cycle: int
    fu_class: str
    fu_index: int
    #: DAG node uid, or None for scheduler-synthesized spill code.
    uid: Optional[int] = None

    @property
    def is_spill_code(self) -> bool:
        return self.inst.op in (Opcode.SPILL, Opcode.RELOAD)


@dataclass
class Schedule:
    """A complete machine-level schedule for one trace."""

    machine: MachineModel
    ops: List[ScheduledOp]
    length: int
    #: final value name -> physical register.
    reg_assignment: Dict[str, RegRef]
    #: trace live-in name -> register holding it at cycle 0.
    live_in_regs: Dict[str, RegRef]
    #: live-out original name -> register holding it at the end.
    live_out_regs: Dict[str, RegRef]
    spill_count: int = 0

    def by_cycle(self) -> Dict[int, List[ScheduledOp]]:
        cycles: Dict[int, List[ScheduledOp]] = {}
        for op in self.ops:
            cycles.setdefault(op.cycle, []).append(op)
        return cycles

    def max_live_registers(self, cls: str = "gpr") -> int:
        """Peak number of simultaneously bound registers of ``cls``.

        Reconstructed from binding intervals: a register is bound from
        its def's issue to its last use's issue.
        """
        first: Dict[str, int] = {}
        last: Dict[str, int] = {}
        for op in self.ops:
            if op.inst.dest is not None:
                first[op.inst.dest] = op.cycle
                last.setdefault(op.inst.dest, op.cycle)
            for name in op.inst.uses():
                last[name] = max(last.get(name, 0), op.cycle)
        for name in self.live_in_regs:
            first[name] = -1  # occupied from cycle 0
        for name, reg in self.live_out_regs.items():
            last[name] = self.length
        events: Dict[int, int] = {}
        for name, start in first.items():
            reg = self.reg_assignment.get(name)
            if reg is None or reg.cls != cls:
                continue
            # A register holds the value from the end of its defining
            # cycle through the issue of its last use, so the occupancy
            # interval is (start, last]: a dest may legally reuse the
            # register of a source dying in the same cycle.
            end = last.get(name, start)
            if end <= start and name not in self.live_in_regs:
                continue  # value never outlives its defining cycle
            events[start + 1] = events.get(start + 1, 0) + 1
            events[end + 1] = events.get(end + 1, 0) - 1
        peak = current = 0
        for cycle in sorted(events):
            current += events[cycle]
            peak = max(peak, current)
        return peak

    def __str__(self) -> str:
        lines = []
        for cycle, ops in sorted(self.by_cycle().items()):
            text = " || ".join(
                f"{o.fu_class}{o.fu_index}:{o.inst}" for o in ops
            )
            lines.append(f"{cycle:4d}: {text}")
        return "\n".join(lines)


@dataclass
class _ValueState:
    """Runtime state of one value during scheduling."""

    original: str
    current: str
    reg: Optional[RegRef] = None
    ready_cycle: int = 0
    pending_users: Set[int] = field(default_factory=set)
    spill_addr: Optional[Addr] = None
    #: cycle after which the spilled copy may be reloaded.
    spill_ready: int = 0
    reload_requested: bool = False
    reload_count: int = 0
    reg_class: str = "gpr"


class ListScheduler:
    """Configurable list scheduler (see module docstring).

    Args:
        dag: the dependence DAG to schedule.
        machine: the target machine.
        respect_registers: bind registers at issue and refuse to exceed
            the register file (spilling if ``allow_spill``).
        allow_spill: synthesize SPILL/RELOAD ops when stuck.
        priority: node uid -> static priority (higher = sooner); defaults
            to latency-weighted critical-path height.
        pressure_threshold: when set, enables Goodman–Hsu style mode
            switching: with fewer than this many free registers the
            scheduler prefers ops that free registers over ops that
            consume them.
    """

    #: Safety bound on scheduling cycles; computed per run from the DAG
    #: size, this class attribute is only the hard ceiling.
    MAX_SCHEDULE_CYCLES = 100_000

    def __init__(
        self,
        dag: DependenceDAG,
        machine: MachineModel,
        respect_registers: bool = True,
        allow_spill: bool = True,
        priority: Optional[Mapping[int, int]] = None,
        pressure_threshold: Optional[int] = None,
    ) -> None:
        self.dag = dag
        self.machine = machine
        self.respect_registers = respect_registers
        self.allow_spill = allow_spill
        self.priority = dict(priority) if priority is not None else (
            latency_weighted_height(dag, machine)
        )
        self.pressure_threshold = pressure_threshold
        # Deterministic tie-break rank, invariant to the global uid
        # counter: raw uids differ between logically identical DAGs
        # built at different times, which made results irreproducible.
        order = dag.source_order or dag.topological_order()
        self._rank = {uid: i for i, uid in enumerate(order)}
        for uid in dag.topological_order():
            self._rank.setdefault(uid, len(self._rank))

        self._spill_slots = itertools.count()
        self._reload_counter = itertools.count()

    # ==================================================================
    def run(self) -> Schedule:
        dag, machine = self.dag, self.machine
        ops = dag.op_nodes()
        values: Dict[str, _ValueState] = {}
        current_name: Dict[str, str] = {}
        free_regs: Dict[str, List[int]] = {
            cls: list(range(count)) for cls, count in machine.registers.items()
        }
        self._free_regs = free_regs
        reg_assignment: Dict[str, RegRef] = {}
        live_in_regs: Dict[str, RegRef] = {}
        scheduled: List[ScheduledOp] = []
        fu_free_at: Dict[Tuple[str, int], int] = {
            (fu.name, i): 0 for fu in machine.fu_classes for i in range(fu.count)
        }
        deferred_frees: List[Tuple[int, RegRef]] = []  # (cycle, reg)
        spill_count = 0

        # ------------------------------------------------------------------
        # Each pool is a min-heap: the lowest free register is bound first.
        def alloc_reg(cls: str) -> Optional[RegRef]:
            pool = free_regs.get(cls)
            if not pool:
                return None
            return RegRef(heapq.heappop(pool), cls)

        def release_reg(ref: RegRef) -> None:
            heapq.heappush(free_regs[ref.cls], ref.index)

        # Initialize value bookkeeping from the DAG.
        for name, def_uid in dag.value_defs.items():
            state = _ValueState(
                original=name,
                current=name,
                pending_users=set(dag.value_uses.get(name, ())),
                reg_class=machine.reg_class_of(name),
            )
            values[name] = state
            current_name[name] = name

        # Live-in values (defined by ENTRY) occupy registers from cycle 0.
        if self.respect_registers:
            for name, def_uid in sorted(dag.value_defs.items()):
                if def_uid != dag.entry:
                    continue
                state = values[name]
                reg = alloc_reg(state.reg_class)
                if reg is None:
                    raise ScheduleError(
                        f"not enough registers for live-in values "
                        f"({len([n for n, d in dag.value_defs.items() if d == dag.entry])} "
                        f"live-ins)"
                    )
                state.reg = reg
                state.ready_cycle = 0
                reg_assignment[name] = reg
                live_in_regs[name] = reg

        def_name_of: Dict[int, Optional[str]] = {}
        uses_of: Dict[int, Tuple[str, ...]] = {}
        for uid in ops:
            inst = dag.instruction(uid)
            def_name_of[uid] = inst.dest
            uses_of[uid] = tuple(inst.uses())

        # Dependence readiness is event-driven: each edge is read once
        # here, and issuing an op wakes its successors.  ``dep_earliest``
        # is the cycle every SEQ predecessor's delay has elapsed by (a
        # DATA predecessor only has to be issued; its value's
        # ``ready_cycle`` covers the latency), ``waiting`` counts the
        # unissued op predecessors, and ``frontier`` holds the unissued
        # ops whose count reached zero.
        dep_earliest: Dict[int, int] = dict.fromkeys(ops, 0)
        waiting: Dict[int, int] = dict.fromkeys(ops, 0)
        wakes: Dict[int, List[Tuple[int, int]]] = {uid: [] for uid in ops}
        for pred, uid, data in dag.edges():
            if uid == dag.exit:
                continue
            if data["kind"] is not EdgeKind.SEQ:
                delay = 0
            elif data.get("reason") == "reg-reuse":
                # Register-reuse (anti/output) edges added by the postpass
                # allocator: the successor overwrites the predecessor's
                # register, so it must wait for the predecessor's
                # writeback, not just its issue.
                delay = max(1, self.machine.latency_of(dag.instruction(pred)))
            else:
                delay = 1
            if pred == dag.entry:  # issued at cycle -1
                dep_earliest[uid] = max(dep_earliest[uid], delay - 1)
            else:
                waiting[uid] += 1
                wakes[pred].append((uid, delay))
        frontier: Set[int] = {uid for uid in ops if not waiting[uid]}

        def wake_successors(uid: int, issued_at: int) -> None:
            for succ, delay in wakes[uid]:
                if delay:
                    dep_earliest[succ] = max(
                        dep_earliest[succ], issued_at + delay
                    )
                waiting[succ] -= 1
                if not waiting[succ]:
                    frontier.add(succ)

        def free_count(cls: str) -> int:
            return len(free_regs.get(cls, ()))

        def frees_registers(uid: int) -> int:
            """How many registers issuing ``uid`` would release."""
            count = 0
            for name in dict.fromkeys(uses_of[uid]):
                state = values[name]
                if state.pending_users == {uid} and state.reg is not None:
                    count += 1
            return count

        # ------------------------------------------------------------------
        cycle = 0
        max_latency = max(fu.latency for fu in machine.fu_classes)
        cycle_bound = min(
            self.MAX_SCHEDULE_CYCLES,
            64 + 20 * max_latency * (len(ops) + len(values) + 4),
        )
        ops_left = len(ops)
        while ops_left:
            if cycle > cycle_bound:
                raise ScheduleError(
                    f"schedule did not converge (cycle bound {cycle_bound} "
                    f"hit with {ops_left} ops left)"
                )

            # Process deferred register frees (dead defs after writeback).
            still_deferred = []
            for when, ref in deferred_frees:
                if when <= cycle:
                    release_reg(ref)
                else:
                    still_deferred.append((when, ref))
            deferred_frees = still_deferred

            obs.count("sched.cycles")
            # Only dependence-ready ops are checked; the value checks stay
            # per cycle because spills and reloads change them.
            obs.count("sched.ready_checks", len(frontier))
            ready: List[Tuple[int, int]] = []  # (uid, earliest)
            blocked_spilled: List[int] = []
            for uid in frontier:
                earliest = dep_earliest[uid]
                for name in uses_of[uid]:
                    state = values[name]
                    if self.respect_registers and state.reg is None:
                        # Spilled: a reload must run first.
                        blocked_spilled.append(uid)
                        break
                    earliest = max(earliest, state.ready_cycle)
                else:
                    if earliest <= cycle:
                        ready.append((uid, earliest))
            obs.count("sched.ready_total", len(ready))
            obs.peak("sched.ready_peak", len(ready))

            # Reload requests for spilled inputs of otherwise-ready nodes.
            reload_candidates: List[str] = []
            for uid in blocked_spilled:
                for name in uses_of[uid]:
                    state = values[name]
                    if state.reg is None and state.spill_addr is not None:
                        if state.spill_ready <= cycle:
                            reload_candidates.append(name)
            # Live-out values must be back in registers by the end.
            if not ready and not blocked_spilled:
                for name, state in values.items():
                    if (
                        state.reg is None
                        and state.spill_addr is not None
                        and state.pending_users
                        and state.spill_ready <= cycle
                    ):
                        reload_candidates.append(name)
            # The op that spill victims are protected for must also be the
            # op whose reloads win the freed registers, or the scheduler
            # drops value X for op P and immediately reloads X for op Q.
            best_uid = self._best_blocked_uid(ready, blocked_spilled)
            best_sources = (
                set(uses_of[best_uid])
                if best_uid is not None
                else set()
            )

            def reload_urgency(name: str) -> Tuple:
                state = values[name]
                users = [
                    self.priority.get(u, 0)
                    for u in state.pending_users
                    if u != dag.exit
                ]
                return (
                    0 if name in best_sources else 1,
                    -(max(users) if users else -1),
                    name,
                )

            reload_candidates = sorted(
                dict.fromkeys(reload_candidates), key=reload_urgency
            )

            issued_this_cycle = False

            mode_csr = (
                self.pressure_threshold is not None
                and self.respect_registers
                and any(
                    free_count(cls) < self.pressure_threshold
                    for cls in self.machine.registers
                )
            )

            def sort_key(item: Tuple[int, int]) -> Tuple:
                uid, _ = item
                if mode_csr:
                    # CSR mode (Goodman–Hsu): prefer ops that free the most
                    # registers and consume the fewest.
                    defines = 1 if def_name_of[uid] else 0
                    return (
                        -(frees_registers(uid) - defines),
                        -self.priority.get(uid, 0),
                        self._rank[uid],
                    )
                return (-self.priority.get(uid, 0), self._rank[uid])

            ready.sort(key=sort_key)
            progress = True
            while progress:
                progress = False
                for index, (uid, _) in enumerate(ready):
                    op_issued = self._try_issue_node(
                        uid, cycle, fu_free_at, values, current_name,
                        alloc_reg, release_reg, deferred_frees,
                        reg_assignment, scheduled,
                    )
                    if op_issued:
                        ops_left -= 1
                        frontier.discard(uid)
                        wake_successors(uid, cycle)
                        ready.pop(index)
                        if mode_csr:
                            # The issue changed which registers the
                            # remaining ops would free.
                            ready.sort(key=sort_key)
                        issued_this_cycle = True
                        progress = True
                        break

            # Reloads run with whatever registers and slots are left after
            # ready work issued; reloading first would steal the register
            # a ready op was about to consume.
            if self.respect_registers:
                for name in reload_candidates:
                    state = values[name]
                    if state.reg is not None:
                        continue
                    placed = self._try_issue_reload(
                        state, cycle, fu_free_at, alloc_reg, scheduled,
                        reg_assignment, current_name,
                    )
                    if placed:
                        issued_this_cycle = True

            if not issued_this_cycle:
                # Are we stuck purely on registers?
                register_stuck = (
                    self.respect_registers
                    and (ready or blocked_spilled or reload_candidates)
                    and self._registers_exhausted(ready, values, free_regs, def_name_of)
                    and not self._any_fu_pending(fu_free_at, cycle)
                )
                if register_stuck:
                    if not self.allow_spill:
                        raise ScheduleError(
                            f"cycle {cycle}: register file exhausted and "
                            "spilling disabled"
                        )
                    protect = self._protected_names(ready, blocked_spilled)
                    victim = self._choose_spill_victim(values, cycle, protect)
                    if victim is None:
                        raise ScheduleError(
                            f"cycle {cycle}: register deadlock with no "
                            "spillable value"
                        )
                    outcome = self._try_issue_spill(
                        victim, cycle, fu_free_at, release_reg, scheduled,
                    )
                    if outcome == "spilled":
                        spill_count += 1
                        obs.count("sched.emergency_spills")
                        issued_this_cycle = True
                    elif outcome == "dropped":
                        issued_this_cycle = True

            if not issued_this_cycle:
                obs.count("sched.stall_cycles")
            cycle += 1

        # Reload any spilled live-out values so they end in registers.
        if self.respect_registers:
            guard = 0
            while any(
                values[name].reg is None and values[name].spill_addr is not None
                for name in dag.live_out
            ):
                guard += 1
                if guard > self.MAX_SCHEDULE_CYCLES:
                    raise ScheduleError("could not reload live-out values")
                progressed = False
                for name in sorted(dag.live_out):
                    state = values[name]
                    if state.reg is not None or state.spill_addr is None:
                        continue
                    if state.spill_ready > cycle:
                        continue
                    if self._try_issue_reload(
                        state, cycle, fu_free_at, alloc_reg, scheduled,
                        reg_assignment, current_name,
                    ):
                        progressed = True
                if not progressed:
                    cycle += 1

        length = 0
        for op in scheduled:
            length = max(
                length,
                op.cycle + self.machine.fu_class_for(op.inst.op).latency,
            )

        live_out_regs: Dict[str, RegRef] = {}
        if self.respect_registers:
            for name in dag.live_out:
                state = values[name]
                if state.reg is None:
                    raise ScheduleError(f"live-out value {name!r} not in a register")
                live_out_regs[name] = state.reg

        scheduled.sort(key=lambda op: (op.cycle, op.fu_class, op.fu_index))
        obs.event(
            "sched.done",
            length=length,
            ops=len(scheduled),
            spills=spill_count,
            respect_registers=self.respect_registers,
        )
        return Schedule(
            machine=self.machine,
            ops=scheduled,
            length=length,
            reg_assignment=reg_assignment,
            live_in_regs=live_in_regs,
            live_out_regs=live_out_regs,
            spill_count=spill_count,
        )

    # ==================================================================
    # Issue helpers.
    # ==================================================================
    def _pool_nonempty(self, cls: str) -> bool:
        return bool(self._free_regs.get(cls))

    def _find_fu(
        self,
        op: Opcode,
        cycle: int,
        fu_free_at: Dict[Tuple[str, int], int],
    ) -> Optional[Tuple[str, int]]:
        fu = self.machine.fu_class_for(op)
        for index in range(fu.count):
            if fu_free_at[(fu.name, index)] <= cycle:
                return fu.name, index
        return None

    def _occupy_fu(
        self,
        key: Tuple[str, int],
        cycle: int,
        op: Opcode,
        fu_free_at: Dict[Tuple[str, int], int],
    ) -> None:
        fu = self.machine.fu_class(key[0])
        fu_free_at[key] = cycle + fu.occupancy

    def _try_issue_node(
        self,
        uid: int,
        cycle: int,
        fu_free_at,
        values: Dict[str, _ValueState],
        current_name: Dict[str, str],
        alloc_reg,
        release_reg,
        deferred_frees,
        reg_assignment: Dict[str, RegRef],
        scheduled: List[ScheduledOp],
    ) -> bool:
        inst = self.dag.instruction(uid)
        slot = self._find_fu(inst.op, cycle, fu_free_at)
        if slot is None:
            return False
        uses = tuple(dict.fromkeys(inst.uses()))  # distinct, in order

        # Sources whose last use is this op: their registers free at issue
        # and may be reused by this op's own destination (reads happen at
        # issue, the write lands at writeback).  Sources with a valid
        # spill copy in memory may likewise be *dropped* — the register
        # is released and later users reload from the spill slot.
        dying: List[_ValueState] = []
        droppable: List[_ValueState] = []
        drop: Optional[_ValueState] = None
        if self.respect_registers:
            for name in uses:
                state = values[name]
                if state.reg is None:
                    continue
                if state.pending_users == {uid}:
                    dying.append(state)
                elif state.spill_addr is not None and state.ready_cycle <= cycle:
                    droppable.append(state)
            if inst.dest is not None:
                dest_cls = values[inst.dest].reg_class
                if not self._pool_nonempty(dest_cls) and not any(
                    s.reg_class == dest_cls for s in dying
                ):
                    matches = [s for s in droppable if s.reg_class == dest_cls]
                    if not matches:
                        return False
                    drop = matches[0]

        # Commit.
        rename = {
            name: values[name].current
            for name in uses
            if values[name].current != name
        }
        final_inst = inst.with_renamed_uses(rename) if rename else inst

        self._occupy_fu(slot, cycle, inst.op, fu_free_at)
        scheduled.append(ScheduledOp(final_inst, cycle, slot[0], slot[1], uid))

        if self.respect_registers:
            latency = self.machine.fu_class_for(inst.op).latency
            for state in dying:
                release_reg(state.reg)
                state.reg = None
            if drop is not None:
                release_reg(drop.reg)
                drop.reg = None
            for name in uses:
                values[name].pending_users.discard(uid)
            if inst.dest is not None:
                state = values[inst.dest]
                new_reg = alloc_reg(state.reg_class)
                assert new_reg is not None, "feasibility checked above"
                state.reg = new_reg
                state.ready_cycle = cycle + latency
                reg_assignment[state.current] = new_reg
                if not state.pending_users:
                    # Dead definition: free after writeback completes.
                    deferred_frees.append((cycle + latency, new_reg))
                    state.reg = None
        else:
            if inst.dest is not None:
                state = values[inst.dest]
                state.ready_cycle = (
                    cycle + self.machine.fu_class_for(inst.op).latency
                )
            for name in uses:
                values[name].pending_users.discard(uid)
        return True

    def _try_issue_spill(
        self,
        state: _ValueState,
        cycle: int,
        fu_free_at,
        release_reg,
        scheduled: List[ScheduledOp],
    ) -> Optional[str]:
        """Evict ``state`` from its register.

        Returns ``"spilled"`` when a SPILL op was emitted, ``"dropped"``
        when the value already has a valid memory copy and the register
        was simply released, or ``None`` when no slot was available.
        """
        if state.spill_addr is not None:
            # The memory copy from the earlier spill is still valid (all
            # values are single-assignment): just drop the register.
            release_reg(state.reg)
            state.reg = None
            return "dropped"
        slot = self._find_fu(Opcode.SPILL, cycle, fu_free_at)
        if slot is None:
            return None
        state.spill_addr = Addr(SPILL_BASE, next(self._spill_slots))
        inst = Instruction(
            Opcode.SPILL, srcs=(Var(state.current),), addr=state.spill_addr
        )
        self._occupy_fu(slot, cycle, inst.op, fu_free_at)
        scheduled.append(ScheduledOp(inst, cycle, slot[0], slot[1], None))
        release_reg(state.reg)
        state.reg = None
        mem_latency = self.machine.fu_class_for(Opcode.SPILL).latency
        state.spill_ready = cycle + mem_latency
        state.reload_requested = False
        return "spilled"

    def _try_issue_reload(
        self,
        state: _ValueState,
        cycle: int,
        fu_free_at,
        alloc_reg,
        scheduled: List[ScheduledOp],
        reg_assignment: Dict[str, RegRef],
        current_name: Dict[str, str],
    ) -> bool:
        slot = self._find_fu(Opcode.RELOAD, cycle, fu_free_at)
        if slot is None:
            return False
        reg = alloc_reg(state.reg_class)
        if reg is None:
            return False
        obs.count("sched.reloads")
        new_name = f"{state.original}@r{next(self._reload_counter)}"
        inst = Instruction(Opcode.RELOAD, dest=new_name, addr=state.spill_addr)
        self._occupy_fu(slot, cycle, inst.op, fu_free_at)
        scheduled.append(ScheduledOp(inst, cycle, slot[0], slot[1], None))
        latency = self.machine.fu_class_for(Opcode.RELOAD).latency
        state.current = new_name
        state.reg = reg
        state.ready_cycle = cycle + latency
        state.reload_count += 1
        reg_assignment[new_name] = reg
        current_name[state.original] = new_name
        return True

    # ==================================================================
    # Stuck-state analysis.
    # ==================================================================
    def _registers_exhausted(
        self,
        ready: List[Tuple[int, int]],
        values: Dict[str, _ValueState],
        free_regs: Dict[str, List[int]],
        def_name_of: Dict[int, Optional[str]],
    ) -> bool:
        """True when at least one ready/blocked op cannot issue solely
        because its destination register class is empty."""
        for uid, _ in ready:
            dest = def_name_of.get(uid)
            if dest is None:
                continue
            cls = values[dest].reg_class
            if not free_regs.get(cls):
                return True
        # A pending reload with no free register also counts.
        for state in values.values():
            if (
                state.reg is None
                and state.spill_addr is not None
                and state.pending_users
                and not free_regs.get(state.reg_class)
            ):
                return True
        return False

    def _any_fu_pending(
        self, fu_free_at: Dict[Tuple[str, int], int], cycle: int
    ) -> bool:
        """True when some unit is still executing (progress will happen
        without intervention once it completes)."""
        return any(free > cycle for free in fu_free_at.values())

    def _best_blocked_uid(
        self,
        ready: List[Tuple[int, int]],
        blocked_spilled: List[int],
    ) -> Optional[int]:
        """The highest-priority op waiting on resources.

        Used consistently by victim protection *and* reload selection so
        the freed register serves the same op the drop was made for.
        """
        candidates = [uid for uid, _ in ready]
        candidates.extend(blocked_spilled)
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda uid: (self.priority.get(uid, 0), -self._rank[uid]),
        )

    def _protected_names(
        self,
        ready: List[Tuple[int, int]],
        blocked_spilled: List[int],
    ) -> Set[str]:
        """Source values of the op the spill is meant to unblock.

        Spilling a value the most urgent op is about to read would be
        immediately undone by a reload (livelock), so those values are
        protected from victim selection.
        """
        best = self._best_blocked_uid(ready, blocked_spilled)
        if best is None:
            return set()
        return set(self.dag.instruction(best).uses())

    def _choose_spill_victim(
        self,
        values: Dict[str, _ValueState],
        cycle: int,
        protect: Optional[Set[str]] = None,
    ) -> Optional[_ValueState]:
        """Belady-style: spill the in-register value whose remaining uses
        are the least urgent (smallest maximum user priority), avoiding
        values in ``protect`` and recently reloaded values."""
        protect = protect or set()
        candidates = [
            state
            for state in values.values()
            if state.reg is not None
            and state.pending_users
            and state.ready_cycle <= cycle
        ]
        if not candidates:
            return None
        preferred = [s for s in candidates if s.original not in protect]
        if preferred:
            candidates = preferred

        def urgency(state: _ValueState) -> Tuple:
            users = [
                self.priority.get(u, 0)
                for u in state.pending_users
                if u != self.dag.exit
            ]
            # Values only the EXIT still needs are the best victims.
            key = max(users) if users else -1
            return (key, state.reload_count, state.original)

        return min(candidates, key=urgency)
