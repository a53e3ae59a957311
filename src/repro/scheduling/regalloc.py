"""Stand-alone register allocators for the baseline compilers.

* :class:`LinearScanAllocator` — allocates over a fixed linear order
  with Belady (furthest-next-use) spilling; used by the *prepass*
  baseline to patch registers into an already-fixed schedule.
* :func:`color_registers` — Chaitin/Briggs-style graph coloring over
  source order with spill-everywhere rewriting; used by the *postpass*
  baseline, which allocates before scheduling.

Both produce a rewritten instruction list (spill code inserted, uses of
reloaded values renamed) plus a physical binding for every value name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.ir.instructions import Addr, Instruction, Var
from repro.ir.opcodes import Opcode
from repro.machine.model import MachineModel
from repro.machine.vliw import RegRef
from repro.scheduling.list_scheduler import SPILL_BASE


class RegAllocError(Exception):
    """Raised when allocation is impossible (too few registers)."""


@dataclass
class AllocationOutcome:
    """Result of a linear allocation pass."""

    instructions: List[Instruction]
    binding: Dict[str, RegRef]
    live_in_regs: Dict[str, RegRef]
    live_out_regs: Dict[str, RegRef]
    spill_stores: int
    spill_loads: int

    @property
    def spill_ops(self) -> int:
        return self.spill_stores + self.spill_loads


@dataclass
class _LinearValue:
    original: str
    current: str
    reg: Optional[RegRef] = None
    spill_addr: Optional[Addr] = None
    next_uses: List[int] = field(default_factory=list)  # positions, sorted
    reg_class: str = "gpr"
    live_out: bool = False


class LinearScanAllocator:
    """Belady allocation over a fixed instruction order."""

    def __init__(self, machine: MachineModel, reg_class_counts=None) -> None:
        self.machine = machine
        self._spill_slots = itertools.count()
        self._reload_ids = itertools.count()

    def run(
        self,
        instructions: Sequence[Instruction],
        live_ins: Sequence[str] = (),
        live_outs: Sequence[str] = (),
    ) -> AllocationOutcome:
        machine = self.machine
        free: Dict[str, List[int]] = {
            cls: list(range(count)) for cls, count in machine.registers.items()
        }
        values: Dict[str, _LinearValue] = {}
        out: List[Instruction] = []
        binding: Dict[str, RegRef] = {}
        live_in_regs: Dict[str, RegRef] = {}
        spill_stores = spill_loads = 0
        live_out_set = set(live_outs)

        # Precompute use positions.
        for position, inst in enumerate(instructions):
            for name in inst.uses():
                if name not in values:
                    values[name] = _LinearValue(
                        name, name, reg_class=machine.reg_class_of(name)
                    )
                values[name].next_uses.append(position)
            if inst.dest is not None and inst.dest not in values:
                values[inst.dest] = _LinearValue(
                    inst.dest, inst.dest,
                    reg_class=machine.reg_class_of(inst.dest),
                )
        for name in live_out_set:
            if name in values:
                values[name].live_out = True

        def alloc(cls: str) -> Optional[RegRef]:
            pool = free.get(cls)
            if not pool:
                return None
            return RegRef(pool.pop(0), cls)

        def release(ref: RegRef) -> None:
            free[ref.cls].append(ref.index)
            free[ref.cls].sort()

        def spill_victim(cls: str, protect: Set[str], position: int) -> _LinearValue:
            candidates = [
                v
                for v in values.values()
                if v.reg is not None and v.reg.cls == cls
                and v.original not in protect
                and (v.next_uses or v.live_out)
            ]
            if not candidates:
                # Fall back to protected values; their register content is
                # consumed at this instruction's read, before the write.
                candidates = [
                    v
                    for v in values.values()
                    if v.reg is not None and v.reg.cls == cls
                ]
            if not candidates:
                raise RegAllocError(f"no spillable value in class {cls!r}")

            def distance(v: _LinearValue) -> int:
                return v.next_uses[0] if v.next_uses else 1 << 30

            return max(candidates, key=lambda v: (distance(v), v.original))

        def do_spill(victim: _LinearValue) -> None:
            nonlocal spill_stores
            if victim.spill_addr is None:
                victim.spill_addr = Addr(SPILL_BASE, next(self._spill_slots))
                out.append(
                    Instruction(
                        Opcode.SPILL,
                        srcs=(Var(victim.current),),
                        addr=victim.spill_addr,
                    )
                )
                spill_stores += 1
            release(victim.reg)
            victim.reg = None

        def ensure_register(name: str, protect: Set[str], position: int) -> None:
            nonlocal spill_loads
            state = values[name]
            if state.reg is not None:
                return
            if state.spill_addr is None:
                raise RegAllocError(f"value {name!r} used before definition")
            reg = alloc(state.reg_class)
            while reg is None:
                do_spill(spill_victim(state.reg_class, protect, position))
                reg = alloc(state.reg_class)
            new_name = f"{state.original}@p{next(self._reload_ids)}"
            out.append(
                Instruction(Opcode.RELOAD, dest=new_name, addr=state.spill_addr)
            )
            spill_loads += 1
            state.current = new_name
            state.reg = reg
            binding[new_name] = reg

        # Live-ins occupy registers on entry.
        for name in sorted(live_ins):
            state = values.setdefault(
                name, _LinearValue(name, name, reg_class=machine.reg_class_of(name))
            )
            reg = alloc(state.reg_class)
            if reg is None:
                raise RegAllocError("not enough registers for live-in values")
            state.reg = reg
            binding[name] = reg
            live_in_regs[name] = reg

        for position, inst in enumerate(instructions):
            sources = list(inst.uses())
            protect = set(sources)
            for name in sources:
                ensure_register(name, protect - {name}, position)

            # Consume this position from each source's next-use list.
            for name in dict.fromkeys(sources):
                state = values[name]
                while state.next_uses and state.next_uses[0] <= position:
                    state.next_uses.pop(0)

            rename = {
                name: values[name].current
                for name in sources
                if values[name].current != name
            }
            new_inst = inst.with_renamed_uses(rename) if rename else inst

            # Free registers of sources that died here (reads happen
            # before the write of this very instruction).
            for name in dict.fromkeys(sources):
                state = values[name]
                if not state.next_uses and not state.live_out and state.reg is not None:
                    release(state.reg)
                    state.reg = None

            if inst.dest is not None:
                state = values[inst.dest]
                reg = alloc(state.reg_class)
                while reg is None:
                    do_spill(spill_victim(state.reg_class, set(), position))
                    reg = alloc(state.reg_class)
                state.reg = reg
                binding[inst.dest] = reg
                if not state.next_uses and not state.live_out:
                    # Dead definition: register reusable immediately after.
                    release(reg)
                    state.reg = None

            out.append(new_inst)

        # Reload any spilled live-outs.
        live_out_regs: Dict[str, RegRef] = {}
        for name in sorted(live_out_set):
            state = values.get(name)
            if state is None:
                continue
            ensure_register(name, set(), len(instructions))
            live_out_regs[name] = state.reg

        return AllocationOutcome(
            instructions=out,
            binding=binding,
            live_in_regs=live_in_regs,
            live_out_regs=live_out_regs,
            spill_stores=spill_stores,
            spill_loads=spill_loads,
        )


# ======================================================================
# Graph coloring (postpass baseline).
# ======================================================================
def _live_ranges(
    instructions: Sequence[Instruction],
    live_ins: Sequence[str],
    live_outs: Sequence[str],
) -> Dict[str, Tuple[int, int]]:
    """Source-order live range [def position, last use position]."""
    n = len(instructions)
    start: Dict[str, int] = {name: -1 for name in live_ins}
    end: Dict[str, int] = {}
    for position, inst in enumerate(instructions):
        if inst.dest is not None:
            start.setdefault(inst.dest, position)
            end.setdefault(inst.dest, position)
        for name in inst.uses():
            end[name] = position
    for name in live_outs:
        end[name] = n
    for name in start:
        end.setdefault(name, start[name])
    return {name: (start[name], end[name]) for name in start}


def color_registers(
    instructions: Sequence[Instruction],
    machine: MachineModel,
    live_ins: Sequence[str] = (),
    live_outs: Sequence[str] = (),
    max_rounds: int = 64,
) -> AllocationOutcome:
    """Chaitin-style coloring on source-order liveness with
    spill-everywhere rewriting; iterates until colorable.

    The returned instruction list contains any inserted spill code, and
    every value name is bound to a register of its class.
    """
    work = list(instructions)
    spill_stores = spill_loads = 0
    slot_counter = itertools.count()
    reload_counter = itertools.count()

    for _ in range(max_rounds):
        ranges = _live_ranges(work, live_ins, live_outs)
        classes = {name: machine.reg_class_of(name) for name in ranges}

        # Interference graph: value name -> names it interferes with.
        neighbours: Dict[str, Set[str]] = {name: set() for name in ranges}
        names = sorted(ranges)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if classes[a] != classes[b]:
                    continue
                sa, ea = ranges[a]
                sb, eb = ranges[b]
                # Ranges interfere when they overlap anywhere; a def at
                # the exact cycle another value dies may share (read
                # before write), hence strict inequalities.
                if sa < eb and sb < ea:
                    neighbours[a].add(b)
                    neighbours[b].add(a)

        colors: Dict[str, int] = {}
        spilled: List[str] = []
        # Chaitin simplification: repeatedly remove low-degree nodes.
        stack: List[str] = []
        degrees = {name: len(adj) for name, adj in neighbours.items()}
        remaining = set(neighbours)
        while remaining:
            k_limited = [
                n
                for n in remaining
                if degrees[n] < machine.registers[classes[n]]
            ]
            if k_limited:
                node = min(k_limited, key=lambda n: (degrees[n], n))
            else:
                # Spill heuristic: highest degree / longest range.
                node = max(
                    remaining,
                    key=lambda n: (
                        degrees[n],
                        ranges[n][1] - ranges[n][0],
                        n,
                    ),
                )
            stack.append(node)
            remaining.discard(node)
            for neighbor in neighbours[node]:
                if neighbor in remaining:
                    degrees[neighbor] -= 1

        # Track, per (class, color), the latest range endpoint already
        # assigned: picking the least-recently-freed color spreads values
        # across the register file, minimizing the false (anti/output)
        # dependences register reuse will impose on the scheduler.
        color_last_end: Dict[Tuple[str, int], int] = {}
        for node in reversed(stack):
            used = {
                colors[n] for n in neighbours[node] if n in colors
            }
            available = [
                c
                for c in range(machine.registers[classes[node]])
                if c not in used
            ]
            if available:
                choice = min(
                    available,
                    key=lambda c: (
                        color_last_end.get((classes[node], c), -(1 << 30)),
                        c,
                    ),
                )
                colors[node] = choice
                key = (classes[node], choice)
                color_last_end[key] = max(
                    color_last_end.get(key, -(1 << 30)), ranges[node][1]
                )
            else:
                spilled.append(node)

        if not spilled:
            binding = {
                name: RegRef(color, classes[name])
                for name, color in colors.items()
            }
            live_in_regs = {name: binding[name] for name in live_ins}
            live_out_regs = {
                name: binding[name] for name in live_outs if name in binding
            }
            return AllocationOutcome(
                instructions=work,
                binding=binding,
                live_in_regs=live_in_regs,
                live_out_regs=live_out_regs,
                spill_stores=spill_stores,
                spill_loads=spill_loads,
            )

        # Spill-everywhere rewrite for the chosen victims, then retry.
        victims = set(spilled)
        for name in sorted(victims):
            if name in live_outs:
                victims.discard(name)  # keep live-outs in registers
        if not victims:
            raise RegAllocError(
                "cannot color: every uncolorable value is live-out"
            )
        rewritten: List[Instruction] = []
        current: Dict[str, str] = {}
        addr_of: Dict[str, Addr] = {
            name: Addr(SPILL_BASE, next(slot_counter))
            for name in sorted(victims)
        }
        for inst in work:
            rename = {}
            for name in inst.uses():
                base = name.split("@p", 1)[0] if "@p" in name else name
                if name in victims:
                    new_name = f"{name}@p{next(reload_counter)}"
                    rewritten.append(
                        Instruction(
                            Opcode.RELOAD, dest=new_name, addr=addr_of[name]
                        )
                    )
                    spill_loads += 1
                    rename[name] = new_name
            rewritten.append(
                inst.with_renamed_uses(rename) if rename else inst
            )
            if inst.dest in victims:
                rewritten.append(
                    Instruction(
                        Opcode.SPILL,
                        srcs=(Var(inst.dest),),
                        addr=addr_of[inst.dest],
                    )
                )
                spill_stores += 1
        work = rewritten

    raise RegAllocError(f"coloring did not converge in {max_rounds} rounds")
