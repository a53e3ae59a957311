"""Liveness analysis: per-block dataflow and linear (in-order) liveness."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.ir.instructions import Instruction
from repro.ir.program import Program


def block_use_def(instructions: Iterable[Instruction]) -> Tuple[Set[str], Set[str]]:
    """Return (upward-exposed uses, definitions) for a straight-line body."""
    uses: Set[str] = set()
    defs: Set[str] = set()
    for inst in instructions:
        for name in inst.uses():
            if name not in defs:
                uses.add(name)
        if inst.dest is not None:
            defs.add(inst.dest)
    return uses, defs


def block_live_sets(
    program: Program,
) -> Tuple[Dict[str, FrozenSet[str]], Dict[str, FrozenSet[str]]]:
    """Compute live-in / live-out sets per basic block.

    Standard backwards iterative dataflow over the CFG:
    ``live_out(B) = ∪ live_in(S) for S in succ(B)``;
    ``live_in(B) = use(B) ∪ (live_out(B) - def(B))``.
    """
    cfg = program.cfg()
    use: Dict[str, Set[str]] = {}
    define: Dict[str, Set[str]] = {}
    for block in program:
        use[block.label], define[block.label] = block_use_def(block.instructions)

    live_in: Dict[str, Set[str]] = {b.label: set() for b in program}
    live_out: Dict[str, Set[str]] = {b.label: set() for b in program}

    changed = True
    while changed:
        changed = False
        for block in reversed(program.blocks):
            label = block.label
            out: Set[str] = set()
            for succ in cfg[label]:
                out |= live_in[succ]
            new_in = use[label] | (out - define[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True

    return (
        {k: frozenset(v) for k, v in live_in.items()},
        {k: frozenset(v) for k, v in live_out.items()},
    )


def linear_live_before(
    instructions: Sequence[Instruction],
    live_out: FrozenSet[str] = frozenset(),
) -> List[FrozenSet[str]]:
    """Liveness immediately *before* each instruction of a linear sequence.

    ``live_out`` is the set of values live after the last instruction.
    """
    live: Set[str] = set(live_out)
    result: List[FrozenSet[str]] = [frozenset()] * len(instructions)
    for index in range(len(instructions) - 1, -1, -1):
        inst = instructions[index]
        if inst.dest is not None:
            live.discard(inst.dest)
        live.update(inst.uses())
        result[index] = frozenset(live)
    return result


def max_linear_pressure(
    instructions: Sequence[Instruction],
    live_out: FrozenSet[str] = frozenset(),
) -> int:
    """Maximum number of simultaneously live values in program order."""
    before = linear_live_before(instructions, live_out)
    if not before:
        return len(live_out)
    # Pressure at a point counts the live set *after* a definition too:
    # right after instruction i, (live_before[i+1]) values are live; the
    # maximum over all points includes live_out at the end.
    peak = max(len(s) for s in before)
    return max(peak, len(live_out))
