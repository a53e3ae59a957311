"""Well-formedness checks over a parsed :class:`~repro.ir.program.Program`.

These run *before* any DAG construction or compilation, on the CFG and
per-block instruction lists only, so serve admission control can reject
hopeless requests without paying a compile.  Severities follow the
repo's execution model:

* **errors** make compilation meaningless or guaranteed to fail:
  a value used on some path before any definition when the program
  *does* define it elsewhere (``A101``), or an opcode no FU class of
  the target machine executes (``A106``);
* **warnings** are legal (traces may have external exits, stores feed
  unknown consumers) but usually bugs: branches to undefined labels
  (``A102``), unreachable blocks (``A103``), dead stores (``A104``);
* **info** notes dead values (``A105``) — common in generated code.

Values that are *never* defined anywhere are legal live-ins (the DAG
builder defines them at the virtual ENTRY node) and produce no
diagnostic at all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro import obs
from repro.analysis.liveness import block_live_sets, block_use_def
from repro.analyze.diagnostics import CODES, span_for
from repro.diagnostics import Diagnostic
from repro.ir.opcodes import Opcode
from repro.ir.program import Program
from repro.machine.model import MachineConfigError, MachineModel

#: Opcodes never dispatched to a functional unit (dropped or virtual in
#: the dependence DAG), hence exempt from the machine-executability check.
_UNSCHEDULED_OPS = frozenset(
    {Opcode.BR, Opcode.HALT, Opcode.ENTRY, Opcode.EXIT}
)


def check_program(
    program: Program,
    machine: Optional[MachineModel] = None,
    source: Optional[str] = None,
    filename: Optional[str] = None,
) -> List[Diagnostic]:
    """All well-formedness diagnostics for ``program``, source order."""
    with obs.span("analyze.wellformed", blocks=len(program.blocks)):
        lines = source.splitlines() if source is not None else None
        diagnostics: List[Diagnostic] = []
        diagnostics.extend(_check_use_before_def(program, lines, filename))
        diagnostics.extend(_check_branch_targets(program, lines, filename))
        diagnostics.extend(_check_reachability(program, lines, filename))
        diagnostics.extend(_check_dead_stores(program, lines, filename))
        diagnostics.extend(_check_unused_values(program, lines, filename))
        if machine is not None:
            diagnostics.extend(
                _check_machine_ops(program, machine, lines, filename)
            )
        diagnostics.sort(
            key=lambda d: (d.span.line_no if d.span else 0, d.code)
        )
        obs.count("analyze.diagnostics", len(diagnostics))
    return diagnostics


# ----------------------------------------------------------------------
def _check_use_before_def(
    program: Program, lines, filename
) -> List[Diagnostic]:
    """A101: a defined value is live into the entry block.

    Liveness at entry means some path reaches a use before any
    definition; the program defining the name elsewhere rules out the
    legal trace-input (live-in) interpretation.
    """
    live_in, _ = block_live_sets(program)
    defined: Set[str] = {
        inst.dest
        for inst in program.all_instructions()
        if inst.dest is not None
    }
    suspects = sorted(live_in[program.entry.label] & defined)
    out: List[Diagnostic] = []
    for name in suspects:
        anchor = _first_exposed_use(program, name)
        span = span_for(
            anchor.line_no if anchor else None, lines, filename, anchor=name
        )
        out.append(
            CODES["A101"].diag(
                f"value {name!r} may be used before its definition "
                f"(live into entry block {program.entry.label!r})",
                span,
            )
        )
    return out


def _first_exposed_use(program: Program, name: str):
    """The first instruction (program order) with an upward-exposed use
    of ``name`` in a block that ``name`` is live into."""
    live_in, _ = block_live_sets(program)
    for block in program:
        if name not in live_in[block.label]:
            continue
        for inst in block.instructions:
            if name in inst.uses():
                return inst
            if inst.dest == name:
                break
    return None


def _check_branch_targets(
    program: Program, lines, filename
) -> List[Diagnostic]:
    """A102: branches to labels the program does not define."""
    labels = {block.label for block in program}
    out: List[Diagnostic] = []
    for block in program:
        for inst in block.instructions:
            if inst.target is not None and inst.target not in labels:
                out.append(
                    CODES["A102"].diag(
                        f"branch to undefined label {inst.target!r} "
                        "leaves the program (external exit)",
                        span_for(
                            inst.line_no, lines, filename, anchor=inst.target
                        ),
                    )
                )
    return out


def _check_reachability(
    program: Program, lines, filename
) -> List[Diagnostic]:
    """A103: blocks with no CFG path from the entry block."""
    cfg = program.cfg()
    entry = program.entry.label
    reachable = {entry}
    work = [entry]
    while work:
        for succ in cfg[work.pop()]:
            if succ not in reachable:
                reachable.add(succ)
                work.append(succ)
    out: List[Diagnostic] = []
    for block in program:
        if block.label not in reachable:
            out.append(
                CODES["A103"].diag(
                    f"block {block.label!r} is unreachable from entry "
                    f"block {entry!r}",
                    span_for(
                        block.line_no, lines, filename, anchor=block.label
                    ),
                )
            )
    return out


def _check_dead_stores(
    program: Program, lines, filename
) -> List[Diagnostic]:
    """A104: a store overwritten by a same-cell store with no
    intervening read of that cell, within one basic block.

    Conservative: any control instruction clears pending stores (the
    cell may be read in another block), and only exact base+offset
    matches count (the repo's alias model — distinct symbolic bases or
    offsets never alias).
    """
    out: List[Diagnostic] = []
    for block in program:
        pending: Dict[Tuple[str, int], object] = {}
        for inst in block.instructions:
            if inst.is_control:
                pending.clear()
                continue
            if inst.addr is None:
                continue
            cell = (inst.addr.base, inst.addr.offset)
            if inst.is_memory_read:
                pending.pop(cell, None)
            elif inst.is_memory_write:
                earlier = pending.get(cell)
                if earlier is not None:
                    out.append(
                        CODES["A104"].diag(
                            f"store to {inst.addr} is dead: overwritten "
                            f"at line {inst.line_no or '?'} before any "
                            "read",
                            span_for(
                                getattr(earlier, "line_no", None),
                                lines,
                                filename,
                            ),
                        )
                    )
                pending[cell] = inst
    return out


def _check_unused_values(
    program: Program, lines, filename
) -> List[Diagnostic]:
    """A105 (info): defined values no instruction ever reads."""
    used: Set[str] = set()
    for inst in program.all_instructions():
        used.update(inst.uses())
    out: List[Diagnostic] = []
    seen: Set[str] = set()
    for block in program:
        for inst in block.instructions:
            name = inst.dest
            if name is None or name in used or name in seen:
                continue
            seen.add(name)
            out.append(
                CODES["A105"].diag(
                    f"value {name!r} is defined but never used",
                    span_for(inst.line_no, lines, filename, anchor=name),
                )
            )
    return out


def _check_machine_ops(
    program: Program,
    machine: MachineModel,
    lines,
    filename,
) -> List[Diagnostic]:
    """A106: opcodes no FU class of ``machine`` executes.

    Mirrors the exact check the measurement phase would hit
    (``MachineModel.fu_class_for``), restricted to opcodes the DAG
    actually schedules.
    """
    out: List[Diagnostic] = []
    reported: Set[Opcode] = set()
    for block in program:
        for inst in block.instructions:
            if inst.op in _UNSCHEDULED_OPS or inst.op in reported:
                continue
            try:
                machine.fu_class_for(inst.op)
            except MachineConfigError:
                reported.add(inst.op)
                out.append(
                    CODES["A106"].diag(
                        f"no FU class of machine {machine.name!r} "
                        f"executes opcode {inst.op.value!r}",
                        span_for(inst.line_no, lines, filename),
                    )
                )
    return out
