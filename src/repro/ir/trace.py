"""Trace selection and flattening (Fisher-style trace scheduling front).

A *trace* is a sequence of basic blocks likely to execute consecutively
[Fis81].  URSA consumes one trace at a time: the trace is flattened into a
straight-line instruction sequence in which off-trace conditional branches
remain as *side exits*.  The dependence-DAG builder uses the side-exit
liveness computed here to pin code motion across branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.liveness import block_live_sets
from repro.ir.instructions import Imm, Instruction, Var
from repro.ir.opcodes import Opcode
from repro.ir.program import Program

#: (flattened instructions, side-exit liveness keyed by CBR uid)
Tuple_FlattenResult = Tuple[List[Instruction], Dict[int, FrozenSet[str]]]


@dataclass
class Trace:
    """A selected trace: an ordered list of block labels in a program."""

    program: Program
    labels: List[str]

    def blocks(self):
        return [self.program.block(label) for label in self.labels]

    # ------------------------------------------------------------------
    def flatten(self) -> List[Instruction]:
        """Flatten the trace into straight-line code with side exits.

        * Unconditional branches between consecutive trace blocks vanish
          (they become fallthrough).
        * A conditional branch whose taken target is the *next trace
          block* is inverted: a synthesized ``cond == 0`` test side-exits
          to the old fallthrough block, and the trace falls through.
        * A conditional branch into the middle of its own trace is a
          malformed trace and is rejected.
        """
        return self._flattened()[0]

    def side_exit_liveness(self) -> Dict[int, FrozenSet[str]]:
        """Map each side-exit CBR's uid to the values live at its target.

        Definitions of these values may not be delayed past the branch, so
        the DAG builder adds sequence edges accordingly.  The uids refer
        to the instructions returned by :meth:`flatten` (which is cached,
        so the two views are consistent).
        """
        return self._flattened()[1]

    def _flattened(self) -> Tuple_FlattenResult:
        cached = getattr(self, "_flatten_cache", None)
        if cached is not None:
            return cached
        live_in, _ = block_live_sets(self.program)
        flat: List[Instruction] = []
        exit_live: Dict[int, FrozenSet[str]] = {}
        on_trace = set(self.labels)

        def record_exit(branch: Instruction, target: str) -> None:
            exit_live[branch.uid] = live_in.get(target, frozenset())

        for index, label in enumerate(self.labels):
            block = self.program.block(label)
            next_label = self.labels[index + 1] if index + 1 < len(self.labels) else None
            for inst in block.instructions:
                if inst.op is Opcode.BR:
                    if inst.target == next_label:
                        continue  # fallthrough within the trace
                    if next_label is None:
                        continue  # trace ends here; off-trace continuation
                    raise ValueError(
                        f"trace {self.labels} broken at {label}: br {inst.target}"
                    )
                if inst.op is Opcode.CBR:
                    if inst.target == next_label:
                        # Taken edge stays on the trace: invert the branch
                        # so the *fallthrough* becomes the side exit.
                        fall = self.program.fallthrough_label(label)
                        if fall is None or fall in on_trace:
                            continue  # both ways stay on trace: no exit
                        cond = inst.srcs[0]
                        inverted_name = f"__not.{inst.uid}"
                        flat.append(
                            Instruction(
                                Opcode.CMPEQ,
                                dest=inverted_name,
                                srcs=(cond, Imm(0)),
                            )
                        )
                        side = Instruction(
                            Opcode.CBR,
                            srcs=(Var(inverted_name),),
                            target=fall,
                        )
                        flat.append(side)
                        record_exit(side, fall)
                        continue
                    if inst.target in on_trace and inst.target != self.labels[0]:
                        raise ValueError(
                            "conditional branch into the middle of its own "
                            f"trace ({inst.target}); reform traces"
                        )
                    # A branch back to the trace's own head (a loop) is an
                    # ordinary side exit: execution re-enters at the top.
                    flat.append(inst)
                    record_exit(inst, inst.target)
                    continue
                if inst.op is Opcode.HALT:
                    if next_label is not None:
                        raise ValueError(
                            f"halt in the middle of trace {self.labels} at {label}"
                        )
                    flat.append(inst)
                    continue
                flat.append(inst)
        self._flatten_cache = (flat, exit_live)
        return self._flatten_cache

    def fallthrough_liveness(self) -> FrozenSet[str]:
        """Values live when the trace exits at its end."""
        if not self.labels:
            return frozenset()
        live_in, live_out = block_live_sets(self.program)
        return live_out[self.labels[-1]]


def select_traces(
    program: Program,
    max_trace_blocks: Optional[int] = None,
) -> List[Trace]:
    """Partition the CFG into traces using Fisher's mutual-most-likely rule.

    Repeatedly seed a trace at the heaviest unvisited block, then grow
    forward along the heaviest CFG edge whose endpoint is unvisited and is
    the *mutually* most likely continuation, and symmetrically backward.
    Loop back-edges never join a trace (a block is visited at most once).
    """
    succ_weights = program.cfg()
    # label -> {predecessor: weight}, predecessors in program order.
    pred_weights: Dict[str, Dict[str, float]] = {
        label: {} for label in succ_weights
    }
    for src, row in succ_weights.items():
        for dst, weight in row.items():
            pred_weights[dst][src] = weight
    block_weight: Dict[str, float] = {}
    for label in succ_weights:
        block_weight[label] = max(sum(pred_weights[label].values()), 1.0)
    # The entry block has no incoming edges; seed it with the outgoing mass.
    entry = program.entry.label
    outgoing = sum(succ_weights[entry].values())
    block_weight[entry] = max(block_weight[entry], outgoing, 1.0)

    visited: Set[str] = set()
    traces: List[Trace] = []

    def best_successor(label: str) -> Optional[str]:
        candidates = [
            (w, s) for s, w in succ_weights[label].items() if s not in visited
        ]
        if not candidates:
            return None
        weight, succ = max(candidates)
        # Mutual check: `label` must also be succ's most likely predecessor.
        _, best_pred = max((w, p) for p, w in pred_weights[succ].items())
        return succ if best_pred == label else None

    def best_predecessor(label: str) -> Optional[str]:
        candidates = [
            (w, p) for p, w in pred_weights[label].items() if p not in visited
        ]
        if not candidates:
            return None
        weight, pred = max(candidates)
        _, best_succ = max((w, s) for s, w in succ_weights[pred].items())
        return pred if best_succ == label else None

    order = sorted(succ_weights, key=lambda l: (-block_weight[l], l))
    for seed in order:
        if seed in visited:
            continue
        visited.add(seed)
        labels = [seed]
        # Grow forward.
        while max_trace_blocks is None or len(labels) < max_trace_blocks:
            nxt = best_successor(labels[-1])
            if nxt is None:
                break
            labels.append(nxt)
            visited.add(nxt)
        # Grow backward.
        while max_trace_blocks is None or len(labels) < max_trace_blocks:
            prev = best_predecessor(labels[0])
            if prev is None:
                break
            labels.insert(0, prev)
            visited.add(prev)
        traces.append(Trace(program, labels))
    return traces


def main_trace(program: Program) -> Trace:
    """The single most likely trace through ``program``."""
    return select_traces(program)[0]
