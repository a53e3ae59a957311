"""Whole-program container and control-flow graph construction."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.diagnostics import CompileError
from repro.ir.block import BasicBlock
from repro.ir.instructions import Instruction


class IRError(CompileError):
    """Raised for malformed IR programs."""

    code = "parse_error"


@dataclass
class Program:
    """An ordered list of basic blocks; the first block is the entry.

    Edge profile weights (used by trace selection) live on the program and
    are keyed by ``(src_label, dst_label)``.  Weights default to 1 for
    every CFG edge when not given.
    """

    blocks: List[BasicBlock] = field(default_factory=list)
    edge_weights: Dict[Tuple[str, str], float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    def add_block(self, block: BasicBlock) -> BasicBlock:
        if any(b.label == block.label for b in self.blocks):
            raise IRError(f"duplicate block label {block.label!r}")
        self.blocks.append(block)
        return block

    def block(self, label: str) -> BasicBlock:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(label)

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError("empty program")
        return self.blocks[0]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def all_instructions(self) -> Iterator[Instruction]:
        for b in self.blocks:
            yield from b.instructions

    # ------------------------------------------------------------------
    # CFG.
    # ------------------------------------------------------------------
    def fallthrough_label(self, label: str) -> Optional[str]:
        """Label of the block after ``label`` in program order, if any."""
        for i, b in enumerate(self.blocks):
            if b.label == label:
                if i + 1 < len(self.blocks):
                    return self.blocks[i + 1].label
                return None
        raise KeyError(label)

    def cfg(
        self, allow_external_targets: bool = True
    ) -> Dict[str, Dict[str, float]]:
        """Build the control-flow graph as ``{label: {successor: weight}}``.

        There is one row per block label, in program order; each row
        lists the block's successors in branch order (taken target
        before fallthrough).  Weights come from :attr:`edge_weights`
        (default 1.0).  Branches to labels not defined in this program
        are *external exits* (a trace may jump to code outside the region
        under compilation); they produce no edge unless
        ``allow_external_targets`` is False, in which case they raise
        :class:`IRError`.
        """
        graph: Dict[str, Dict[str, float]] = {b.label: {} for b in self.blocks}
        for b in self.blocks:
            fall = self.fallthrough_label(b.label)
            row = graph[b.label]
            for succ in b.successor_labels(fall):
                if succ not in graph:
                    if allow_external_targets:
                        continue
                    raise IRError(
                        f"block {b.label!r} branches to unknown label {succ!r}"
                    )
                row[succ] = self.edge_weights.get((b.label, succ), 1.0)
        return graph

    def set_edge_weight(self, src: str, dst: str, weight: float) -> None:
        self.edge_weights[(src, dst)] = weight

    def validate(self, allow_external_targets: bool = True) -> None:
        """Check CFG consistency; raises :class:`IRError` on problems."""
        self.cfg(allow_external_targets)
        labels = {b.label for b in self.blocks}
        if len(labels) != len(self.blocks):
            raise IRError("duplicate block labels")

    def __str__(self) -> str:
        return "\n".join(str(b) for b in self.blocks)


def straightline_program(instructions: List[Instruction], label: str = "L0") -> Program:
    """Wrap a flat instruction list into a single-block program."""
    prog = Program()
    block = BasicBlock(label)
    for inst in instructions:
        block.append(inst)
    prog.add_block(block)
    return prog
