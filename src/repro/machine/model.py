"""Synthetic VLIW machine descriptions.

The paper assumes a load/store VLIW with a fixed set of functional units
and registers, non-pipelined (a dependent instruction cannot begin until
its producer completes, §3.2).  :class:`MachineModel` parameterizes that
space: FU classes with counts and latencies, and one or more register
classes.  The paper's base configuration is homogeneous
(:meth:`MachineModel.homogeneous`); the §5 multi-class extension is
exercised through :meth:`MachineModel.classed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.diagnostics import CompileError
from repro.ir.instructions import Instruction
from repro.ir.opcodes import PSEUDO_OPS, Opcode, default_fu_class


def default_reg_class(value: str) -> str:
    """The default classifier: every value lives in ``"gpr"``.

    A named module-level function (not a lambda) so machine models —
    and the compiled artifacts that embed them — survive pickling,
    which the ``repro.serve`` worker pool and persistent compile cache
    both rely on.
    """
    return "gpr"


@dataclass(frozen=True)
class PrefixRegClassifier:
    """Classify values into two register classes by name prefix.

    Picklable and content-addressable (its parameters fully describe
    it), unlike a closure; used by :meth:`MachineModel.dual_regclass`.
    """

    prefix: str = "f"
    match_cls: str = "flt"
    other_cls: str = "int"

    def __call__(self, value: str) -> str:
        return self.match_cls if value.startswith(self.prefix) else self.other_cls


@dataclass(frozen=True)
class FUClass:
    """A class of identical functional units.

    ``ops`` restricts which opcodes the class executes; ``None`` means
    any opcode.  ``latency`` is the execution time in cycles.  The
    paper's base model is non-pipelined (a unit is busy for ``latency``
    cycles per op); ``pipelined=True`` enables the §6 superscalar
    direction, where a unit accepts a new op every cycle while results
    still take ``latency`` cycles.
    """

    name: str
    count: int
    latency: int = 1
    ops: Optional[FrozenSet[Opcode]] = None
    pipelined: bool = False

    def executes(self, op: Opcode) -> bool:
        return self.ops is None or op in self.ops

    @property
    def occupancy(self) -> int:
        """Cycles a unit stays busy per op."""
        return 1 if self.pipelined else self.latency


class MachineConfigError(CompileError):
    """Raised for inconsistent machine descriptions."""


@dataclass(frozen=True)
class MachineModel:
    """A VLIW target: functional units, registers, and issue semantics.

    Attributes:
        name: Human-readable configuration name used in benchmark tables.
        fu_classes: The functional-unit classes.
        registers: Register-class name -> number of registers.
        reg_class_of: Maps a value name to its register class.  The
            default puts every value in ``"gpr"``; multi-class set-ups
            (e.g. int vs. float) classify by value-name prefix.
    """

    name: str
    fu_classes: Tuple[FUClass, ...]
    registers: Mapping[str, int]
    reg_class_of: Callable[[str], str] = field(default=default_reg_class)

    def __post_init__(self) -> None:
        if not self.fu_classes:
            raise MachineConfigError("machine needs at least one FU class")
        names = [fu.name for fu in self.fu_classes]
        if len(set(names)) != len(names):
            raise MachineConfigError(f"duplicate FU class names: {names}")
        for fu in self.fu_classes:
            if fu.count < 1 or fu.latency < 1:
                raise MachineConfigError(f"bad FU class {fu}")
        for cls, count in self.registers.items():
            if count < 1:
                raise MachineConfigError(f"register class {cls!r} needs >= 1")
        self._fill_tables()

    # The lookup tables are derived state, not fields: equality,
    # hashing, ``repr`` and the pickled bytes (pool workers, the serve
    # cache) stay those of the fields, and unpickling refills them.  They
    # are keyed by the opcode's value string, whose hash is cached, where
    # an ``Opcode`` member hashes through ``Enum.__hash__`` on every
    # lookup.
    def _fill_tables(self) -> None:
        fu_by_op: Dict[str, FUClass] = {}
        latency_by_op: Dict[str, int] = {}
        for op in Opcode:
            for fu in self.fu_classes:
                if fu.executes(op):
                    fu_by_op[op._value_] = fu
                    latency_by_op[op._value_] = fu.latency
                    break
            if op in PSEUDO_OPS:
                latency_by_op[op._value_] = 0
        object.__setattr__(
            self, "_fu_by_name", {fu.name: fu for fu in self.fu_classes}
        )
        object.__setattr__(self, "_fu_by_op", fu_by_op)
        object.__setattr__(self, "_latency_by_op", latency_by_op)

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        for table in ("_fu_by_name", "_fu_by_op", "_latency_by_op"):
            del state[table]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._fill_tables()

    # ------------------------------------------------------------------
    def fu_class(self, name: str) -> FUClass:
        return self._fu_by_name[name]

    def fu_class_for(self, op: Opcode) -> FUClass:
        """The FU class that executes ``op`` (first match wins)."""
        fu = self._fu_by_op.get(op._value_)
        if fu is None:
            raise MachineConfigError(f"no FU class executes {op!r}")
        return fu

    def latency_of(self, inst: Instruction) -> int:
        """Cycles ``inst`` takes: 0 for a pseudo op, else its class's
        latency."""
        latency = self._latency_by_op.get(inst.op._value_)
        if latency is None:
            raise MachineConfigError(f"no FU class executes {inst.op!r}")
        return latency

    @property
    def total_fus(self) -> int:
        return sum(fu.count for fu in self.fu_classes)

    @property
    def total_registers(self) -> int:
        return sum(self.registers.values())

    def register_count(self, cls: str = "gpr") -> int:
        return self.registers[cls]

    def describe(self) -> str:
        fus = ", ".join(
            f"{fu.count}x{fu.name}(lat={fu.latency})" for fu in self.fu_classes
        )
        regs = ", ".join(f"{n} {cls}" for cls, n in sorted(self.registers.items()))
        return f"{self.name}: FUs[{fus}] Regs[{regs}]"

    # ------------------------------------------------------------------
    # Canonical configurations.
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        n_fus: int,
        n_regs: int,
        latency: int = 1,
        name: Optional[str] = None,
        pipelined: bool = False,
    ) -> "MachineModel":
        """The paper's base machine: ``n_fus`` identical universal units
        and a single register file of ``n_regs`` registers."""
        suffix = "p" if pipelined else ""
        return cls(
            name=name or f"vliw-{n_fus}fu-{n_regs}r{suffix}",
            fu_classes=(FUClass("any", n_fus, latency, pipelined=pipelined),),
            registers={"gpr": n_regs},
        )

    @classmethod
    def classed(
        cls,
        alu: int = 2,
        mul: int = 1,
        mem: int = 1,
        branch: int = 1,
        alu_regs: int = 16,
        latencies: Optional[Dict[str, int]] = None,
        name: Optional[str] = None,
    ) -> "MachineModel":
        """A classed machine: ALU / multiplier / memory / branch units.

        Opcode-to-class mapping follows :func:`default_fu_class`.
        """
        latencies = latencies or {}
        groups: Dict[str, FrozenSet[Opcode]] = {"alu": frozenset(), "mul": frozenset(),
                                                "mem": frozenset(), "branch": frozenset()}
        buckets: Dict[str, set] = {k: set() for k in groups}
        for op in Opcode:
            if op in (Opcode.ENTRY, Opcode.EXIT):
                continue
            buckets[default_fu_class(op)].add(op)
        fu_classes = []
        for fu_name, count in (("alu", alu), ("mul", mul), ("mem", mem), ("branch", branch)):
            if count > 0:
                fu_classes.append(
                    FUClass(
                        fu_name,
                        count,
                        latencies.get(fu_name, 1),
                        frozenset(buckets[fu_name]),
                    )
                )
        return cls(
            name=name or f"vliw-classed-{alu}a{mul}m{mem}l{branch}b-{alu_regs}r",
            fu_classes=tuple(fu_classes),
            registers={"gpr": alu_regs},
        )

    @classmethod
    def dual_regclass(
        cls,
        n_fus: int = 4,
        int_regs: int = 8,
        flt_regs: int = 8,
        name: Optional[str] = None,
    ) -> "MachineModel":
        """Two register classes (the §5 multi-class extension).

        Values whose names start with ``f`` live in the ``flt`` class;
        everything else is ``int``.
        """
        return cls(
            name=name or f"vliw-{n_fus}fu-{int_regs}i{flt_regs}f",
            fu_classes=(FUClass("any", n_fus, 1),),
            registers={"int": int_regs, "flt": flt_regs},
            reg_class_of=PrefixRegClassifier("f", "flt", "int"),
        )
