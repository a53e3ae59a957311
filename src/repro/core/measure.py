"""Measuring resource requirements and locating excess (paper §3).

For every resource class this module computes:

* the worst-case requirement over all legal schedules — the width of the
  resource's reuse partial order, obtained as a minimum chain
  decomposition via hammock-prioritized bipartite matching; and
* the *excessive chain sets* (Definition 6): per hammock, the trimmed
  allocation subchains whose heads are mutually independent and whose
  tails are mutually independent, which the transformations of §4
  consume directly.

:func:`measure_widths` is the requirement alone: the width of each
reuse order, with no hammock analysis and no chain decomposition.  Trial
scoring reads nothing else.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.core.kill import KillAssignment, select_kill
from repro.core.reuse import (
    ValueInfo,
    can_reuse_fu,
    can_reuse_registers,
    can_reuse_registers_sound,
    collect_values,
    fu_elements,
)
from repro.graph.dag import DependenceDAG
from repro.graph.dilworth import (
    ChainDecomposition,
    PartialOrder,
    minimum_chain_decomposition,
    width,
)
from repro.graph.hammock import Hammock, HammockAnalysis
from repro.machine.model import MachineModel
from repro.resilience import chaos

Element = Hashable


class ResourceKind(enum.Enum):
    FUNCTIONAL_UNIT = "fu"
    REGISTER = "reg"


@dataclass
class ResourceRequirement:
    """Measured worst-case requirement for one resource class."""

    kind: ResourceKind
    cls: str
    available: int
    order: PartialOrder
    decomposition: ChainDecomposition
    #: element -> representative DAG node (itself for FU elements, the
    #: defining node for register values).
    element_node: Dict[Element, int]
    #: for registers: the Kill() assignment used.
    kill: Optional[KillAssignment] = None
    values: Optional[Dict[str, ValueInfo]] = None

    @property
    def required(self) -> int:
        return self.decomposition.width

    @property
    def excess(self) -> int:
        return max(0, self.required - self.available)

    @property
    def is_excessive(self) -> bool:
        return self.required > self.available

    def describe(self) -> str:
        return (
            f"{self.kind.value}:{self.cls} requires {self.required} "
            f"(available {self.available})"
        )


@dataclass
class ExcessiveChainSet:
    """A localized excess (Definition 6): trimmed subchains in a hammock."""

    kind: ResourceKind
    cls: str
    hammock: Hammock
    chains: List[List[Element]]
    available: int
    requirement: ResourceRequirement

    @property
    def excess(self) -> int:
        return len(self.chains) - self.available

    def heads(self) -> List[Element]:
        return [chain[0] for chain in self.chains]

    def tails(self) -> List[Element]:
        return [chain[-1] for chain in self.chains]

    def element_nodes(self, elements: Sequence[Element]) -> List[int]:
        return [self.requirement.element_node[e] for e in elements]


# ======================================================================
# Requirements.
# ======================================================================
def measure_fu(
    dag: DependenceDAG,
    machine: MachineModel,
    fu_class: str,
    analysis: Optional[HammockAnalysis] = None,
) -> ResourceRequirement:
    """Worst-case number of ``fu_class`` units any schedule can use."""
    analysis = analysis or HammockAnalysis.of(dag)
    elements = fu_elements(dag, machine, fu_class)
    order = can_reuse_fu(dag, elements)
    # levels= is the vectorized spelling of priority=analysis.edge_priority
    # (abs nesting-level difference); the decomposition is identical.
    decomposition = minimum_chain_decomposition(
        order, levels=analysis.nesting_levels()
    )
    obs.count("measure.fu_requirements")
    obs.peak("measure.fu_width_peak", decomposition.width)
    return ResourceRequirement(
        kind=ResourceKind.FUNCTIONAL_UNIT,
        cls=fu_class,
        available=machine.fu_class(fu_class).count,
        order=order,
        decomposition=decomposition,
        element_node={uid: uid for uid in elements},
    )


def measure_registers(
    dag: DependenceDAG,
    machine: MachineModel,
    reg_class: str = "gpr",
    analysis: Optional[HammockAnalysis] = None,
    kill: Optional[KillAssignment] = None,
) -> ResourceRequirement:
    """Worst-case number of ``reg_class`` registers any schedule can need."""
    analysis = analysis or HammockAnalysis.of(dag)
    values = [
        v for v in collect_values(dag, machine) if v.reg_class == reg_class
    ]
    if kill is None:
        kill = select_kill(dag, values)
    order = can_reuse_registers(dag, values, kill.kill)
    element_node = {v.name: v.def_uid for v in values}

    # A value's nesting level is its defining node's; the hammock priority
    # abs(level(a) - level(b)) then matches the per-pair edge_priority.
    node_levels = analysis.nesting_levels()
    value_levels = {name: node_levels[uid] for name, uid in element_node.items()}
    decomposition = minimum_chain_decomposition(order, levels=value_levels)
    obs.count("measure.reg_requirements")
    obs.peak("measure.reg_width_peak", decomposition.width)
    return ResourceRequirement(
        kind=ResourceKind.REGISTER,
        cls=reg_class,
        available=machine.registers[reg_class],
        order=order,
        decomposition=decomposition,
        element_node=element_node,
        kill=kill,
        values={v.name: v for v in values},
    )


def sound_register_width(
    dag: DependenceDAG,
    machine: MachineModel,
    reg_class: str = "gpr",
) -> int:
    """A provable upper bound on any schedule's register pressure.

    Uses the every-maximal-use reuse relation instead of the heuristic
    ``Kill()`` choice; realized pressure can exceed the paper's measured
    requirement (Theorem 2 leakage) but never this bound.
    """
    values = [
        v for v in collect_values(dag, machine) if v.reg_class == reg_class
    ]
    order = can_reuse_registers_sound(dag, values)
    return width(order)


def measure_all(
    dag: DependenceDAG,
    machine: MachineModel,
    analysis: Optional[HammockAnalysis] = None,
) -> List[ResourceRequirement]:
    """Measure every FU class and register class of the machine."""
    with obs.span("measure.all", nodes=len(dag)):
        obs.count("measure.calls")
        analysis = analysis or HammockAnalysis.of(dag)
        results = [
            measure_fu(dag, machine, fu.name, analysis)
            for fu in machine.fu_classes
        ]
        results.extend(
            measure_registers(dag, machine, cls, analysis)
            for cls in sorted(machine.registers)
        )
        chaos.corrupt_measurements(results)
    return results


def measure_widths(dag: DependenceDAG, machine: MachineModel) -> List[int]:
    """Every class's requirement, in :func:`measure_all`'s order.

    The requirement is the width of the reuse order, ``n`` minus the
    size of *any* maximum matching (Theorem 1).  The hammock priority
    only picks which maximum matching, so that the chains are minimal
    inside every nested hammock too; a width does not need it, nor the
    chains.  The relations and ``Kill()`` choices are those
    :func:`measure_all` builds, so the widths are its ``required``s.
    """
    fu_names = [fu.name for fu in machine.fu_classes]
    elements: Dict[str, List[int]] = {name: [] for name in fu_names}
    instruction = dag.instruction
    fu_class_for = machine.fu_class_for
    for uid in dag.op_nodes():
        elements[fu_class_for(instruction(uid).op).name].append(uid)
    widths = [width(can_reuse_fu(dag, elements[name])) for name in fu_names]
    values = collect_values(dag, machine)
    for reg_class in sorted(machine.registers):
        class_values = [v for v in values if v.reg_class == reg_class]
        kill = select_kill(dag, class_values)
        order = can_reuse_registers(dag, class_values, kill.kill)
        widths.append(width(order))
    return widths


# ======================================================================
# Excessive chain sets (Definition 6).
# ======================================================================
def trim_excessive_chains(
    order: PartialOrder,
    chains: Sequence[Sequence[Element]],
) -> List[List[Element]]:
    """Apply the paper's head/tail trimming to a set of (sub)chains.

    Repeatedly drop a chain head that precedes another chain's head and a
    chain tail that follows another chain's tail, until all heads are
    mutually independent and all tails are mutually independent.  Chains
    that empty out vanish.
    """
    work = [list(chain) for chain in chains if chain]
    changed = True
    while changed:
        changed = False
        heads = [chain[0] for chain in work if chain]
        for chain in work:
            if not chain:
                continue
            head = chain[0]
            if any(head != other and order.less(head, other) for other in heads):
                chain.pop(0)
                changed = True
        tails = [chain[-1] for chain in work if chain]
        for chain in work:
            if not chain:
                continue
            tail = chain[-1]
            if any(tail != other and order.less(other, tail) for other in tails):
                chain.pop()
                changed = True
        work = [chain for chain in work if chain]
    return work


def verify_excessive_set(
    ecs: ExcessiveChainSet,
    check_condition2: bool = True,
) -> bool:
    """Check Definition 6's conditions on an excessive chain set.

    1. ``m > available`` (there is real excess);
    2. every member element appears in at least one independent m-set
       containing one element from each chain (bounded backtracking);
    3. chain heads are mutually independent, chain tails likewise.

    Fidelity note: the paper computes the sets "in a reasonably
    straightforward manner by examining contiguous allocation subchains
    and removing any heads and tails that are related" — that procedure
    (which we implement) establishes (1) and (3) but can leave *interior*
    elements violating (2) on irregular DAGs (see
    ``tests/test_excessive_set_conditions.py`` for a concrete witness).
    The transformations only rely on (1) and (3); pass
    ``check_condition2=False`` to verify exactly what trimming promises.
    """
    order = ecs.requirement.order
    chains = ecs.chains
    m = len(chains)
    if m <= ecs.available:
        return False

    heads = [chain[0] for chain in chains]
    tails = [chain[-1] for chain in chains]
    for group in (heads, tails):
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if not order.independent(a, b):
                    return False

    if not check_condition2:
        return True

    # Condition 2: every element sits in some independent m-set with one
    # member per chain.  Backtracking search with a step budget (the
    # problem is NP-hard in general; the budget turns pathological cases
    # into an accepted "unknown", which the caller treats as valid —
    # only definite violations fail verification).
    budget = 200_000

    def covered(element, chain_index) -> Optional[bool]:
        nonlocal budget
        other_chains = [c for j, c in enumerate(chains) if j != chain_index]
        # Search smallest chains first: fail fast.
        other_chains.sort(key=len)

        def extend(chosen, remaining) -> Optional[bool]:
            nonlocal budget
            if budget <= 0:
                return None
            if not remaining:
                return True
            head, *rest = remaining
            for candidate in head:
                budget -= 1
                if all(order.independent(candidate, c) for c in chosen):
                    outcome = extend(chosen + [candidate], rest)
                    if outcome is not False:
                        return outcome
            return False

        return extend([element], other_chains)

    for i, chain in enumerate(chains):
        for element in chain:
            outcome = covered(element, i)
            if outcome is False:
                return False
            if outcome is None:
                break  # budget exhausted: give the set the benefit
    return True


def find_excessive_sets(
    dag: DependenceDAG,
    requirement: ResourceRequirement,
    analysis: Optional[HammockAnalysis] = None,
    scope: str = "both",
) -> List[ExcessiveChainSet]:
    """Locate hammocks whose projected requirement exceeds availability.

    Hammocks are scanned innermost (smallest) first.  ``scope`` selects
    which excessive regions are reported:

    * ``"innermost"`` — the smallest excessive hammock only;
    * ``"outermost"`` — the largest (typically the whole DAG);
    * ``"both"`` (default) — innermost and outermost: fixing the local
      region is cheapest, but only a whole-DAG set is guaranteed to be
      able to lower the global requirement;
    * ``"all"`` — every excessive hammock (used by tests).
    """
    if not requirement.is_excessive:
        return []
    analysis = analysis or HammockAnalysis.of(dag)
    element_node = requirement.element_node
    results: List[ExcessiveChainSet] = []

    hammocks = sorted(analysis.hammocks(), key=lambda h: len(h.nodes))
    for hammock in hammocks:
        projected = [
            [e for e in chain if element_node[e] in hammock.nodes]
            for chain in requirement.decomposition.chains
        ]
        projected = [chain for chain in projected if chain]
        if len(projected) <= requirement.available:
            continue
        trimmed = trim_excessive_chains(requirement.order, projected)
        if len(trimmed) <= requirement.available:
            continue
        results.append(
            ExcessiveChainSet(
                kind=requirement.kind,
                cls=requirement.cls,
                hammock=hammock,
                chains=trimmed,
                available=requirement.available,
                requirement=requirement,
            )
        )

    obs.count("measure.excessive_sets", len(results))
    if not results or scope == "all":
        return results
    if scope == "innermost":
        return results[:1]
    if scope == "outermost":
        return results[-1:]
    if scope == "both":
        if len(results) == 1:
            return results
        innermost, outermost = results[0], results[-1]
        if innermost.chains == outermost.chains:
            return [innermost]
        return [innermost, outermost]
    raise ValueError(f"unknown scope {scope!r}")
