"""Measuring resource requirements and locating excess (paper §3).

For every resource class this module computes:

* whether it fits: the worst-case requirement over all legal schedules
  is the width of the resource's reuse partial order, ``n`` minus the
  size of a maximum bipartite matching (Theorem 1), and a measurement
  brackets it by two Dilworth bounds — a greedy chain cover above, an
  antichain of minimal or maximal elements below — which settle every
  class whose cover fits ``available`` or whose antichain exceeds it;
* the exact width, only where a reader needs it (a class whose bounds
  straddle ``available``, ``required`` itself): off the chains when
  they are built, else from one matching warm-started from the greedy
  one; and
* for an excessive class only, the *excessive chain sets* (Definition
  6): per hammock, the trimmed subchains of the hammock-prioritized
  minimum chain decomposition whose heads are mutually independent and
  whose tails are mutually independent, which the transformations of §4
  consume directly.

A class that fits never runs a matching, builds a hammock analysis or
a decomposition: :attr:`ResourceRequirement.decomposition` is computed
on first read.  :func:`reuse_orders` is the relations alone, which trial
scoring bounds and matches itself (warm-started from the committed
matchings).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

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
    width_bounds,
    width_matching,
)
from repro.graph.hammock import Hammock, HammockAnalysis
from repro.machine.model import MachineModel
from repro.resilience import chaos

Element = Hashable


class ResourceKind(enum.Enum):
    FUNCTIONAL_UNIT = "fu"
    REGISTER = "reg"


class StaleMeasurementError(RuntimeError):
    """A decomposition was read after its DAG moved on."""


class ResourceRequirement:
    """Measured worst-case requirement for one resource class.

    ``required`` is the width of the reuse ``order`` (Theorem 1), and
    ``matching`` a maximum matching that proves it, as an index array
    (entry ``i`` is the index matched to element ``i``, or -1).  A
    measurement computes neither: it stores two Dilworth bounds,
    ``lower <= required <= upper`` (:func:`~repro.graph.dilworth.
    width_bounds`), and :attr:`excess` and :attr:`is_excessive` decide
    from them and the *current* ``available`` on every read.  Only a
    class whose bounds straddle ``available``, or a reader of
    ``required``/``matching`` themselves, forces the exact width: taken
    from the decomposition when that is already built (its chains are a
    minimum chain cover), else from :func:`~repro.graph.dilworth.
    width_matching` warm-started from the greedy matching.  Neither
    reads the DAG, so ``required`` never goes stale.

    The hammock-prioritized chain ``decomposition`` only serves to
    locate excess (Definition 6), so it is built on first read, from the
    measured DAG at the version it was measured at; reading it once that
    DAG has moved on raises :class:`StaleMeasurementError`.  A
    requirement built with an explicit ``decomposition`` (the reference
    oracle's) carries no DAG and is never stale.
    """

    def __init__(
        self,
        kind: ResourceKind,
        cls: str,
        available: int,
        order: PartialOrder,
        element_node: Dict[Element, int],
        required: Optional[int] = None,
        dag: Optional[DependenceDAG] = None,
        decomposition: Optional[ChainDecomposition] = None,
        kill: Optional[KillAssignment] = None,
        values: Optional[Dict[str, ValueInfo]] = None,
    ) -> None:
        self.kind = kind
        self.cls = cls
        self.available = available
        self.order = order
        #: element -> representative DAG node (itself for FU elements,
        #: the defining node for register values).
        self.element_node = element_node
        #: Dilworth bounds on the width: an antichain's size and a chain
        #: cover's.  An exact ``required`` (the reference oracle's, which
        #: also passes its decomposition) is both.
        if required is None:
            self.lower, self.upper, self._greedy = width_bounds(order.masks)
        else:
            self.lower = self.upper = required
            self._greedy = None
        self._required: Optional[int] = None
        self._matching: Optional[List[int]] = None
        self.dag = dag
        self.version = dag.version if dag is not None else None
        self._decomposition = decomposition
        #: for registers: the Kill() assignment used.
        self.kill = kill
        self.values = values

    @property
    def decomposition(self) -> ChainDecomposition:
        dag = self.dag
        if dag is not None and dag.version != self.version:
            raise StaleMeasurementError(
                f"{self.kind.value}:{self.cls} was measured at DAG version "
                f"{self.version}, which is now {dag.version}"
            )
        if self._decomposition is None:
            # An element's nesting level is its node's (a register
            # value's is its definition's); the hammock priority
            # abs(level(a) - level(b)) then matches edge_priority.
            node_levels = HammockAnalysis.of(dag).nesting_levels()
            levels = {e: node_levels[n] for e, n in self.element_node.items()}
            self._decomposition = minimum_chain_decomposition(
                self.order, levels=levels
            )
        return self._decomposition

    @property
    def required(self) -> int:
        if self._required is None:
            self._resolve()
        return self._required

    @property
    def matching(self) -> List[int]:
        if self._matching is None:
            self._resolve()
        return self._matching

    def _resolve(self) -> None:
        """Compute the exact width and its matching, once."""
        decomposition = self._decomposition
        if decomposition is not None:
            index = self.order.index
            successor = decomposition.successor
            self._required = len(decomposition.chains)
            self._matching = [
                index[successor[e]] if e in successor else -1
                for e in self.order.elements
            ]
        elif self.lower == self.upper:
            # The greedy matching already reaches the lower bound.
            self._required = self.upper
            self._matching = self._greedy
        else:
            obs.count("measure.width_matched")
            self._required, self._matching = width_matching(
                self.order.masks, self._greedy
            )
        obs.peak(
            "measure.fu_width_peak"
            if self.kind is ResourceKind.FUNCTIONAL_UNIT
            else "measure.reg_width_peak",
            self._required,
        )

    @property
    def excess(self) -> int:
        available = self.available
        if self.upper <= available:
            return 0
        return max(0, self.required - available)

    @property
    def is_excessive(self) -> bool:
        available = self.available
        if self.upper <= available:
            return False
        if self.lower > available:
            return True
        return self.required > available

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


# ======================================================================
# Requirements.
# ======================================================================
def _fu_requirement(
    dag: DependenceDAG,
    machine: MachineModel,
    fu_class: str,
    elements: List[int],
) -> ResourceRequirement:
    return ResourceRequirement(
        kind=ResourceKind.FUNCTIONAL_UNIT,
        cls=fu_class,
        available=machine.fu_class(fu_class).count,
        order=can_reuse_fu(dag, elements),
        element_node={uid: uid for uid in elements},
        dag=dag,
    )


def _register_requirement(
    dag: DependenceDAG,
    machine: MachineModel,
    reg_class: str,
    values: List[ValueInfo],
    kill: Optional[KillAssignment] = None,
) -> ResourceRequirement:
    if kill is None:
        kill = select_kill(dag, values)
    return ResourceRequirement(
        kind=ResourceKind.REGISTER,
        cls=reg_class,
        available=machine.registers[reg_class],
        order=can_reuse_registers(dag, values, kill.kill),
        element_node={v.name: v.def_uid for v in values},
        dag=dag,
        kill=kill,
        values={v.name: v for v in values},
    )


def _fu_classes(
    dag: DependenceDAG, machine: MachineModel
) -> List[Tuple[str, List[int]]]:
    """Every FU class in machine order, with its op nodes (one pass
    over the op nodes)."""
    fu_names = [fu.name for fu in machine.fu_classes]
    elements: Dict[str, List[int]] = {name: [] for name in fu_names}
    instruction = dag.instruction
    fu_class_for = machine.fu_class_for
    for uid in dag.op_nodes():
        elements[fu_class_for(instruction(uid).op).name].append(uid)
    return [(name, elements[name]) for name in fu_names]


def _register_classes(
    dag: DependenceDAG, machine: MachineModel
) -> List[Tuple[str, List[ValueInfo]]]:
    """Every register class in name order, with its values."""
    values = collect_values(dag, machine)
    return [
        (reg_class, [v for v in values if v.reg_class == reg_class])
        for reg_class in sorted(machine.registers)
    ]


def reuse_orders(
    dag: DependenceDAG, machine: MachineModel, kind: ResourceKind
) -> Iterator[PartialOrder]:
    """The reuse order of every class of ``kind``, in :func:`measure_all`'s
    order and from the same builder, each built when it is drawn, with
    no matching and nothing counted as a measurement.  Drawn in full,
    the register orders run ``select_kill`` once per class, in class
    order, as :func:`measure_all` does."""
    if kind is ResourceKind.FUNCTIONAL_UNIT:
        for _, elements in _fu_classes(dag, machine):
            yield can_reuse_fu(dag, elements)
        return
    for _, values in _register_classes(dag, machine):
        yield can_reuse_registers(dag, values, select_kill(dag, values).kill)


def _requirements(
    dag: DependenceDAG, machine: MachineModel
) -> List[ResourceRequirement]:
    """Every FU class, then every register class in name order."""
    results = [
        _fu_requirement(dag, machine, name, elements)
        for name, elements in _fu_classes(dag, machine)
    ]
    results.extend(
        _register_requirement(dag, machine, reg_class, values)
        for reg_class, values in _register_classes(dag, machine)
    )
    return results


def _counted(requirement: ResourceRequirement) -> ResourceRequirement:
    """Count one measured class, and how its bounds decided it.  Forces
    no width: the width peaks are recorded when a width is computed."""
    obs.count(
        "measure.fu_requirements"
        if requirement.kind is ResourceKind.FUNCTIONAL_UNIT
        else "measure.reg_requirements"
    )
    if requirement.upper <= requirement.available:
        obs.count("measure.bound_fit")
    elif requirement.lower > requirement.available:
        obs.count("measure.bound_excessive")
    return requirement


def measure_fu(
    dag: DependenceDAG,
    machine: MachineModel,
    fu_class: str,
) -> ResourceRequirement:
    """Worst-case number of ``fu_class`` units any schedule can use."""
    return _counted(_fu_requirement(
        dag, machine, fu_class, fu_elements(dag, machine, fu_class)
    ))


def measure_registers(
    dag: DependenceDAG,
    machine: MachineModel,
    reg_class: str = "gpr",
    kill: Optional[KillAssignment] = None,
) -> ResourceRequirement:
    """Worst-case number of ``reg_class`` registers any schedule can need."""
    values = [
        v for v in collect_values(dag, machine) if v.reg_class == reg_class
    ]
    return _counted(_register_requirement(dag, machine, reg_class, values, kill))


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
    dag: DependenceDAG, machine: MachineModel
) -> List[ResourceRequirement]:
    """Measure every FU class and register class of the machine."""
    with obs.span("measure.all", nodes=len(dag)):
        obs.count("measure.calls")
        results = [_counted(r) for r in _requirements(dag, machine)]
        chaos.corrupt_measurements(results)
    return results


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

    Each round is two OR-folds over ``order.masks``: a head goes when
    its successor mask meets the mask of the round's heads, a tail when
    its bit is in the union of the tails' successor masks.  The order is
    strict, so no element is above itself and this is the pairwise test
    ``repro.reference.trim_excessive_chains`` makes.
    """
    index = order.index
    masks = order.masks
    work = [list(chain) for chain in chains if chain]
    changed = True
    while changed:
        changed = False
        heads = 0
        for chain in work:
            heads |= 1 << index[chain[0]]
        for chain in work:
            if masks[index[chain[0]]] & heads:
                chain.pop(0)
                changed = True
        after_tails = 0
        for chain in work:
            if chain:
                after_tails |= masks[index[chain[-1]]]
        for chain in work:
            if chain and after_tails >> index[chain[-1]] & 1:
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
    analysis = HammockAnalysis.of(dag)
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
