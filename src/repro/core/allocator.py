"""The URSA driver: integrated allocation of registers and functional
units (paper Figure 1 and §5).

Repeatedly measures every resource, locates excessive chain sets, asks
each applicable transformation for candidates, *tentatively applies*
each candidate, re-measures, and commits the candidate that best
combines excess reduction with critical-path preservation.  Every
candidate — sequencing, spill and remat alike, in every mode (deadline
and chaos runs included) — is tried in place inside one journaled DAG
transaction and scored by
:class:`~repro.pm.incremental.IncrementalMeasurer`, then rolled back.
The winner is applied one way: ``candidate.apply()`` builds it as a
fresh DAG, so the pre-commit DAG is never mutated, and is measured once
(again only when the capacity audit rejects that measurement).  Every
commit then passes one gate — capacity audit, strict excess progress,
and with ``verify_each`` the invariant packs — or is rolled back and
its candidate banned; its record is built from what the gate accepted.
Policies:

* ``INTEGRATED`` — all transformations compete each iteration (§5's
  multi-resource heuristic).
* ``PHASED`` — both register transformations run to completion first,
  then FU sequencing (§5's recommended ordering for single-class
  machines).
* ``SEQ_ONLY`` / ``SPILL_ONLY`` — ablations restricting the register
  transformations to one kind.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import obs
from repro.core.measure import (
    ExcessiveChainSet,
    ResourceKind,
    ResourceRequirement,
    find_excessive_sets,
    measure_all,
)
from repro.core.transforms.base import TransformCandidate, TransformError
from repro.core.transforms.fu_seq import propose_fu_sequencing
from repro.core.transforms.reg_seq import propose_register_sequencing
from repro.core.transforms.remat import propose_rematerializations
from repro.core.transforms.spill import propose_spills, spill_slot_for
from repro.graph.dag import DependenceDAG
from repro.graph.dilworth import maximum_antichain
from repro.machine.model import MachineModel
from repro.pm.incremental import IncrementalMeasurer
from repro.resilience import budgets, chaos


class Policy(enum.Enum):
    INTEGRATED = "integrated"
    PHASED = "phased"
    SEQ_ONLY = "seq-only"
    SPILL_ONLY = "spill-only"


class AllocationError(Exception):
    """The program cannot fit the machine (e.g. too many live-outs)."""


@dataclass
class TransformationRecord:
    """One committed transformation, for reporting and ablation."""

    iteration: int
    kind: str
    description: str
    excess_before: int
    excess_after: int
    critical_path_before: int
    critical_path_after: int


@dataclass
class AllocationResult:
    """Outcome of running URSA's allocation phase."""

    dag: DependenceDAG
    machine: MachineModel
    policy: Policy
    records: List[TransformationRecord]
    requirements: List[ResourceRequirement]
    converged: bool
    iterations: int
    #: True when the run was cut short or repaired (deadline expiry,
    #: rolled-back commits); details in ``degradation_events``.
    degraded: bool = False
    degradation_events: Tuple[str, ...] = ()

    @property
    def total_excess(self) -> int:
        return sum(r.excess for r in self.requirements)

    def describe(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        if self.degraded:
            status += f" (degraded: {', '.join(self.degradation_events)})"
        lines = [
            f"URSA[{self.policy.value}] {status} in {self.iterations} "
            f"iterations, {len(self.records)} transformations"
        ]
        lines.extend(f"  {r.describe()}" for r in self.requirements)
        return "\n".join(lines)


class _Step(NamedTuple):
    """The winner of one step, applied and measured but not committed."""

    candidate: TransformCandidate
    dag: DependenceDAG
    requirements: List[ResourceRequirement]
    critical_path_before: int
    critical_path_after: int


class URSAAllocator:
    """Runs URSA's measurement/transformation loop for one machine."""

    def __init__(
        self,
        machine: MachineModel,
        policy: Policy = Policy.INTEGRATED,
        max_iterations: Optional[int] = None,
        verify_each: bool = False,
    ) -> None:
        self.machine = machine
        self.policy = policy
        self.max_iterations = max_iterations
        #: Run the ``dag.*`` + ``alloc.*`` rule packs on the input and
        #: in the commit gate (LLVM's ``-verify-each``): a bad input
        #: raises :class:`repro.verify.VerifyError`, a commit that breaks
        #: an invariant is rolled back and its candidate banned.
        self.verify_each = verify_each
        self._excess_weight = 1  # set per run from the DAG size
        self._banned: set = set()
        self._measurer: Optional[IncrementalMeasurer] = None
        #: candidates the current round's trials found illegal; read to
        #: say why a step fell back.
        self._illegal = 0

    # ------------------------------------------------------------------
    def run(self, dag: DependenceDAG) -> AllocationResult:
        """Allocate resources for ``dag`` (works on a copy)."""
        dag = dag.copy()
        self._check_feasible(dag)

        # FU excess can never exceed the op count; spill code at most
        # doubles it plus the merge budget, so this weight keeps register
        # excess lexicographically dominant for the whole run.
        self._excess_weight = 1 + 8 * (len(dag) + 16)
        self._measurer = IncrementalMeasurer(
            self.machine, register_weight=self._excess_weight
        )

        with obs.span("allocate.measure", iteration=0), chaos.decision(
            iteration=0, phase="commit"
        ):
            requirements = self._measure(dag)
        with chaos.decision(iteration=0):
            requirements = self._audited(dag, requirements)
        if self.verify_each:
            self._verify_state(dag, requirements, "input dag")
        initial_excess = sum(r.excess for r in requirements)
        # max_iterations=0 is a real budget ("measure only"), not unset.
        budget = (
            self.max_iterations
            if self.max_iterations is not None
            else 4 * initial_excess + 16
        )
        deadline = budgets.active_deadline()
        self._banned = set()

        records: List[TransformationRecord] = []
        degradation_events: List[str] = []
        iteration = 0
        converged = sum(r.excess for r in requirements) == 0

        while not converged and iteration < budget:
            chaos.expire_deadline(deadline, iteration + 1)
            if deadline is not None and deadline.expired():
                degradation_events.append(f"deadline:{deadline.tripped}")
                obs.count("resilience.allocator_deadline")
                obs.event(
                    "resilience.degraded",
                    site="allocator.run",
                    iteration=iteration,
                )
                break
            iteration += 1
            with obs.span("allocate.reduce", iteration=iteration), (
                chaos.decision(iteration=iteration)
            ):
                step = self._step(dag, requirements, iteration)
            if step is None:
                break
            candidate = step.candidate
            # Every winner is built as a fresh DAG, so the pre-commit
            # ``dag, requirements`` are the checkpoint and rolling back is
            # just keeping them.
            with chaos.decision(iteration=iteration):
                failure, new_reqs = self._commit_failure(
                    step.dag, step.requirements, requirements
                )
            if failure is not None:
                self._banned.add((candidate.kind, candidate.description))
                obs.count("resilience.rollbacks")
                degradation_events.append(f"rollback:{candidate.kind}")
                obs.event(
                    "resilience.rollback",
                    iteration=iteration,
                    kind=candidate.kind,
                    description=candidate.description,
                    reason=failure,
                )
                continue
            record = TransformationRecord(
                iteration=iteration,
                kind=candidate.kind,
                description=candidate.description,
                excess_before=sum(r.excess for r in requirements),
                excess_after=sum(r.excess for r in new_reqs),
                critical_path_before=step.critical_path_before,
                critical_path_after=step.critical_path_after,
            )
            obs.event(
                "allocate.commit",
                iteration=iteration,
                kind=record.kind,
                description=record.description,
                spills_added=candidate.spills_added,
                excess_before=record.excess_before,
                excess_after=record.excess_after,
                cp_before=record.critical_path_before,
                cp_after=record.critical_path_after,
            )
            dag, requirements = step.dag, new_reqs
            records.append(record)
            converged = record.excess_after == 0

        obs.event(
            "allocate.done",
            policy=self.policy.value,
            converged=converged,
            iterations=iteration,
            transformations=len(records),
            excess=sum(r.excess for r in requirements),
            degraded=bool(degradation_events),
        )
        return AllocationResult(
            dag=dag,
            machine=self.machine,
            policy=self.policy,
            records=records,
            requirements=requirements,
            converged=converged,
            iterations=iteration,
            degraded=bool(degradation_events),
            degradation_events=tuple(degradation_events),
        )

    # ------------------------------------------------------------------
    def _commit_failure(
        self,
        new_dag: DependenceDAG,
        new_reqs: List[ResourceRequirement],
        old_reqs: Sequence[ResourceRequirement],
    ) -> Tuple[Optional[str], List[ResourceRequirement]]:
        """The commit gate: (reason to roll back or None, requirements to
        carry forward and record).

        Every commit passes it, in every mode.  The measurements are
        audited (:meth:`_audited`), then must show the same strict
        weighted-excess improvement ``_best_candidate`` promised, and —
        with ``verify_each`` — pass the invariant packs, so a commit
        that breaks one is rolled back rather than raised.
        """
        new_reqs = self._audited(new_dag, new_reqs)
        if self._weighted_excess(new_reqs) >= self._weighted_excess(old_reqs):
            return "commit shows no excess progress", new_reqs
        if self.verify_each:
            from repro.verify import VerifyError  # lazy: optional mode

            try:
                self._verify_state(new_dag, new_reqs, "commit")
            except VerifyError as exc:
                reason = str(exc).splitlines()[0] if str(exc) else "VerifyError"
                return f"verify_each: {reason}", new_reqs
        return None, new_reqs

    def _audited(
        self, dag: DependenceDAG, requirements: List[ResourceRequirement]
    ) -> List[ResourceRequirement]:
        """``requirements``, or a re-measurement of ``dag`` when one of
        them bends ``available``.

        Every ``available`` field is re-derivable from the machine model
        for free, and a lying measurement (exactly what the chaos
        harness injects) has to bend it to hide or invent excess —
        hiding a *real* excess forces ``available = required`` above the
        true capacity.  So a clean measurement costs two integer
        comparisons per requirement, and only a failed audit spends a
        full measurement.  That re-measurement is not audited again.
        """
        if all(
            r.available == self._capacity(r.kind, r.cls) for r in requirements
        ):
            return requirements
        obs.count("resilience.measurement_rejected")
        obs.event("resilience.degraded", site="allocator.measurement")
        with chaos.decision(phase="audit"):
            return self._measure(dag)

    def _capacity(self, kind: ResourceKind, cls: str) -> int:
        """The machine's true capacity for one resource class."""
        if kind is ResourceKind.FUNCTIONAL_UNIT:
            return self.machine.fu_class(cls).count
        return self.machine.registers[cls]

    # ------------------------------------------------------------------
    def _verify_state(
        self,
        dag: DependenceDAG,
        requirements: Sequence[ResourceRequirement],
        context: str,
    ) -> None:
        from repro.verify import verify_dag_state  # lazy: optional mode

        report = verify_dag_state(
            dag, requirements, self.machine, artifact=context
        )
        report.raise_if_errors(f"verify_each {context}")

    # ------------------------------------------------------------------
    def _check_feasible(self, dag: DependenceDAG) -> None:
        by_class: Dict[str, int] = {}
        for name in dag.live_out:
            cls = self.machine.reg_class_of(name)
            by_class[cls] = by_class.get(cls, 0) + 1
        for cls, needed in by_class.items():
            if needed > self.machine.registers.get(cls, 0):
                raise AllocationError(
                    f"{needed} live-out values need class {cls!r} but the "
                    f"machine has {self.machine.registers.get(cls, 0)} registers"
                )

    def _step(
        self,
        dag: DependenceDAG,
        requirements: List[ResourceRequirement],
        iteration: int,
    ) -> Optional[_Step]:
        """Evaluate candidates and apply the best; None when stuck.

        The returned DAG is always a fresh one: ``dag`` is never mutated.
        Whether the winner is committed is the gate's call (see ``run``).
        """
        excessive = [r for r in requirements if r.is_excessive]
        active = self._active_requirements(excessive)
        if not active:
            return None

        registers_settled = not any(
            r.is_excessive
            for r in requirements
            if r.kind is ResourceKind.REGISTER
        )
        depth = dag.asap()
        candidates: List[TransformCandidate] = []
        for requirement in active:
            for ecs in find_excessive_sets(dag, requirement):
                candidates.extend(self._proposals(dag, ecs, depth))
            if (
                requirement.kind is ResourceKind.FUNCTIONAL_UNIT
                and registers_settled
            ):
                # §5: register transformations first; chaining the FU
                # excess along a concrete schedule is the finishing move
                # and would over-constrain register work done after it.
                candidates.extend(
                    self._schedule_guided_fu_candidates(dag, requirement)
                )

        current_weighted = self._weighted_excess(requirements)
        current_cp = dag.critical_path_length(self.machine.latency_of)
        self._measurer.rebase(dag, requirements)

        self._illegal = 0
        with chaos.decision(phase="trial"):
            best = self._best_candidate(dag, candidates, current_weighted)
        if best is None:
            # The chain-set proposals made no global progress; fall back
            # to whole-decomposition chain merging (guaranteed to bound
            # the width when its edges are admissible, but blunter on the
            # critical path), then to direct antichain surgery — the
            # leftovers the paper hands to assignment.
            obs.count("allocate.fallback_rounds")
            if not candidates:
                obs.count("allocate.fallback.no_proposals")
            elif self._illegal == len(candidates):
                obs.count("allocate.fallback.all_illegal")
            else:
                obs.count("allocate.fallback.none_improved")
            fallbacks: List[TransformCandidate] = []
            for requirement in active:
                fallbacks.extend(
                    self._global_merge_candidates(dag, requirement, depth)
                )
                fallbacks.extend(
                    self._fallback_candidates(dag, requirement, depth)
                )
            with chaos.decision(phase="fallback"):
                best = self._best_candidate(dag, fallbacks, current_weighted)
        if best is None:
            obs.event("allocate.stuck", iteration=iteration)
            return None
        score, candidate = best
        # The trial rolled its edits back: commit the winner as a copy
        # plus its edits, which also runs the chaos transform hook, and
        # take one full measurement of it — excesses and Kill() carried
        # into the next iteration always come from a from-scratch
        # measure, and the chains of a class the next step attacks are
        # built from that DAG before its exact width is read.
        with chaos.decision(phase="commit"):
            new_dag = candidate.apply()
            new_reqs = self._measure(new_dag)
        return _Step(candidate, new_dag, new_reqs, current_cp, score[1])

    def _weighted_excess(self, requirements: Sequence[ResourceRequirement]) -> int:
        """Register excess dominates FU excess lexicographically.

        Spill code adds SPILL/RELOAD nodes, which can *raise* the FU
        requirement while lowering the register requirement (§5 notes
        exactly this interaction).  FU excess is always repairable by
        sequencing, so register progress must not be vetoed by it.

        The weight is fixed for the whole run (``self._excess_weight``):
        re-deriving it from the current requirements would let a step
        trade a register *increase* against a large FU decrease.
        """
        weight = self._excess_weight
        total = 0
        for r in requirements:
            if r.kind is ResourceKind.REGISTER:
                total += weight * r.excess
            else:
                total += r.excess
        return total

    def _best_candidate(
        self,
        dag: DependenceDAG,
        candidates: List[TransformCandidate],
        current_excess: int,
    ) -> Optional[Tuple[Tuple, TransformCandidate]]:
        """Tentatively apply every candidate; keep the best improver.

        Every candidate is scored *in place* by the incremental measurer
        (journaled transaction, rollback, no DAG copy); the caller
        commits the winner.  Returns ``(score, candidate)``, where the
        score is ``(weighted_excess, critical_path, spills_added,
        preference)``, or None when nothing strictly improves
        ``current_excess``.  The measurer was rebased on ``dag`` and its
        weighted excess, so the trials read both from there.  Each trial
        also gets the best weighted excess so far: a candidate above it
        cannot win (the score must be strictly lower), so its trial may
        stop scoring early.  The signature is the one the clone-scoring
        test oracle (``repro.reference.clone_best_candidate``) shares.
        """
        best: Optional[Tuple[Tuple, TransformCandidate]] = None
        obs.count("allocate.candidates", len(candidates))
        deadline = budgets.active_deadline()
        for index, candidate in enumerate(candidates):
            if deadline is not None and deadline.tick():
                # Keep whatever improver we already found; the run loop
                # will notice the expiry and stop with best-so-far.
                obs.count("resilience.candidates_truncated")
                obs.event("resilience.degraded", site="allocator.candidates")
                break
            if (candidate.kind, candidate.description) in self._banned:
                continue
            try:
                with chaos.decision(candidate=index):
                    outcome = self._measurer.trial(
                        candidate, None if best is None else best[0][0]
                    )
            except TransformError:
                obs.count("allocate.candidates_illegal")
                self._illegal += 1
                continue
            if outcome is None:
                continue  # no progress, or worse than the best so far
            score = (
                outcome.weighted_excess,
                outcome.critical_path,
                candidate.spills_added,
                candidate.preference,
            )
            if best is None or score < best[0]:
                best = (score, candidate)
        return best

    def _measure(self, dag: DependenceDAG) -> List[ResourceRequirement]:
        """``measure_all``, then the chains of every class the next step
        will attack, so the exact widths read before that step (the
        budget, the commit record) come off those chains: an excessive
        class runs one matching, not a width matching and then its
        hammock-prioritized one."""
        requirements = measure_all(dag, self.machine)
        excessive = [r for r in requirements if r.is_excessive]
        for requirement in self._active_requirements(excessive):
            requirement.decomposition
        return requirements

    def _active_requirements(
        self, excessive: List[ResourceRequirement]
    ) -> List[ResourceRequirement]:
        """Policy-dependent subset of excessive requirements to attack."""
        if self.policy is Policy.PHASED:
            registers = [
                r for r in excessive if r.kind is ResourceKind.REGISTER
            ]
            return registers or excessive
        return excessive

    def _proposals(
        self,
        dag: DependenceDAG,
        ecs: ExcessiveChainSet,
        depth: Dict[int, int],
    ) -> List[TransformCandidate]:
        """Every proposal for ``ecs``; ``depth`` is ``dag.asap()``."""
        if ecs.kind is ResourceKind.FUNCTIONAL_UNIT:
            return propose_fu_sequencing(dag, ecs, depth)
        proposals: List[TransformCandidate] = []
        if self.policy is not Policy.SPILL_ONLY:
            proposals.extend(propose_register_sequencing(dag, ecs, depth))
        if self.policy is not Policy.SEQ_ONLY:
            proposals.extend(propose_rematerializations(dag, ecs, depth))
            proposals.extend(propose_spills(dag, ecs, depth))
        return proposals

    # ------------------------------------------------------------------
    # Schedule-guided chaining: chain ops by the unit each would run on
    # in a good (FU-constrained, register-unconstrained) list schedule.
    # Every unit's issue order is a chain, so the class's width drops to
    # its unit count, and the critical path equals that schedule's
    # length — the best execution-time bound any sequentialization of
    # this resource can promise.
    # ------------------------------------------------------------------
    def _schedule_guided_fu_candidates(
        self, dag: DependenceDAG, requirement: ResourceRequirement
    ) -> List[TransformCandidate]:
        if not requirement.is_excessive:
            return []
        from repro.scheduling.list_scheduler import ListScheduler, ScheduleError

        try:
            schedule = ListScheduler(
                dag, self.machine, respect_registers=False
            ).run()
        except ScheduleError:
            return []

        per_unit: Dict[int, List[Tuple[int, int]]] = {}
        for op in schedule.ops:
            if op.fu_class != requirement.cls or op.uid is None:
                continue
            per_unit.setdefault(op.fu_index, []).append((op.cycle, op.uid))

        edges: List[Tuple[int, int]] = []
        for unit_ops in per_unit.values():
            unit_ops.sort()
            for (_, earlier), (_, later) in zip(unit_ops, unit_ops[1:]):
                if not dag.reaches(earlier, later):
                    edges.append((earlier, later))
        if not edges:
            return []

        def edits(target: DependenceDAG) -> None:
            for src, dst in edges:
                target.add_sequence_edge(src, dst, reason="ursa-fu-schedule")

        return [
            TransformCandidate(
                kind="fu-seq-schedule",
                description=(
                    f"chain {requirement.cls} ops along a list schedule's "
                    f"unit assignment ({len(edges)} edges)"
                ),
                base_dag=dag,
                edits=edits,
                preference=1,
            )
        ]

    # ------------------------------------------------------------------
    # Global chain merging: concatenate the minimum decomposition's
    # chains down to ``available`` super-chains.  When every merge edge
    # is admissible this *guarantees* the width bound (the elements are
    # covered by ``available`` chains), which the localized excessive-set
    # transformations cannot always promise.
    # ------------------------------------------------------------------
    def _global_merge_candidates(
        self,
        dag: DependenceDAG,
        requirement: ResourceRequirement,
        depth: Dict[int, int],
    ) -> List[TransformCandidate]:
        chains = [list(c) for c in requirement.decomposition.chains if c]
        excess = requirement.required - requirement.available
        if excess <= 0 or len(chains) < 2:
            return []

        kill = requirement.kill

        def tail_node(chain) -> Optional[int]:
            element = chain[-1]
            if requirement.kind is ResourceKind.FUNCTIONAL_UNIT:
                return element
            killer = kill[element]
            return None if killer == dag.exit else killer

        def head_node(chain) -> int:
            return requirement.element_node[chain[0]]

        indices = list(range(len(chains)))
        tails = {i: tail_node(chains[i]) for i in indices}
        heads = {i: head_node(chains[i]) for i in indices}
        tail_order = sorted(
            (i for i in indices if tails[i] is not None),
            key=lambda i: (depth.get(tails[i], 0), i),
        )
        head_order = sorted(indices, key=lambda i: (-depth.get(heads[i], 0), i))

        parent = list(indices)

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        has_out: set = set()
        has_in: set = set()
        edges: List[Tuple[int, int]] = []
        for t_idx in tail_order:
            if len(edges) >= excess:
                break
            if t_idx in has_out:
                continue
            for h_idx in head_order:
                if h_idx == t_idx or h_idx in has_in:
                    continue
                if find(h_idx) == find(t_idx):
                    continue
                src, dst = tails[t_idx], heads[h_idx]
                if src == dst or dag.reaches(dst, src):
                    continue
                edges.append((src, dst))
                has_out.add(t_idx)
                has_in.add(h_idx)
                parent[find(h_idx)] = find(t_idx)
                break
        def make_edits(edge_list: List[Tuple[int, int]]):
            def edits(target: DependenceDAG) -> None:
                for src, dst in edge_list:
                    target.add_sequence_edge(src, dst, reason="ursa-chain-merge")

            return edits

        results: List[TransformCandidate] = []
        if edges:
            results.append(
                TransformCandidate(
                    kind=f"{requirement.kind.value}-chain-merge",
                    description=(
                        f"merge {requirement.kind.value}:{requirement.cls} "
                        f"decomposition chains via "
                        + ", ".join(f"{a}->{b}" for a, b in edges)
                    ),
                    base_dag=dag,
                    edits=make_edits(edges),
                    preference=1,
                )
            )

        weave = self._interleaved_merge_edges(dag, requirement, depth)
        if weave:
            results.append(
                TransformCandidate(
                    kind=f"{requirement.kind.value}-chain-weave",
                    description=(
                        f"interleave {requirement.kind.value}:{requirement.cls} "
                        f"chains ({len(weave)} sequence edges)"
                    ),
                    base_dag=dag,
                    edits=make_edits(weave),
                    preference=2,
                )
            )
        return results

    def _interleaved_merge_edges(
        self,
        dag: DependenceDAG,
        requirement: ResourceRequirement,
        depth: Dict[int, int],
    ) -> List[Tuple[int, int]]:
        """Weave chains together element-by-element until only
        ``available`` chains remain.

        Unlike the tail->head concatenation, interleaving succeeds even
        when the chains overlap in time; it guarantees the width bound
        when all realization edges are admissible (apply() re-validates).
        """
        order = requirement.order
        chains = [list(c) for c in requirement.decomposition.chains if c]
        available = requirement.available
        if len(chains) <= available:
            return []
        kill = requirement.kill

        def element_depth(e) -> int:
            return depth.get(requirement.element_node[e], 0)

        def realization_edge(p, q) -> Optional[Tuple[int, int]]:
            """The DAG edge that makes (p, q) a reuse pair."""
            if requirement.kind is ResourceKind.FUNCTIONAL_UNIT:
                return (p, q)
            killer = kill[p]
            if killer == dag.exit:
                return None
            return (killer, requirement.element_node[q])

        # Merge the two shallowest-head chains repeatedly.
        chains.sort(key=lambda c: element_depth(c[0]))
        edges: List[Tuple[int, int]] = []
        while len(chains) > available:
            first = chains.pop(0)
            second = chains.pop(0)
            merged: List = []
            i = j = 0
            ok = True
            while i < len(first) and j < len(second):
                a, b = first[i], second[j]
                if order.less(a, b):
                    merged.append(a)
                    i += 1
                elif order.less(b, a):
                    merged.append(b)
                    j += 1
                else:
                    # Incomparable: schedule the shallower one first and
                    # record the constraint that realizes the order.
                    if element_depth(a) <= element_depth(b):
                        take, i = a, i + 1
                        other = b
                    else:
                        take, j = b, j + 1
                        other = a
                    edge = realization_edge(take, other)
                    if edge is None:
                        ok = False
                        break
                    edges.append(edge)
                    merged.append(take)
            if not ok:
                return []
            merged.extend(first[i:])
            merged.extend(second[j:])
            chains.append(merged)
            chains.sort(key=lambda c: element_depth(c[0]))
        return edges

    # ------------------------------------------------------------------
    # Fallbacks: used when trimming leaves no excessive chain set but
    # the global width still exceeds the machine (the paper delegates
    # such leftovers to assignment; we first try simple antichain
    # surgery, then give up to assignment-phase spilling).
    # ------------------------------------------------------------------
    def _fallback_candidates(
        self,
        dag: DependenceDAG,
        requirement: ResourceRequirement,
        depth: Dict[int, int],
    ) -> List[TransformCandidate]:
        node = requirement.element_node
        # A total order: the antichain is a set, and its iteration order
        # must not leak into the output (it varies with PYTHONHASHSEED).
        antichain = sorted(
            maximum_antichain(requirement.order),
            key=lambda e: (depth[node[e]], node[e], e),
        )
        if len(antichain) <= requirement.available:
            return []
        candidates: List[TransformCandidate] = []
        all_pairs = list(itertools.combinations(antichain, 2))
        if len(all_pairs) > 40:
            stride = len(all_pairs) // 40 + 1
            pairs = all_pairs[::stride]
        else:
            pairs = all_pairs

        if requirement.kind is ResourceKind.FUNCTIONAL_UNIT:
            for a, b in pairs:
                src, dst = requirement.element_node[a], requirement.element_node[b]
                if dag.would_cycle(src, dst):
                    src, dst = dst, src
                    if dag.would_cycle(src, dst):
                        continue

                def make_edits(s: int, d: int):
                    def edits(target: DependenceDAG) -> None:
                        target.add_sequence_edge(s, d, reason="ursa-fallback-seq")

                    return edits

                candidates.append(
                    TransformCandidate(
                        kind="fu-seq-fallback",
                        description=f"sequence antichain pair {src}->{dst}",
                        base_dag=dag,
                        edits=make_edits(src, dst),
                        preference=2,
                    )
                )
            return candidates

        # Registers: delay one antichain value behind another's death,
        # or spill it outright.
        kill = requirement.kill
        for u, w in pairs:
            killer = kill[u]
            target_def = requirement.element_node[w]
            if killer == dag.exit or dag.would_cycle(killer, target_def):
                continue

            def make_edits(s: int, d: int):
                def edits(target: DependenceDAG) -> None:
                    target.add_sequence_edge(s, d, reason="ursa-fallback-regseq")

                return edits

            candidates.append(
                TransformCandidate(
                    kind="reg-seq-fallback",
                    description=f"define {w} after {u} dies ({killer}->{target_def})",
                    base_dag=dag,
                    edits=make_edits(killer, target_def),
                    preference=2,
                )
            )

        values = requirement.values or {}
        if self.policy is not Policy.SEQ_ONLY:
            for u in antichain[: min(len(antichain), 4)]:
                info = values.get(u)
                if info is None or not info.use_uids:
                    continue
                others = [w for w in antichain if w != u]
                delay_after = [
                    kill[w] for w in others if kill[w] != dag.exit
                ]
                if not delay_after:
                    continue

                def make_spill(victim: str, uses: Tuple[int, ...], after: List[int], def_uid: int):
                    def edits(target: DependenceDAG) -> None:
                        usable = [
                            use
                            for use in uses
                            if not any(target.reaches(use, a) for a in after)
                        ]
                        if not usable:
                            raise TransformError("no delayable uses")
                        spill_uid, reload_uid, _ = target.insert_spill(
                            victim, usable, spill_slot_for(target, def_uid)
                        )
                        delayed = False
                        for node in after:
                            if not target.would_cycle(node, reload_uid):
                                target.add_sequence_edge(
                                    node, reload_uid, reason="ursa-fallback-spill"
                                )
                                delayed = True
                        if not delayed:
                            raise TransformError("reload could not be delayed")

                    return edits

                candidates.append(
                    TransformCandidate(
                        kind="spill-fallback",
                        description=f"spill antichain value {u}",
                        base_dag=dag,
                        edits=make_spill(
                            u, info.use_uids, delay_after,
                            requirement.element_node[u],
                        ),
                        spills_added=1,
                        preference=3,
                    )
                )
        return candidates


def allocate(
    dag: DependenceDAG,
    machine: MachineModel,
    policy: Policy = Policy.INTEGRATED,
    max_iterations: Optional[int] = None,
) -> AllocationResult:
    """Convenience wrapper around :class:`URSAAllocator`."""
    return URSAAllocator(machine, policy, max_iterations).run(dag)
