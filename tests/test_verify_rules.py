"""Tests for the ``repro.verify`` rule packs.

For every rule there is a deliberately-broken artifact asserting the
exact rule id fires, and for every pack a clean-pipeline test asserting
zero error-severity diagnostics over all ``METHODS``.  Report API
(render/JSON round trip) and the registry catalogue are covered at the
end.
"""

from __future__ import annotations

import re

import pytest

from repro.core.allocator import (
    AllocationResult,
    Policy,
    TransformationRecord,
    URSAAllocator,
)
from repro.core.measure import measure_all
from repro.graph.dag import DependenceDAG, EdgeKind
from repro.graph.hammock import Hammock, HammockAnalysis
from repro.ir.instructions import Addr
from repro.ir.opcodes import Opcode
from repro.ir.parser import parse_trace
from repro.machine.model import FUClass, MachineModel
from repro.machine.vliw import RegRef
from repro.pipeline import METHODS, compile_trace
from repro.verify import (
    RULES,
    Severity,
    VerifyError,
    VerifyReport,
    lint_dag,
    register,
    verify_allocation,
    verify_allocation_step,
    verify_compilation,
    verify_dag,
    verify_dag_state,
    verify_schedule,
    verify_source,
)
from repro.workloads.kernels import kernel

TRACE = """
a = load [x]
b = load [x+4]
c = a * b
d = a + b
e = c - d
store [y], e
"""


def make_dag(text: str = TRACE, live_out=()) -> DependenceDAG:
    return DependenceDAG.from_trace(parse_trace(text), live_out=live_out)


def uid_of(dag: DependenceDAG, name: str) -> int:
    return dag.value_defs[name]


def fired(report) -> set:
    return set(report.rules_fired())


def error_rules(report) -> set:
    return {d.code for d in report.errors()}


# ======================================================================
# dag.* pack
# ======================================================================
class TestDagRules:
    def test_clean(self):
        report = verify_dag(make_dag(), MachineModel.homogeneous(2, 8))
        assert report.ok and not report.diagnostics

    def test_cycle(self):
        dag = make_dag()
        dag._link(
            uid_of(dag, "e"), uid_of(dag, "c"), kind=EdgeKind.SEQ, reason="bad"
        )
        dag._invalidate()
        assert "dag.cycle" in error_rules(verify_dag(dag))

    def test_self_edge(self):
        dag = make_dag()
        dag._link(
            uid_of(dag, "c"), uid_of(dag, "c"), kind=EdgeKind.SEQ, reason="bad"
        )
        dag._invalidate()
        assert "dag.self-edge" in error_rules(verify_dag(dag))

    def test_uid_mismatch(self):
        dag = make_dag()
        uid = uid_of(dag, "c")
        dag._set_instruction(uid, dag.instruction(uid).fresh_copy())
        assert "dag.uid-mismatch" in error_rules(verify_dag(dag))

    def test_entry_exit(self):
        dag = make_dag()
        dag._unlink(dag.entry, uid_of(dag, "a"))
        dag._invalidate()
        assert "dag.entry-exit" in error_rules(verify_dag(dag))

    def test_def_before_use(self):
        dag = make_dag()
        del dag.value_defs["a"]
        assert "dag.def-before-use" in error_rules(verify_dag(dag))

    def test_missing_data_edge(self):
        dag = make_dag()
        dag._unlink(uid_of(dag, "a"), uid_of(dag, "c"))
        dag._invalidate()
        assert "dag.missing-data-edge" in error_rules(verify_dag(dag))

    def test_dangling_data_edge(self):
        dag = make_dag()
        dag._link(
            uid_of(dag, "c"), uid_of(dag, "d"), kind=EdgeKind.DATA, value="a"
        )
        dag._invalidate()
        assert "dag.dangling-data-edge" in error_rules(verify_dag(dag))

    def test_value_def(self):
        dag = make_dag()
        dag.value_defs["c"] = uid_of(dag, "d")
        assert "dag.value-def" in error_rules(verify_dag(dag))

    def test_value_use_stale(self):
        dag = make_dag()
        dag.value_uses["a"].append(uid_of(dag, "e"))
        assert "dag.value-use" in error_rules(verify_dag(dag))

    def test_duplicate_use(self):
        dag = make_dag()
        dag.value_uses["a"].append(uid_of(dag, "c"))
        assert "dag.duplicate-use" in error_rules(verify_dag(dag))

    def test_hammock(self):
        dag = make_dag()
        store_uid = dag.value_uses["e"][0]
        dag._unlink(store_uid, dag.exit)
        dag._invalidate()
        assert "dag.hammock" in error_rules(verify_dag(dag))

    def test_hammock_structure(self, monkeypatch):
        dag = make_dag()
        bogus = Hammock(
            entry=uid_of(dag, "c"),
            exit=uid_of(dag, "e"),
            nodes=frozenset(
                {uid_of(dag, "c"), uid_of(dag, "e"), uid_of(dag, "a")}
            ),
        )

        class Rigged(HammockAnalysis):
            def hammocks(self):
                return [bogus]

        monkeypatch.setattr(
            "repro.verify.dag_rules.HammockAnalysis", Rigged
        )
        assert "dag.hammock-structure" in error_rules(verify_dag(dag))

    def test_unknown_op(self):
        machine = MachineModel(
            "add-only",
            (FUClass("alu", 2, ops=frozenset({Opcode.ADD, Opcode.LOAD,
                                              Opcode.STORE, Opcode.SUB})),),
            {"gpr": 8},
        )
        report = verify_dag(make_dag(), machine)  # trace contains MUL
        assert "dag.unknown-op" in error_rules(report)


# ======================================================================
# alloc.* pack
# ======================================================================
def fake_allocation(dag, machine, requirements, converged, records=()):
    return AllocationResult(
        dag=dag,
        machine=machine,
        policy=Policy.INTEGRATED,
        records=list(records),
        requirements=list(requirements),
        converged=converged,
        iterations=len(list(records)),
    )


class TestAllocRules:
    def test_capacity_error_when_converged(self):
        dag = make_dag()
        machine = MachineModel.homogeneous(1, 2)
        requirements = measure_all(dag, machine)
        assert any(r.is_excessive for r in requirements)
        allocation = fake_allocation(dag, machine, requirements, converged=True)
        report = verify_allocation(allocation, remeasure=False)
        assert error_rules(report) & {"alloc.fu-capacity", "alloc.reg-capacity"}
        assert "alloc.converged-flag" in error_rules(report)

    def test_capacity_warning_when_delegated(self):
        # Leftover excess handed to assignment (§2) is a warning, not
        # an invariant violation.
        dag = make_dag()
        machine = MachineModel.homogeneous(1, 2)
        requirements = measure_all(dag, machine)
        allocation = fake_allocation(dag, machine, requirements, converged=False)
        report = verify_allocation(allocation, remeasure=False)
        assert report.ok
        assert {d.code for d in report.warnings()} & {
            "alloc.fu-capacity", "alloc.reg-capacity",
        }

    def test_converged_flag_without_excess(self):
        dag = make_dag()
        machine = MachineModel.homogeneous(4, 8)
        requirements = measure_all(dag, machine)
        assert not any(r.is_excessive for r in requirements)
        allocation = fake_allocation(dag, machine, requirements, converged=False)
        report = verify_allocation(allocation, remeasure=False)
        assert "alloc.converged-flag" in error_rules(report)

    def test_stale_measure(self):
        machine = MachineModel.homogeneous(2, 4)
        dag = DependenceDAG.from_trace(kernel("figure2"))
        real = URSAAllocator(machine).run(dag)
        assert real.records, "figure2 should need transformations"
        stale = fake_allocation(
            dag, machine, real.requirements, converged=real.converged
        )
        report = verify_allocation(stale, remeasure=True)
        assert "alloc.stale-measure" in error_rules(report)

    def test_orphaned_spill_load(self):
        dag = make_dag()
        spill_uid, _, _ = dag.insert_spill(
            "c", [uid_of(dag, "e")], Addr("%t", 0)
        )
        dag._remove_node(spill_uid)
        dag._invalidate()
        report = verify_allocation_step(dag, [])
        assert "alloc.spill-pairing" in error_rules(report)

    def test_spill_slot_clash(self):
        dag = make_dag()
        dag.insert_spill("c", [uid_of(dag, "e")], Addr("%t", 1))
        dag.insert_spill("d", [uid_of(dag, "e")], Addr("%t", 1))
        report = verify_allocation_step(dag, [])
        assert "alloc.spill-slot-clash" in error_rules(report)

    def test_kill_missing_entry(self):
        dag = make_dag()
        machine = MachineModel.homogeneous(2, 8)
        requirement = next(
            r for r in measure_all(dag, machine) if r.kind.value == "reg"
        )
        del requirement.kill.kill["c"]
        report = verify_allocation_step(dag, [requirement], machine)
        assert "alloc.kill-coverage" in error_rules(report)

    def test_kill_illegal_killer(self):
        dag = make_dag()
        machine = MachineModel.homogeneous(2, 8)
        requirement = next(
            r for r in measure_all(dag, machine) if r.kind.value == "reg"
        )
        # 'a' dies at c/d; its own definition is not a legal killer.
        requirement.kill.kill["a"] = uid_of(dag, "a")
        report = verify_allocation_step(dag, [requirement], machine)
        assert "alloc.kill-coverage" in error_rules(report)

    def test_record_chain(self):
        dag = make_dag()
        machine = MachineModel.homogeneous(4, 8)
        records = [
            TransformationRecord(1, "reg_seq", "x", 4, 3, 5, 5),
            TransformationRecord(1, "reg_seq", "y", 7, 0, 5, 5),
        ]
        allocation = fake_allocation(
            dag, machine, measure_all(dag, machine), True, records
        )
        report = verify_allocation(allocation, remeasure=False)
        assert "alloc.records" in error_rules(report)


# ======================================================================
# sched.* pack
# ======================================================================
def compiled(machine=None, method="ursa", live_out=()):
    machine = machine or MachineModel.homogeneous(2, 8)
    return compile_trace(
        TRACE, machine, method=method, live_out=live_out, verify=False
    )


def op_with_uid(schedule, uid):
    return next(op for op in schedule.ops if op.uid == uid)


class TestSchedRules:
    def test_clean(self):
        result = compiled()
        report = verify_schedule(
            result.schedule, dag=result.dag, machine=result.machine
        )
        assert report.ok

    def test_dependence_and_use_before_def(self):
        result = compiled()
        e_op = op_with_uid(result.schedule, uid_of(result.dag, "e"))
        c_op = op_with_uid(result.schedule, uid_of(result.dag, "c"))
        e_op.cycle = c_op.cycle  # issue before the multiply's writeback
        rules = error_rules(
            verify_schedule(result.schedule, result.dag, result.machine)
        )
        assert "sched.dependence" in rules
        assert "sched.use-before-def" in rules

    def test_unscheduled_op(self):
        result = compiled()
        uid = uid_of(result.dag, "e")
        result.schedule.ops = [
            op for op in result.schedule.ops if op.uid != uid
        ]
        rules = error_rules(
            verify_schedule(result.schedule, result.dag, result.machine)
        )
        assert "sched.unscheduled-op" in rules

    def test_fu_class_bad_index(self):
        result = compiled()
        result.schedule.ops[0].fu_index = 7
        rules = error_rules(verify_schedule(result.schedule))
        assert "sched.fu-class" in rules

    def test_fu_class_unknown(self):
        result = compiled()
        result.schedule.ops[0].fu_class = "warp"
        rules = error_rules(verify_schedule(result.schedule))
        assert "sched.fu-class" in rules

    def test_fu_overlap(self):
        result = compiled()
        a, b = result.schedule.ops[0], result.schedule.ops[-1]
        b.fu_class, b.fu_index, b.cycle = a.fu_class, a.fu_index, a.cycle
        rules = error_rules(verify_schedule(result.schedule))
        assert "sched.fu-overlap" in rules

    def test_reg_unassigned(self):
        result = compiled()
        del result.schedule.reg_assignment["c"]
        rules = error_rules(verify_schedule(result.schedule))
        assert "sched.reg-unassigned" in rules

    def test_reg_range(self):
        result = compiled()
        result.schedule.reg_assignment["c"] = RegRef(99, "gpr")
        rules = error_rules(verify_schedule(result.schedule))
        assert "sched.reg-range" in rules

    def test_reg_range_unknown_class(self):
        result = compiled()
        result.schedule.reg_assignment["c"] = RegRef(0, "vec")
        rules = error_rules(verify_schedule(result.schedule))
        assert "sched.reg-range" in rules

    def test_reg_overwrite(self):
        result = compiled()
        # a and b are both live until c/d read them: share one register.
        result.schedule.reg_assignment["b"] = result.schedule.reg_assignment["a"]
        rules = error_rules(verify_schedule(result.schedule))
        assert "sched.reg-overwrite" in rules

    def test_reg_pressure(self):
        # Four loads live at once, judged against a 2-register machine.
        wide = (
            "a = load [x]\nb = load [x+4]\nc = load [x+8]\nd = load [x+12]\n"
            "s1 = a + b\ns2 = c + d\ns3 = s1 + s2\nstore [y], s3"
        )
        result = compile_trace(
            wide, MachineModel.homogeneous(4, 8), method="ursa", verify=False
        )
        tiny = MachineModel.homogeneous(4, 2)
        rules = error_rules(verify_schedule(result.schedule, machine=tiny))
        assert "sched.reg-pressure" in rules

    def test_live_out(self):
        result = compiled(live_out=("e",))
        held = result.schedule.live_out_regs["e"]
        result.schedule.live_out_regs["e"] = RegRef(
            (held.index + 1) % 8, held.cls
        )
        rules = error_rules(verify_schedule(result.schedule))
        assert "sched.live-out" in rules


# ======================================================================
# lint.* pack
# ======================================================================
class TestLintRules:
    def test_unused_def(self):
        dag = make_dag("a = load [x]\nb = a + 1\nstore [y], a")
        report = lint_dag(dag)
        assert "lint.unused-def" in fired(report)
        assert report.ok  # warnings do not fail verification

    def test_dead_spill_slot(self):
        dag = make_dag()
        _, reload_uid, _ = dag.insert_spill(
            "c", [uid_of(dag, "e")], Addr("%t", 0)
        )
        dag._remove_node(reload_uid)
        dag._invalidate()
        assert "lint.dead-spill-slot" in fired(lint_dag(dag))

    def test_constant_branch(self):
        dag = make_dag(
            "c = 7\nx = load [a]\nif c goto OUT\nstore [b], x\nhalt"
        )
        assert "lint.constant-branch" in fired(lint_dag(dag))

    def test_zero_latency_edge(self):
        class ZeroLatency:
            @staticmethod
            def latency_of(inst):
                return 0

        dag = make_dag()
        assert "lint.zero-latency-edge" in fired(lint_dag(dag, ZeroLatency()))

    def test_redundant_seq_edge(self):
        dag = make_dag(
            "store [z], a\nstore [z], b\nstore [z], c"
        )
        assert "lint.redundant-seq-edge" in fired(lint_dag(dag))
        assert lint_dag(dag).ok  # INFO severity

    def test_clean_trace_has_no_warnings(self):
        report = lint_dag(make_dag(), MachineModel.homogeneous(2, 8))
        assert not report.diagnostics


# ======================================================================
# clean pipeline over all METHODS + verify_each
# ======================================================================
MACHINES = [
    MachineModel.homogeneous(2, 4),
    MachineModel.classed(alu=2, mul=1, mem=1, branch=1, alu_regs=6),
]


@pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kernel_name", ["figure2", "dot-product"])
def test_clean_pipeline_no_error_diagnostics(kernel_name, method, machine):
    result = compile_trace(kernel(kernel_name), machine, method=method)
    report = verify_compilation(result, remeasure=True)
    assert not report.errors(), report.render()


def test_verify_each_clean_on_kernels():
    machine = MachineModel.homogeneous(2, 4)
    for name in ("figure2", "estrin"):
        allocator = URSAAllocator(machine, verify_each=True)
        allocation = allocator.run(DependenceDAG.from_trace(kernel(name)))
        assert allocation.iterations >= 0  # ran without VerifyError


def test_verify_each_raises_on_corrupt_step(monkeypatch):
    # Sabotage the step committer so every "transform" leaves a broken
    # DAG behind; verify_each's check must raise at that exact commit.
    # The commit gate turns the raise into a rollback, so ``run`` only
    # lets a VerifyError out for a corrupt input DAG.
    machine = MachineModel.homogeneous(2, 4)
    allocator = URSAAllocator(machine, verify_each=True)
    real_step = allocator._step
    real_verify = allocator._verify_state
    raised = []

    def corrupt(dag):
        victim = next(name for name, uses in dag.value_uses.items() if uses)
        dag.value_uses[victim].append(dag.value_uses[victim][0])

    def bad_step(dag, requirements, iteration):
        step = real_step(dag, requirements, iteration)
        if step is not None:
            corrupt(step.dag)
        return step

    def spy_verify(dag, requirements, context):
        try:
            real_verify(dag, requirements, context)
        except VerifyError as exc:
            raised.append((context, str(exc)))
            raise

    monkeypatch.setattr(allocator, "_step", bad_step)
    monkeypatch.setattr(allocator, "_verify_state", spy_verify)
    result = allocator.run(DependenceDAG.from_trace(kernel("figure2")))
    assert raised, "verify_each never checked a corrupt commit"
    assert all(context == "commit" for context, _ in raised)
    assert all("dag.duplicate-use" in message for _, message in raised)
    # Every commit was corrupt, so every commit was rolled back.
    assert result.records == []
    assert len(result.degradation_events) == len(raised)

    broken = DependenceDAG.from_trace(kernel("figure2"))
    corrupt(broken)
    with pytest.raises(VerifyError) as err:
        URSAAllocator(machine, verify_each=True).run(broken)
    assert "dag.duplicate-use" in str(err.value)


def test_pipeline_static_checks_gate(monkeypatch):
    # A scheduler emitting an over-busy FU must be caught statically
    # (PipelineError naming the rule), before any simulation runs.
    from repro.scheduling.list_scheduler import ListScheduler

    real_run = ListScheduler.run

    def bad_run(self):
        schedule = real_run(self)
        if len(schedule.ops) >= 2:
            a, b = schedule.ops[0], schedule.ops[1]
            b.fu_class, b.fu_index, b.cycle = a.fu_class, a.fu_index, a.cycle
        return schedule

    monkeypatch.setattr(ListScheduler, "run", bad_run)
    from repro.pipeline import PipelineError

    with pytest.raises(PipelineError) as err:
        compile_trace(TRACE, MachineModel.homogeneous(2, 8), method="ursa")
    assert "sched.fu-overlap" in str(err.value)


def test_verify_source_clean():
    report = verify_source(
        kernel("figure2"), MachineModel.homogeneous(4, 8), method="ursa"
    )
    assert report.ok
    assert set(report.packs) == {"dag", "lint", "alloc", "sched"}


def test_verify_dag_state_flags_corruption():
    dag = make_dag()
    dag.value_uses["a"].append(uid_of(dag, "c"))
    report = verify_dag_state(dag, (), None, artifact="corrupted")
    assert "dag.duplicate-use" in error_rules(report)
    with pytest.raises(VerifyError):
        report.raise_if_errors()


# ======================================================================
# registry + report API
# ======================================================================
class TestCatalogueAndReport:
    def test_rule_ids_well_formed(self):
        assert RULES, "packs must register rules at import"
        for rule_id, info in RULES.items():
            assert re.fullmatch(r"(dag|alloc|sched|lint)\.[a-z][a-z-]*", rule_id)
            assert info.code == rule_id
            assert info.pack == rule_id.split(".")[0]
            assert isinstance(info.severity, Severity)
            assert info.summary

    def test_every_pack_registers_rules(self):
        packs = {info.pack for info in RULES.values()}
        assert packs == {"dag", "alloc", "sched", "lint"}

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register("dag.cycle", Severity.ERROR, "again")

    def test_report_render_and_counts(self):
        report = VerifyReport(artifact="unit")
        report.add(RULES["dag.cycle"].diag("boom", location="n1"))
        report.add(RULES["lint.unused-def"].diag("meh"))
        assert report.counts() == {"error": 1, "warning": 1, "info": 0}
        text = report.render()
        assert "dag.cycle" in text and "ERROR" in text and "@ n1" in text
        assert not report.ok

    def test_severity_override(self):
        diag = RULES["alloc.fu-capacity"].diag("d", severity=Severity.WARNING)
        assert diag.severity is Severity.WARNING

    def test_json_round_trip(self):
        report = VerifyReport(artifact="rt", packs=["dag"])
        report.add(
            RULES["dag.cycle"].diag("boom", location="n1", extra=3)
        )
        clone = VerifyReport.from_json(report.to_json())
        assert clone.to_dict() == report.to_dict()
        assert clone.diagnostics[0].data == {"extra": 3}

    def test_json_schema_guard(self):
        with pytest.raises(ValueError):
            VerifyReport.from_dict({"schema": 99, "diagnostics": []})

    def test_verify_error_message_truncates(self):
        report = VerifyReport(artifact="many")
        for i in range(6):
            report.add(RULES["dag.cycle"].diag(f"bad {i}"))
        err = VerifyError(report, context="ctx")
        assert "6 invariant violation(s)" in str(err)
        assert "(2 more)" in str(err)

    def test_docs_catalogue_in_sync(self):
        from pathlib import Path

        doc = Path(__file__).resolve().parent.parent / "docs" / "verification.md"
        text = doc.read_text()
        for rule_id in RULES:
            assert f"`{rule_id}`" in text, (
                f"{rule_id} missing from docs/verification.md"
            )
        documented = set(
            re.findall(r"`((?:dag|alloc|sched|lint)\.[a-z-]+)`", text)
        )
        assert documented <= set(RULES), (
            f"docs mention unknown rules: {documented - set(RULES)}"
        )

    def test_diagnostic_from_dict_defaults(self):
        diag = VerifyReport.from_row(
            {"rule": "dag.cycle", "severity": "error", "message": "m"}
        )
        assert diag.location is None and diag.data == {}
