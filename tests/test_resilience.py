"""Resilience layer: deadlines, budgets, rollback, the fallback ladder,
the spill-everywhere baseline, and structured CLI failures."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.core.allocator import AllocationError, URSAAllocator
from repro.core.kill import _exact_cover_masks, _greedy_cover_masks
from repro.core.measure import measure_all
from repro.graph import bitset
from repro.graph.dilworth import _inverse, width_matching
from repro.machine.model import MachineModel
from repro.pipeline import METHODS, PipelineError, build_dag, compile_trace
from repro.resilience import (
    Deadline,
    DeadlineExpired,
    active_deadline,
    deadline_scope,
)
from repro.resilience.fallback import (
    DegradationReport,
    ladder_for,
    spill_everywhere_rewrite,
    spill_everywhere_schedule,
)
from repro.scheduling.optimal import (
    anytime_schedule_length,
    optimal_schedule_length,
)
from repro.verify import verify_compilation
from tests.conftest import FIGURE2_SOURCE


def expired_deadline() -> Deadline:
    """A deadline that is already tripped (zero work budget)."""
    deadline = Deadline(work=0)
    deadline.tick()
    assert deadline.expired()
    return deadline


# ======================================================================
# Deadline semantics.
# ======================================================================
class TestDeadline:
    def test_unlimited_never_expires(self):
        deadline = Deadline()
        for _ in range(100):
            assert not deadline.tick()
        assert deadline.tripped is None

    def test_work_budget_is_sticky(self):
        deadline = Deadline(work=5)
        assert not deadline.tick(5)
        assert deadline.tick(1)
        assert deadline.tripped == "work"
        # Sticky: stays expired even though no further work is consumed.
        assert deadline.expired()

    def test_time_budget_uses_injected_clock(self):
        now = [0.0]
        deadline = Deadline(seconds=2.0, clock=lambda: now[0])
        assert not deadline.expired()
        now[0] = 1.9
        assert not deadline.expired()
        now[0] = 2.1
        assert deadline.expired()
        assert deadline.tripped == "time"

    def test_check_raises(self):
        deadline = expired_deadline()
        with pytest.raises(DeadlineExpired) as info:
            deadline.check("unit-test")
        assert info.value.site == "unit-test"

    def test_scope_stack(self):
        assert active_deadline() is None
        outer, inner = Deadline(), Deadline()
        with deadline_scope(outer):
            assert active_deadline() is outer
            with deadline_scope(inner):
                assert active_deadline() is inner
            assert active_deadline() is outer
        assert active_deadline() is None

    def test_none_scope_is_noop(self):
        with deadline_scope(None):
            assert active_deadline() is None


# ======================================================================
# Budgeted kill cover (satellite: no more unbounded exponential search).
# ======================================================================
def _cover_instance(n_values: int, n_nodes: int):
    """Small sets with heavy overlap: the greedy seed is not provably
    optimal from the root bound, so branch-and-bound must recurse.  Bit
    ``i`` of a cover mask is value ``i``."""
    universe = bitset.mask_of(range(n_values))
    covers = {
        node: bitset.mask_of((node + step) % n_values for step in (0, 1, 5))
        for node in range(n_nodes)
    }
    return universe, list(range(n_nodes)), covers


def _covered(covers, solution):
    union = 0
    for node in solution:
        union |= covers[node]
    return union


class TestKillCoverBudget:
    def test_small_instance_completes(self):
        universe, nodes, covers = _cover_instance(6, 5)
        solution, complete = _exact_cover_masks(universe, nodes, covers)
        assert complete
        assert _covered(covers, solution) == universe

    def test_node_budget_truncates_to_valid_cover(self):
        universe, nodes, covers = _cover_instance(12, 14)
        greedy = _greedy_cover_masks(universe, nodes, covers)
        solution, complete = _exact_cover_masks(
            universe, nodes, covers, node_budget=1
        )
        assert not complete
        # Best-so-far is the greedy seed: still a valid cover, never worse.
        assert len(solution) <= len(greedy)
        assert _covered(covers, solution) == universe

    def test_deadline_truncates(self):
        universe, nodes, covers = _cover_instance(12, 14)
        with deadline_scope(expired_deadline()):
            solution, complete = _exact_cover_masks(universe, nodes, covers)
        # The per-256-node deadline check may or may not fire before the
        # search ends on an instance this size; the cover must hold
        # regardless.
        assert _covered(covers, solution) == universe


# ======================================================================
# Anytime exact scheduling.
# ======================================================================
class TestAnytimeOptimal:
    def test_exact_when_unconstrained(self, fig2_dag, machine48):
        exact = optimal_schedule_length(fig2_dag, machine48)
        result = anytime_schedule_length(fig2_dag, machine48)
        assert not result.degraded
        assert result.source == "exact"
        assert result.length == exact

    def test_expired_deadline_degrades_to_list_schedule(
        self, fig2_dag, machine48
    ):
        exact = optimal_schedule_length(fig2_dag, machine48)
        with deadline_scope(expired_deadline()):
            result = anytime_schedule_length(fig2_dag, machine48)
        assert result.degraded
        assert result.source == "list-schedule"
        assert result.length is not None
        assert result.length >= exact  # heuristic upper bound

    def test_oversized_instance_degrades(self, machine48):
        dag = build_dag(kernel_big())
        result = anytime_schedule_length(dag, machine48, max_ops=4)
        assert result.degraded
        assert result.length is not None


def kernel_big():
    from repro.workloads.kernels import kernel

    return kernel("dot-product", unroll=4)


# ======================================================================
# Deadline-aware matching.
# ======================================================================
class TestMatchingDeadline:
    """The production matcher (the batched Kuhn replica, cold through
    ``width_matching`` and warm-started) stops early on an expired
    deadline, keeps a valid matching, and counts the degradation."""

    N = 8
    ADJ = [(1 << N) - 1] * N  # complete 8x8 bipartite graph

    def cold(self):
        _, match_left = width_matching(self.ADJ)
        return match_left, _inverse(match_left)

    def kuhn(self):
        # Warm start with half the lefts matched, as incremental
        # re-measurement resumes a cached matching.
        half = self.N // 2
        match = list(range(half)) + [-1] * (self.N - half)
        matcher = bitset.BitsetKuhn.from_state(self.ADJ, match, list(match))
        matcher.maximize()
        return matcher.match_left, matcher.match_right

    def test_unbudgeted_matching_is_maximum(self):
        for run in (self.cold, self.kuhn):
            match_left, _ = run()
            assert -1 not in match_left, run.__name__

    def test_expired_deadline_returns_partial_valid_matching(self):
        for run in (self.cold, self.kuhn):
            with obs.capture() as observer:
                with deadline_scope(expired_deadline()):
                    match_left, match_right = run()
            rights = [r for r in match_left if r >= 0]
            # Possibly non-maximum, but structurally a matching: no right
            # vertex matched twice, and both directions agree.
            assert len(set(rights)) == len(rights), run.__name__
            for left, right in enumerate(match_left):
                if right >= 0:
                    assert match_right[right] == left, run.__name__
            assert observer.counters.get("resilience.matching_degraded") == 1, (
                run.__name__
            )

    def test_measurement_survives_expired_deadline(self, fig2_dag, machine44):
        honest = measure_all(fig2_dag, machine44)
        with deadline_scope(expired_deadline()):
            degraded = measure_all(fig2_dag, machine44)
        by_key = {(r.kind, r.cls): r.required for r in honest}
        for r in degraded:
            # Fewer augmenting passes => more chains => never underestimates.
            assert r.required >= by_key[(r.kind, r.cls)]


# ======================================================================
# Allocator: non-converged paths (satellite) + deadline + rollback.
# ======================================================================
class TestAllocatorNonConverged:
    def test_max_iterations_zero_measures_only(self, fig2_dag):
        machine = MachineModel.homogeneous(2, 4)
        result = URSAAllocator(machine, max_iterations=0).run(fig2_dag)
        assert not result.converged
        assert result.iterations == 0
        assert result.records == []
        # Requirements are the untouched initial measurement.
        fresh = measure_all(fig2_dag, machine)
        assert [(r.kind, r.cls, r.required) for r in result.requirements] == [
            (r.kind, r.cls, r.required) for r in fresh
        ]
        assert result.total_excess > 0

    def test_max_iterations_one_is_consistent(self, fig2_dag):
        machine = MachineModel.homogeneous(2, 4)
        result = URSAAllocator(machine, max_iterations=1).run(fig2_dag)
        assert not result.converged
        assert result.iterations <= 1
        assert len(result.records) <= 1
        if result.records:
            record = result.records[0]
            assert record.iteration == 1
            # The recorded post-transform excess matches the requirements
            # carried on the result.
            assert record.excess_after == result.total_excess
            assert record.excess_before >= record.excess_after

    def test_non_converged_result_still_compiles(self, fig2_trace):
        machine = MachineModel.homogeneous(2, 4)
        from repro.core.assignment import assign

        dag = build_dag(fig2_trace)
        allocation = URSAAllocator(machine, max_iterations=0).run(dag)
        schedule = assign(allocation.dag, machine, allocation).schedule
        assert schedule.length > 0

    def test_expired_deadline_stops_loop(self, fig2_dag):
        machine = MachineModel.homogeneous(2, 4)
        with deadline_scope(expired_deadline()):
            result = URSAAllocator(machine).run(fig2_dag)
        assert result.degraded
        assert not result.converged
        assert any(
            event.startswith("deadline:") for event in result.degradation_events
        )
        assert result.records == []


class TestTransactionalRollback:
    # Every commit is a transaction: the commit gate rolls back one that
    # breaks an invariant and the run goes on from the pre-commit state.
    def test_corrupt_steps_are_rolled_back(self, fig2_dag, monkeypatch):
        # The first winner leaves a broken DAG behind: the gate's
        # verify_each packs catch it, the commit is rolled back and the
        # run goes on without it.  Only commits the gate accepted are
        # recorded or logged as ``allocate.commit``.
        machine = MachineModel.homogeneous(2, 4)
        allocator = URSAAllocator(machine, verify_each=True)
        real_step = allocator._step

        def bad_step(dag, requirements, iteration):
            step = real_step(dag, requirements, iteration)
            if step is not None and iteration == 1:
                victim = next(
                    name for name, uses in step.dag.value_uses.items() if uses
                )
                step.dag.value_uses[victim].append(
                    step.dag.value_uses[victim][0]
                )
            return step

        monkeypatch.setattr(allocator, "_step", bad_step)
        with obs.capture() as trace:
            result = allocator.run(fig2_dag)
        assert result.degraded
        assert result.degradation_events[0].startswith("rollback:")
        assert trace.counters.get("resilience.rollbacks", 0) == 1
        rollbacks = [
            event for event in trace.events
            if event["type"] == "event"
            and event["name"] == "resilience.rollback"
        ]
        assert len(rollbacks) == 1
        assert rollbacks[0]["iteration"] == 1
        assert "dag.duplicate-use" in rollbacks[0]["reason"]
        assert result.records, "the run goes on after the rollback"
        assert all(record.iteration > 1 for record in result.records)
        commits = obs.commit_log(trace.events)
        assert [(c["iteration"], c["description"]) for c in commits] == [
            (r.iteration, r.description) for r in result.records
        ]
        from repro.verify import verify_dag_state

        assert verify_dag_state(result.dag, machine=machine).ok


# ======================================================================
# Spill-everywhere baseline.
# ======================================================================
class TestSpillEverywhere:
    def test_rewrite_inserts_spill_reload_pairs(self, fig2_trace):
        flat = list(fig2_trace)
        rewritten = spill_everywhere_rewrite(flat, live_outs=())
        ops = [str(inst.op) for inst in rewritten]
        assert any("SPILL" in op for op in ops)
        assert any("RELOAD" in op for op in ops)
        assert len(rewritten) > len(flat)

    def test_compiles_and_verifies_on_tiny_machine(self, fig2_trace):
        machine = MachineModel.homogeneous(2, 4)
        result = compile_trace(
            fig2_trace, machine, method="spill-everywhere"
        )
        assert result.verified
        assert result.allocation is None
        assert result.stats.spill_ops > 0
        report = verify_compilation(result, remeasure=True)
        assert not report.errors(), report.render()

    def test_method_is_registered(self):
        assert "spill-everywhere" in METHODS

    def test_infeasible_live_outs_raise(self):
        machine = MachineModel.homogeneous(2, 2)
        dag = build_dag(FIGURE2_SOURCE, live_out=["E", "F", "G"])
        with pytest.raises(AllocationError):
            spill_everywhere_schedule(dag, machine)


# ======================================================================
# The escalation ladder.
# ======================================================================
class TestFallbackLadder:
    def test_ladder_orders(self):
        assert ladder_for("ursa") == (
            "ursa", "ursa-phased", "ursa-spill", "spill-everywhere"
        )
        assert ladder_for("ursa-phased") == (
            "ursa-phased", "ursa-spill", "spill-everywhere"
        )
        assert ladder_for("ursa-seq") == (
            "ursa-seq", "ursa-spill", "spill-everywhere"
        )
        assert ladder_for("naive") == ("naive", "spill-everywhere")
        assert ladder_for("spill-everywhere") == ("spill-everywhere",)

    def test_clean_compile_stays_on_first_rung(self, fig2_trace):
        machine = MachineModel.homogeneous(2, 4)
        result = compile_trace(fig2_trace, machine, resilient=True)
        assert result.method == "ursa"
        report = result.degradation
        assert isinstance(report, DegradationReport)
        assert not report.degraded
        assert report.attempts[0].outcome == "ok"

    def test_allocator_failure_escalates(self, fig2_trace, monkeypatch):
        machine = MachineModel.homogeneous(2, 4)

        def boom(self, dag):
            raise AllocationError("injected failure")

        monkeypatch.setattr(URSAAllocator, "run", boom)
        result = compile_trace(fig2_trace, machine, resilient=True)
        assert result.method == "spill-everywhere"
        assert result.verified
        report = result.degradation
        assert report.degraded
        assert report.final_method == "spill-everywhere"
        failed = [a for a in report.attempts if a.outcome == "failed"]
        assert len(failed) == 3  # every URSA rung
        assert all("AllocationError" in a.reason for a in failed)
        assert report.cost_delta == 0  # only one rung produced cycles

    def test_pack_error_reason_names_the_rule(self, fig2_trace, monkeypatch):
        machine = MachineModel.homogeneous(2, 4)
        real_run = URSAAllocator.run

        def repeated_record(self, dag):
            result = real_run(self, dag)
            result.records.append(result.records[-1])  # iteration repeats
            return result

        monkeypatch.setattr(URSAAllocator, "run", repeated_record)
        result = compile_trace(fig2_trace, machine, resilient=True)
        assert result.verified
        first = result.degradation.attempts[0]
        assert first.method == "ursa" and first.outcome == "degraded"
        assert "verify pack error(s) (alloc.records)" in first.reason

    def test_expired_deadline_skips_to_last_rung(self, fig2_trace):
        machine = MachineModel.homogeneous(2, 4)
        result = compile_trace(
            fig2_trace, machine, resilient=True, deadline=expired_deadline()
        )
        assert result.verified
        report = result.degradation
        assert report.deadline_tripped == "work"
        skipped = [a for a in report.attempts if a.outcome == "skipped"]
        assert len(skipped) == 3
        assert report.final_method == "spill-everywhere"

    def test_report_round_trips_to_dict(self, fig2_trace):
        machine = MachineModel.homogeneous(2, 4)
        result = compile_trace(fig2_trace, machine, resilient=True)
        payload = result.degradation.to_dict()
        assert payload["requested_method"] == "ursa"
        assert payload["final_method"] == "ursa"
        assert payload["degraded"] is False
        assert json.loads(json.dumps(payload)) == payload
        assert "degradation report" in result.degradation.render()


class TestTrippedDeadlineIsDegraded:
    """A deadline that trips may cut any search short, so the result
    must say so: every output that differs from the unhurried compile
    is marked degraded, with and without the ladder."""

    MACHINE = MachineModel.homogeneous(2, 6)

    @pytest.mark.parametrize("resilient", [False, True])
    def test_work_budget_sweep(self, fig2_trace, resilient):
        from repro.serve.cache import program_signature

        def outcome(result):
            return program_signature(result.program), result.cycles

        plain = outcome(compile_trace(fig2_trace, self.MACHINE, verify=False))
        differing = 0
        for work in range(0, 200, 2):
            result = compile_trace(
                fig2_trace, self.MACHINE, verify=False,
                resilient=resilient, deadline=Deadline(work=work),
            )
            if outcome(result) != plain:
                differing += 1
                assert result.degraded, f"work={work}: unmarked change"
                if resilient:
                    assert result.degradation.degraded, f"work={work}"
                    assert result.degradation.deadline_tripped is not None
        # The sweep must actually reach budgets that change the output.
        assert differing > 0


# ======================================================================
# Structured CLI failures (satellite).
# ======================================================================
class TestCLIExitCodes:
    def test_compiler_error_exits_2_with_one_line_diagnostic(
        self, monkeypatch, capsys
    ):
        from repro import cli

        def boom(*args, **kwargs):
            raise PipelineError("injected: first line\nsecond line")

        monkeypatch.setattr(cli, "compile_trace", boom)
        code = cli.main(["compile", "--kernel", "figure2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "PipelineError" in err
        assert "injected: first line" in err
        assert "second line" not in err

    def test_json_diagnostic_parses(self, monkeypatch, capsys):
        from repro import cli
        from repro.core.allocator import AllocationError

        def boom(*args, **kwargs):
            raise AllocationError("too many live-outs")

        monkeypatch.setattr(cli, "compile_trace", boom)
        code = cli.main(["compile", "--kernel", "figure2", "--json"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["error"]["type"] == "AllocationError"
        assert payload["error"]["command"] == "compile"
        assert payload["error"]["message"] == "too many live-outs"

    def test_resilient_flag_prints_report(self, capsys):
        from repro import cli

        code = cli.main(
            ["compile", "--kernel", "figure2", "--fus", "2", "--regs", "4",
             "--resilient"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degradation report" in out

    def test_deadline_flag_compiles(self, capsys):
        from repro import cli

        code = cli.main(
            ["compile", "--kernel", "figure2", "--fus", "2", "--regs", "4",
             "--deadline-ms", "10000", "--verify-each"]
        )
        assert code == 0
        assert "verified=True" in capsys.readouterr().out
