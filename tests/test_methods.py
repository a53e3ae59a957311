"""The declarative backend registry (``repro.methods``), the exact
branch-and-bound backend, and the portfolio racer."""

from __future__ import annotations

import pytest

from repro.graph.dag import DependenceDAG
from repro.machine.model import MachineModel
from repro.methods import (
    Backend,
    UnknownMethodError,
    backends,
    catalogue,
    default_compare_methods,
    ladder_for,
    method_names,
    resolve,
)
from repro.methods.bnb import ExactSearchError, bnb_compile
from repro.pipeline import METHODS, PipelineError, compile_trace
from repro.resilience.budgets import Deadline, DeadlineExpired, deadline_scope
from repro.scheduling.list_scheduler import ListScheduler, ScheduleError
from repro.scheduling.optimal import optimal_schedule_length
from repro.workloads.kernels import kernel
from repro.workloads.random_dags import random_layered_trace


# ======================================================================
# The registry contract.
# ======================================================================
class TestRegistry:
    def test_method_names_cover_all_backends(self):
        assert method_names() == tuple(b.name for b in backends())
        assert METHODS == method_names()

    def test_every_backend_has_exactly_one_entrypoint(self):
        for backend in backends():
            assert (backend.policy is None) != (backend.schedule_pass is None)

    def test_backend_rejects_zero_or_two_entrypoints(self):
        with pytest.raises(ValueError):
            Backend(name="x", summary="no entrypoint")
        with pytest.raises(ValueError):
            Backend(
                name="x", summary="both", policy=object(),
                schedule_pass=lambda dag, machine, options: None,
            )

    def test_unknown_method_is_structured(self):
        with pytest.raises(UnknownMethodError) as excinfo:
            resolve("bogus")
        assert excinfo.value.method == "bogus"
        assert excinfo.value.known == method_names()
        assert "known methods" in str(excinfo.value)
        assert "ursa" in str(excinfo.value)

    def test_unknown_method_maps_to_pipeline_error(self):
        with pytest.raises(PipelineError, match="known methods"):
            compile_trace(
                kernel("figure2"), MachineModel.homogeneous(4, 8),
                method="bogus",
            )

    def test_default_compare_set_from_registry(self):
        assert default_compare_methods() == (
            "ursa", "prepass", "postpass", "goodman-hsu"
        )
        assert default_compare_methods() == tuple(
            b.name for b in backends() if b.default_compare
        )

    def test_catalogue_shape(self):
        entries = catalogue()
        assert [e["name"] for e in entries] == list(method_names())
        for entry in entries:
            assert set(entry) >= {
                "name", "summary", "capabilities", "fallback", "ladder",
            }
        by_name = {e["name"]: e for e in entries}
        assert by_name["bnb-exact"]["capabilities"]["exact"]
        assert by_name["spill-everywhere"]["capabilities"]["always_feasible"]


# ======================================================================
# Ladder equivalence: the registry must reproduce the legacy
# ``resilience.fallback._LADDER`` byte for byte.
# ======================================================================
LEGACY_LADDERS = {
    "ursa": ("ursa", "ursa-phased", "ursa-spill", "spill-everywhere"),
    "ursa-phased": ("ursa-phased", "ursa-spill", "spill-everywhere"),
    "ursa-seq": ("ursa-seq", "ursa-spill", "spill-everywhere"),
    "ursa-spill": ("ursa-spill", "spill-everywhere"),
    "prepass": ("prepass", "spill-everywhere"),
    "postpass": ("postpass", "spill-everywhere"),
    "goodman-hsu": ("goodman-hsu", "spill-everywhere"),
    "naive": ("naive", "spill-everywhere"),
    "spill-everywhere": ("spill-everywhere",),
}


class TestLadders:
    @pytest.mark.parametrize("method,expected", sorted(LEGACY_LADDERS.items()))
    def test_registry_matches_legacy_ladder(self, method, expected):
        assert ladder_for(method) == expected
        assert resolve(method).ladder() == expected

    def test_fallback_module_reexports_registry_ladder(self):
        from repro.resilience.fallback import ladder_for as fallback_ladder_for

        assert fallback_ladder_for is ladder_for

    def test_unknown_method_has_no_ladder(self):
        # The legacy ladder_for silently fell back to the unknown method
        # alone; registry resolution makes that a structured error.
        with pytest.raises(UnknownMethodError):
            ladder_for("bogus")

    def test_every_ladder_ends_always_feasible(self):
        for backend in backends():
            if backend.name == "bnb-exact":
                continue  # terminates in ursa's ladder via its fallback
            last = resolve(backend.ladder()[-1])
            assert last.always_feasible or last.name == backend.name

    def test_bnb_ladder_escalates_to_heuristics(self):
        assert ladder_for("bnb-exact")[:2] == ("bnb-exact", "ursa")
        assert ladder_for("bnb-exact")[-1] == "spill-everywhere"


# ======================================================================
# The exact backend.
# ======================================================================
class TestBnbExact:
    def test_fig2_proves_optimal(self):
        machine = MachineModel.homogeneous(4, 6)
        result = compile_trace(kernel("figure2"), machine, method="bnb-exact")
        assert result.verified
        report = result.backend_report
        assert report["backend"] == "bnb-exact"
        assert report["proved"]
        assert result.stats.cycles == report["length"] == 6

    def test_agrees_with_dp_oracle_and_proof_rate(self):
        """Bit-agreement with ``scheduling/optimal.py`` on load-based
        traces (no live-ins, where both register models coincide), and
        the >=90% proof-rate acceptance bar under a 2s deadline."""
        machine = MachineModel.homogeneous(2, 4)
        proved = tried = 0
        for seed in range(6):
            trace = random_layered_trace(
                n_ops=10, width=3, seed=seed, n_inputs=2
            )
            dag = DependenceDAG.from_trace(trace)
            optimum = optimal_schedule_length(dag, machine)
            if optimum is None:
                continue
            result = compile_trace(
                trace, machine, method="bnb-exact",
                deadline=Deadline(seconds=2.0),
            )
            assert result.verified
            tried += 1
            report = result.backend_report
            if report["proved"]:
                proved += 1
                assert result.stats.cycles == optimum
            assert result.stats.cycles >= optimum
        assert tried >= 4
        assert proved / tried >= 0.9

    def test_never_beats_a_sound_lower_bound(self):
        from repro.analyze.bounds import length_lower_bound

        machine = MachineModel.homogeneous(2, 6)
        for seed in range(4):
            trace = random_layered_trace(
                n_ops=10, width=3, seed=seed, n_inputs=2
            )
            dag = DependenceDAG.from_trace(trace)
            result = compile_trace(trace, machine, method="bnb-exact")
            assert result.stats.cycles >= length_lower_bound(dag, machine)

    def test_infeasible_register_file_fails_fast(self):
        # figure2's pressure floor is 2: one register fast-fails before
        # any search, two exhausts the search and proves infeasibility.
        dag = DependenceDAG.from_trace(kernel("figure2"))
        with pytest.raises(ExactSearchError, match="pressure floor"):
            bnb_compile(dag, MachineModel.homogeneous(4, 1))
        with pytest.raises(ExactSearchError, match="no spill-free schedule"):
            bnb_compile(dag, MachineModel.homogeneous(4, 2))

    def test_op_cap_is_configurable(self):
        trace = random_layered_trace(n_ops=18, width=3, seed=0, n_inputs=2)
        dag = DependenceDAG.from_trace(trace)
        machine = MachineModel.homogeneous(4, 10)
        with pytest.raises(ExactSearchError, match="bnb_max_ops"):
            bnb_compile(dag, machine, max_ops=10)
        result = compile_trace(
            trace, machine, method="bnb-exact",
            backend_options={"bnb_max_ops": 32},
        )
        assert result.verified

    def test_anytime_returns_best_so_far_on_expiry(self, monkeypatch):
        """An expired deadline degrades to the heuristic incumbent with
        ``proved=False`` instead of raising."""
        import repro.methods.bnb as bnb_mod

        trace = random_layered_trace(n_ops=14, width=3, seed=0, n_inputs=2)
        dag = DependenceDAG.from_trace(trace)
        machine = MachineModel.homogeneous(2, 4)
        from repro.analyze.bounds import length_lower_bound

        incumbent = ListScheduler(
            dag, machine, respect_registers=True, allow_spill=False
        ).run()
        # The scenario needs a search phase: the incumbent must sit
        # above the static bound (holds for this fixed workload).
        assert incumbent.length > length_lower_bound(dag, machine)

        monkeypatch.setattr(bnb_mod, "_DEADLINE_STRIDE", 1)
        with deadline_scope(Deadline(seconds=0.0)):
            schedule, certificate = bnb_compile(dag, machine)
        assert not certificate.proved
        assert certificate.source == "incumbent"
        assert schedule.length == incumbent.length

    def test_escalates_through_ladder_when_resilient(self):
        machine = MachineModel.homogeneous(4, 2)  # bnb cannot fit, ursa spills
        result = compile_trace(
            kernel("figure2"), machine, method="bnb-exact", resilient=True
        )
        assert result.verified
        assert result.degradation is not None
        assert result.degradation.degraded
        assert result.degradation.final_method != "bnb-exact"


# ======================================================================
# The portfolio racer.
# ======================================================================
class TestPortfolio:
    MACHINE = MachineModel.homogeneous(4, 6)

    def test_serial_race_is_deterministic(self):
        results = [
            compile_trace(kernel("figure2"), self.MACHINE, method="portfolio")
            for _ in range(2)
        ]
        assert results[0].backend_report["winner"] == (
            results[1].backend_report["winner"]
        )
        assert str(results[0].program) == str(results[1].program)
        assert results[0].stats.cycles == results[1].stats.cycles

    def test_never_worse_than_best_member(self):
        members = ("bnb-exact", "ursa", "prepass", "goodman-hsu")
        for trace in (kernel("figure2"), kernel("dot-product")):
            best = None
            for member in members:
                try:
                    single = compile_trace(trace, self.MACHINE, method=member)
                except (PipelineError, ExactSearchError):
                    continue
                cycles = single.stats.cycles
                best = cycles if best is None else min(best, cycles)
            result = compile_trace(trace, self.MACHINE, method="portfolio")
            assert result.verified
            assert result.stats.cycles <= best

    def test_exact_winner_under_generous_deadline(self):
        result = compile_trace(
            kernel("figure2"), self.MACHINE, method="portfolio",
            deadline=Deadline(seconds=30.0),
            backend_options={"portfolio_members": ("bnb-exact", "prepass")},
        )
        assert result.verified
        report = result.backend_report
        assert report["exact_delivered"]
        assert result.stats.cycles == report["length_lower_bound"] == 6

    def test_heuristics_win_when_exact_cannot_run(self):
        # 24+ ops exceed bnb-exact's default cap, so it loses the race
        # and a heuristic must deliver the answer.
        trace = random_layered_trace(n_ops=20, width=3, seed=1, n_inputs=2)
        result = compile_trace(
            trace, MachineModel.homogeneous(4, 10), method="portfolio",
            backend_options={"portfolio_members": ("bnb-exact", "prepass")},
        )
        assert result.verified
        report = result.backend_report
        assert report["winner"] == "prepass"
        outcomes = {m["method"]: m["outcome"] for m in report["members"]}
        assert outcomes["bnb-exact"] == "failed"
        assert outcomes["prepass"] == "ok"
        # The exact backend delivered nothing; prepass happens to meet
        # the static length bound here, so its answer is exact anyway.
        proofs = {m["method"]: m["proof"] for m in report["members"]}
        assert proofs == {"bnb-exact": None, "prepass": "bound"}
        assert result.stats.cycles == report["length_lower_bound"]
        assert report["exact_delivered"]

    def test_bound_matching_finisher_counts_as_exact(self):
        # Serial and deterministic: prepass runs first and meets the
        # static bound; bnb-exact then certifies the same length by
        # search.  Both are exact, each marked with how it was proved.
        result = compile_trace(
            kernel("figure2"), self.MACHINE, method="portfolio",
            backend_options={"portfolio_members": ("prepass", "bnb-exact")},
        )
        report = result.backend_report
        assert report["exact_delivered"]
        proofs = {m["method"]: m["proof"] for m in report["members"]}
        assert proofs == {"prepass": "bound", "bnb-exact": "search"}
        assert report["winner"] == "prepass"
        assert result.stats.cycles == report["length_lower_bound"] == 6

    @pytest.mark.parametrize("case", ["figure2", "dot-product", "random20"])
    def test_same_answer_whatever_the_deadline(self, case):
        from repro.serve.cache import program_signature

        if case == "random20":
            trace = random_layered_trace(n_ops=20, width=3, seed=1, n_inputs=2)
            machine = MachineModel.homogeneous(4, 10)
        else:
            trace, machine = kernel(case), self.MACHINE

        def answer(deadline):
            result = compile_trace(
                trace, machine, method="portfolio", deadline=deadline
            )
            assert result.deadline_tripped is None
            report = result.backend_report
            return (
                report["winner"],
                report["winner_cycles"],
                report["exact_delivered"],
                [
                    (m["method"], m["outcome"], m["cycles"], m["proof"])
                    for m in report["members"]
                ],
                program_signature(result.program),
            )

        unbounded = answer(None)
        assert [m[0] for m in unbounded[3]] == [
            "bnb-exact", "ursa", "prepass", "goodman-hsu",
        ]  # reported in declared order
        # A 20 ms budget on a frozen clock is in scope for every
        # member but cannot trip on a loaded host.
        assert answer(Deadline(seconds=0.020, clock=lambda: 0.0)) == unbounded
        assert answer(Deadline(seconds=5.0)) == unbounded

    def test_portfolio_cannot_race_itself(self):
        from repro.core.allocator import AllocationError

        with pytest.raises((AllocationError, PipelineError)):
            compile_trace(
                kernel("figure2"), self.MACHINE, method="portfolio",
                backend_options={"portfolio_members": ("portfolio",)},
            )

    def test_unknown_member_is_structured(self):
        with pytest.raises((UnknownMethodError, PipelineError)):
            compile_trace(
                kernel("figure2"), self.MACHINE, method="portfolio",
                backend_options={"portfolio_members": ("bogus",)},
            )

    def test_attribution_reaches_degradation_report(self):
        result = compile_trace(
            kernel("figure2"), self.MACHINE, method="portfolio",
            resilient=True,
        )
        assert result.degradation is not None
        winning = [a for a in result.degradation.attempts if a.outcome == "ok"]
        assert winning
        assert "portfolio winner" in winning[0].reason


# ======================================================================
# Capability-driven doomed rungs (analyze layer).
# ======================================================================
class TestDoomedRungs:
    def test_no_spill_backends_doomed_when_floor_exceeds_file(self):
        from repro.analyze import feasibility_report

        dag = DependenceDAG.from_trace(kernel("figure2"))
        feasibility = feasibility_report(
            dag, MachineModel.homogeneous(4, 1)
        )
        doomed = feasibility.doomed_rungs()
        no_spill = {
            b.name for b in backends()
            if not b.can_spill and not b.always_feasible
        }
        assert no_spill <= set(doomed)
        for reason in doomed.values():
            assert "cannot" in reason
