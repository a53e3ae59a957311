"""Chaos harness: deterministic fault injection against the full
resilient pipeline.

The acceptance bar from the issue: under every fault class — corrupted
transforms, lying measurements, bad kill assignments, deadline expiry —
the resilient pipeline still yields a schedule that passes the full
verification packs plus the simulator oracle, and the degradation is
recorded in the ``DegradationReport`` and ``resilience.*`` counters.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.machine.model import MachineModel
from repro.pipeline import compile_trace
from repro.resilience import ChaosMonkey, Deadline, chaos_scope
from repro.resilience.chaos import FAULT_CLASSES, active
from repro.verify import verify_compilation

MACHINE = MachineModel.homogeneous(2, 4)

CHAOS_SEEDS = range(25)

#: Injection fields that name process-global uids.
UID_FIELDS = ("edge", "killer_before", "killer_after")


def normalized(entry):
    """An injection as ``(fault, site, decision)``, without its uids
    (instruction uids are process-global, so they differ between runs)."""
    decision = tuple(
        sorted(
            (key, value)
            for key, value in entry.items()
            if key not in ("fault", "site") + UID_FIELDS
        )
    )
    return entry["fault"], entry.get("site"), decision


def resilient_compile(trace, deadline_seconds=30.0):
    """One fully armored compile: ladder + deadline + per-step
    verification."""
    return compile_trace(
        trace,
        MACHINE,
        method="ursa",
        resilient=True,
        deadline=Deadline(seconds=deadline_seconds),
        verify_each=True,
    )


def assert_survived(result):
    """The invariant every chaos run must uphold: a verified schedule,
    re-verified honestly outside the chaos scope, with a report."""
    assert result.verified
    report = verify_compilation(result, remeasure=True)
    assert not report.errors(), report.render()
    assert result.degradation is not None
    # verified=True already implies the simulator oracle agreed with the
    # reference execution; keep the simulation result visible regardless.
    assert result.simulation is not None


class TestChaosSweep:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_all_faults_still_verify(self, fig2_trace, seed):
        monkey = ChaosMonkey(seed=seed, faults=FAULT_CLASSES, rate=0.4)
        with obs.capture() as observer:
            with chaos_scope(monkey):
                result = resilient_compile(fig2_trace)
        # Honest verification happens outside the chaos scope.
        assert_survived(result)
        for injection in monkey.injections:
            counter = f"resilience.chaos.{injection['fault']}"
            assert observer.counters.get(counter, 0) >= 1


class TestPerFaultClass:
    """rate=1.0 with a single armed fault class: the fault fires at every
    opportunity and the pipeline must still produce a verified result."""

    def run_single_fault(self, trace, fault, seed=7, **kwargs):
        monkey = ChaosMonkey(seed=seed, faults=(fault,), rate=1.0)
        with chaos_scope(monkey):
            result = resilient_compile(trace, **kwargs)
        return monkey, result

    def test_corrupt_transform(self, fig2_trace):
        monkey, result = self.run_single_fault(fig2_trace, "transform")
        assert_survived(result)
        assert monkey.injected("transform") >= 1

    def test_lying_measurement(self, fig2_trace):
        monkey, result = self.run_single_fault(fig2_trace, "measure")
        assert_survived(result)
        assert monkey.injected("measure") >= 1

    def test_bad_kill_assignment(self, fig2_trace):
        monkey, result = self.run_single_fault(fig2_trace, "kill")
        assert_survived(result)
        assert monkey.injected("kill") >= 1

    def test_forced_deadline_expiry(self, fig2_trace):
        # The deadline itself is unlimited; only the chaos fault trips
        # it, drawn once per allocator iteration: rate=1.0 trips it at
        # the check before iteration 1.
        monkey, result = self.run_single_fault(
            fig2_trace, "deadline", deadline_seconds=None
        )
        assert_survived(result)
        assert result.degradation.degraded
        assert result.degradation.deadline_tripped == "chaos"
        assert result.degradation.final_method == "spill-everywhere"


class TestCommitGate:
    """Every URSA commit is audited, with no flag: a lying measurement is
    rejected and re-measured, and the records are built from what the
    gate carried forward, so the ladder's record check never fires."""

    def test_plain_compile_rejects_lying_measurements(self, fig2_trace):
        monkey = ChaosMonkey(faults=("measure",), rate=1.0)
        with obs.capture() as trace, chaos_scope(monkey):
            result = compile_trace(fig2_trace, MACHINE, method="ursa")
        assert result.verified
        assert trace.counters.get("resilience.measurement_rejected", 0) >= 1
        records = result.allocation.records
        assert records
        for previous, record in zip(records, records[1:]):
            assert record.excess_before == previous.excess_after
        assert records[-1].excess_after == result.allocation.total_excess

    def test_measure_sweep_never_escalates_on_a_pack_error(self, fig2_trace):
        for seed in CHAOS_SEEDS:
            monkey = ChaosMonkey(seed=seed, faults=("measure",), rate=0.4)
            with chaos_scope(monkey):
                result = resilient_compile(fig2_trace)
            assert_survived(result)
            escalated = [
                attempt.describe()
                for attempt in result.degradation.attempts
                if "verify pack error" in attempt.reason
            ]
            assert not escalated, (seed, escalated)


class TestDeterminism:
    def test_same_seed_same_injections(self, fig2_trace):
        logs = []
        for _ in range(2):
            monkey = ChaosMonkey(seed=13, faults=FAULT_CLASSES, rate=0.4)
            with chaos_scope(monkey):
                resilient_compile(fig2_trace)
            logs.append([normalized(e) for e in monkey.injections])
        assert logs[0] == logs[1]
        assert logs[0], "seed 13 must inject at least one fault"

    def test_scope_installs_and_removes_monkey(self):
        assert active() is None
        monkey = ChaosMonkey(seed=0)
        with chaos_scope(monkey):
            assert active() is monkey
        assert active() is None

    def test_chaos_off_means_no_faults(self, fig2_trace):
        result = resilient_compile(fig2_trace)
        assert result.verified
        assert not result.degradation.degraded


class TestWorkIndependence:
    """Faults are keyed to decisions: doing more work moves none."""

    @staticmethod
    def sweep(trace):
        outcomes = {}
        for seed in CHAOS_SEEDS:
            monkey = ChaosMonkey(seed=seed, faults=FAULT_CLASSES, rate=0.4)
            with chaos_scope(monkey):
                result = resilient_compile(trace)
            outcomes[seed] = (
                {normalized(e) for e in monkey.injections},
                result.degradation.final_method,
                result.degradation.deadline_tripped,
            )
        return outcomes

    def test_injections_do_not_depend_on_work(self, fig2_trace, monkeypatch):
        import repro.core.measure as measure_module
        import repro.pm.incremental as incremental_module
        from repro.core.kill import select_kill

        plain = self.sweep(fig2_trace)
        assert any(injections for injections, _, _ in plain.values())

        def twice(dag, values, *args, **kwargs):
            select_kill(dag, values, *args, **kwargs)  # discarded
            return select_kill(dag, values, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(measure_module, "select_kill", twice)
            patch.setattr(incremental_module, "select_kill", twice)
            assert self.sweep(fig2_trace) == plain

        tick = Deadline.tick
        with monkeypatch.context() as patch:
            patch.setattr(Deadline, "tick", lambda self, n=1: tick(self, 2 * n))
            assert self.sweep(fig2_trace) == plain
