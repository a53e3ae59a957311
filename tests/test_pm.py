"""Tests for repro.pm: analysis caching, incremental trials, pass specs.

The load-bearing suites:

* a seeded fuzz comparing the incremental trial path against
  from-scratch ``measure_all`` on 50 random DAGs across every
  edges-only transform family;
* the lying-transform tripwire: a candidate that declares
  ``edges_only`` but inserts nodes is caught by the transaction's
  mutation guard, surfaced as :class:`VerifyError` under
  ``verify_each`` and scored honestly on the clone path otherwise;
* bit-identity of the incremental allocator against the
  clone-and-remeasure reference (every candidate forced onto the clone
  path by declaring it ``INVALIDATES_ALL``; same process, uid counter
  reset before each build, so tie-breaks see identical instruction
  identities).
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

import repro.ir.instructions as instructions_mod
from repro.core.allocator import URSAAllocator
from repro.core.measure import (
    ResourceKind,
    ResourceRequirement,
    find_excessive_sets,
    measure_all,
)
from repro.core.transforms.base import (
    EDGES_ONLY,
    INVALIDATES_ALL,
    TransformCandidate,
    TransformError,
)
from repro.graph.dag import CycleError, DependenceDAG, TransactionError
from repro.machine.model import MachineModel
from repro.pm import AnalysisManager, IncrementalMeasurer, InvalidationError
from repro.resilience.checkpoint import DagCheckpoint
from repro.workloads.kernels import kernel
from repro.workloads.random_dags import (
    random_layered_trace,
    random_series_parallel,
    random_wide_trace,
)


def _reset_uids() -> None:
    instructions_mod._UID_COUNTER[0] = 0


def _excesses(
    requirements: List[ResourceRequirement],
) -> Dict[Tuple[ResourceKind, str], int]:
    return {(r.kind, r.cls): max(0, r.required - r.available) for r in requirements}


# ======================================================================
# AnalysisManager.
# ======================================================================
class TestAnalysisManager:
    def test_hit_on_same_version(self, fig2_dag):
        manager = AnalysisManager()
        first = manager.asap(fig2_dag)
        second = manager.asap(fig2_dag)
        assert first is second
        assert manager.hits == 1 and manager.misses == 1

    def test_version_bump_invalidates(self, fig2_dag):
        manager = AnalysisManager()
        manager.asap(fig2_dag)
        order = fig2_dag.topological_order()
        fig2_dag.add_sequence_edge(order[0], order[-1], reason="test")
        manager.asap(fig2_dag)
        assert manager.misses == 2
        assert manager.invalidations == 1

    def test_rollback_revalidates_cached_entries(self, fig2_dag):
        manager = AnalysisManager()
        before = manager.asap(fig2_dag)
        txn = fig2_dag.begin_transaction()
        order = fig2_dag.topological_order()
        fig2_dag.add_sequence_edge(order[0], order[-1], reason="test")
        manager.asap(fig2_dag)  # miss at the new version
        txn.rollback()
        after = manager.asap(fig2_dag)
        assert after is before  # old-version entry servable again
        assert manager.hits == 1 and manager.misses == 2

    def test_shared_across_dags(self, fig2_trace):
        manager = AnalysisManager()
        a = DependenceDAG.from_trace(fig2_trace)
        b = DependenceDAG.from_trace(fig2_trace)
        assert a.version != b.version
        assert manager.asap(a) is not manager.asap(b)
        assert manager.misses == 2 and manager.hits == 0

    def test_stats_shape(self, fig2_dag):
        manager = AnalysisManager()
        manager.asap(fig2_dag)
        stats = manager.stats()
        assert set(stats) == {
            "hits", "misses", "invalidations", "evictions", "hit_rate",
            "entries",
        }


# ======================================================================
# DagCheckpoint: copy-on-write commits make restore a reference swap.
# ======================================================================
class TestTransactionalCheckpoint:
    def test_restore_without_txn_is_identity(self, fig2_dag):
        checkpoint = DagCheckpoint.capture(fig2_dag, [], label="t")
        restored, _ = checkpoint.restore()
        assert restored is fig2_dag


# ======================================================================
# Fuzz: incremental trials == from-scratch measure_all.
# ======================================================================
def _edges_only_candidates(
    alloc: URSAAllocator,
    dag: DependenceDAG,
    requirements: List[ResourceRequirement],
) -> List[TransformCandidate]:
    out: List[TransformCandidate] = []
    for req in requirements:
        if not req.is_excessive:
            continue
        for ecs in find_excessive_sets(dag, req):
            out.extend(alloc._proposals(dag, ecs))
        out.extend(alloc._schedule_guided_fu_candidates(dag, req))
        out.extend(alloc._global_merge_candidates(dag, req))
        out.extend(alloc._fallback_candidates(dag, req))
    return [
        c for c in out
        if c.invalidation.edges_only and not c.invalidation.invalidates_all
    ]


def _fuzz_traces():
    for seed in range(20):
        yield random_layered_trace(n_ops=14, width=4, seed=seed)
    for seed in range(15):
        yield random_series_parallel(
            n_blocks=3, block_width=3, block_depth=2, seed=seed
        )
    for seed in range(15):
        yield random_wide_trace(n_chains=5, chain_length=3, seed=seed)


class TestIncrementalTrialFuzz:
    def test_trials_match_from_scratch_measurement(self):
        machines = [
            MachineModel.homogeneous(2, 3),
            MachineModel.homogeneous(3, 4),
        ]
        kinds_seen = set()
        compared = 0
        for index, trace in enumerate(_fuzz_traces()):
            machine = machines[index % len(machines)]
            dag = DependenceDAG.from_trace(trace)
            requirements = measure_all(dag, machine)
            base_excess = sum(_excesses(requirements).values())
            if base_excess == 0:
                continue
            alloc = URSAAllocator(machine)
            candidates = _edges_only_candidates(alloc, dag, requirements)[:10]

            measurer = IncrementalMeasurer(machine)
            measurer.rebase(dag, requirements)
            version = dag.version
            edge_count = len(dag.graph.edges)
            for candidate in candidates:
                kinds_seen.add(candidate.kind)
                clone = dag.copy()
                try:
                    candidate.edits(clone)
                except CycleError:
                    with pytest.raises(TransformError):
                        measurer.trial(candidate)
                    continue
                scratch = _excesses(measure_all(clone, machine))
                outcome = measurer.trial(candidate)
                compared += 1
                if outcome is None:
                    # Progress filter: the candidate must really not
                    # have improved the weighted excess.
                    assert sum(scratch.values()) >= base_excess
                else:
                    trial = {
                        (b.req.kind, b.req.cls): max(0, w - b.available)
                        for b, w in zip(measurer._bases, outcome.widths)
                    }
                    assert trial == scratch, (
                        f"dag {index} [{candidate.kind}] "
                        f"{candidate.description}: {trial} != {scratch}"
                    )
                # Trials never leak state into the base DAG.
                assert dag.version == version
                assert len(dag.graph.edges) == edge_count
        assert compared >= 50, f"only {compared} comparisons ran"
        assert any(k.startswith("fu-") for k in kinds_seen)
        assert any(k.startswith("reg-") for k in kinds_seen)
        assert len(kinds_seen) >= 4, kinds_seen


# ======================================================================
# The lying transform.
# ======================================================================
def _lying_spill_candidate(dag, machine) -> TransformCandidate:
    """A real spill candidate relabelled as edges-only (a lie)."""
    from repro.core.transforms.spill import propose_spills

    for req in measure_all(dag, machine):
        if req.kind is not ResourceKind.REGISTER or not req.is_excessive:
            continue
        for ecs in find_excessive_sets(dag, req):
            for candidate in propose_spills(dag, ecs):
                candidate.invalidation = EDGES_ONLY
                return candidate
    raise AssertionError("workload proposed no spill candidate")


class TestLyingTransform:
    MACHINE = MachineModel.homogeneous(2, 3)

    def test_trial_raises_invalidation_error(self):
        dag = DependenceDAG.from_trace(kernel("figure2"))
        requirements = measure_all(dag, self.MACHINE)
        liar = _lying_spill_candidate(dag, self.MACHINE)

        measurer = IncrementalMeasurer(self.MACHINE)
        measurer.rebase(dag, requirements)
        version = dag.version
        node_count = len(dag)
        with pytest.raises(InvalidationError):
            measurer.trial(liar)
        # The guard fired before any mutation; rollback left no trace.
        assert dag.version == version
        assert len(dag) == node_count

    def _lying_allocator(self, monkeypatch, **kwargs) -> URSAAllocator:
        original = URSAAllocator._proposals

        def lying(self, dag, ecs):
            candidates = original(self, dag, ecs)
            for candidate in candidates:
                if candidate.kind == "spill":
                    candidate.invalidation = EDGES_ONLY
            return candidates

        monkeypatch.setattr(URSAAllocator, "_proposals", lying)
        return URSAAllocator(self.MACHINE, **kwargs)

    def test_verify_each_surfaces_the_lie(self, monkeypatch):
        from repro.verify import VerifyError

        alloc = self._lying_allocator(monkeypatch, verify_each=True)
        with pytest.raises(VerifyError, match="invalidation contract"):
            alloc.run(DependenceDAG.from_trace(kernel("figure2")))

    def test_without_verify_each_falls_back_to_clone_path(self, monkeypatch):
        _reset_uids()
        honest = URSAAllocator(self.MACHINE).run(
            DependenceDAG.from_trace(kernel("figure2"))
        )
        _reset_uids()
        alloc = self._lying_allocator(monkeypatch)
        lied = alloc.run(DependenceDAG.from_trace(kernel("figure2")))
        assert lied.converged == honest.converged
        assert [
            (r.kind, r.description) for r in lied.records
        ] == [(r.kind, r.description) for r in honest.records]


# ======================================================================
# Bit-identity: incremental == clone-and-remeasure reference.
# ======================================================================
def _force_clone_scoring(monkeypatch) -> None:
    """Declare every candidate ``INVALIDATES_ALL`` so the allocator
    scores (and commits) it on the clone-and-remeasure path."""
    original = URSAAllocator._best_candidate

    def clone_scored(self, dag, candidates, current_excess):
        for candidate in candidates:
            candidate.invalidation = INVALIDATES_ALL
        return original(self, dag, candidates, current_excess)

    monkeypatch.setattr(URSAAllocator, "_best_candidate", clone_scored)


def _assert_bit_identical(monkeypatch, source, machine) -> None:
    """The clone reference and the incremental path must agree bit for
    bit — including on workloads this machine cannot schedule at all,
    where both must fail with the same diagnostic."""
    from repro.pipeline import compile_trace

    results = {}
    for reference in (True, False):
        _reset_uids()
        with monkeypatch.context() as patch:
            if reference:
                _force_clone_scoring(patch)
            try:
                result = compile_trace(
                    source, machine, method="ursa", verify=False
                )
            except Exception as exc:
                results[reference] = ("error", type(exc).__name__, str(exc))
                continue
        records = tuple(
            (r.kind, r.description) for r in result.allocation.records
        )
        results[reference] = (
            str(result.program), result.stats.cycles, records
        )
    assert results[True] == results[False]


class TestBitIdentity:
    @pytest.mark.parametrize("name", ["figure2", "saxpy", "fft-butterfly"])
    @pytest.mark.parametrize("fus,regs", [(2, 3), (4, 6)])
    def test_same_programs_and_records(self, monkeypatch, name, fus, regs):
        _assert_bit_identical(
            monkeypatch, kernel(name), MachineModel.homogeneous(fus, regs)
        )

    EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "traces"

    @pytest.mark.parametrize(
        "example", sorted(p.name for p in EXAMPLES.glob("*.ursa"))
    )
    def test_example_traces(self, monkeypatch, example):
        from repro.ir.parser import parse_trace

        trace = parse_trace((self.EXAMPLES / example).read_text())
        _assert_bit_identical(
            monkeypatch, trace, MachineModel.homogeneous(2, 4)
        )


# ======================================================================
# One scoring path: deadline, transactional and chaos runs score
# edges-only candidates in place exactly like a plain run.
# ======================================================================
def _scoring_modes():
    """(mode, compile kwargs, scope factory) — one fresh Deadline each."""
    from repro.resilience import ChaosMonkey, Deadline, chaos_scope

    yield "plain", lambda: {}, nullcontext
    yield "deadline", lambda: {"deadline": Deadline(seconds=3600)}, nullcontext
    # Chaos in scope but firing nothing (rate 0): only the mode switch
    # is under test, folded into the transactional run to save a pass.
    yield "transactional+chaos", lambda: {"transactional": True}, (
        lambda: chaos_scope(ChaosMonkey(seed=0, rate=0.0))
    )


def _one_path_corpus():
    from repro.ir.parser import parse_trace

    machines = [MachineModel.homogeneous(2, 3), MachineModel.homogeneous(3, 4)]
    for index, trace in enumerate(_fuzz_traces()):
        yield f"fuzz{index}", trace, machines[index % 2]
    for path in sorted(TestBitIdentity.EXAMPLES.glob("*.ursa")):
        yield path.stem, parse_trace(path.read_text()), (
            MachineModel.homogeneous(2, 4)
        )


class TestOneScoringPath:
    def test_every_mode_matches_plain_and_trials_in_place(self):
        from repro import obs
        from repro.pipeline import compile_trace
        from repro.serve.cache import program_signature

        totals: Dict[str, float] = {}
        for name, trace, machine in _one_path_corpus():
            seen = {}
            for mode, kwargs, scope in _scoring_modes():
                # No uid reset: the traces are built once, and output
                # must not depend on absolute uids anyway.
                with scope(), obs.capture() as observer:
                    result = compile_trace(
                        trace, machine, method="ursa", verify=False,
                        **kwargs(),
                    )
                assert not result.degraded, (name, mode)
                trials = observer.counters.get("pm.trial.incremental", 0)
                totals[mode] = totals.get(mode, 0) + trials
                seen[mode] = (program_signature(result.program), trials)
            assert len(set(seen.values())) == 1, (name, seen)
        assert all(total > 0 for total in totals.values()), totals


# ======================================================================
# Pass registry and the `repro passes` CLI.
# ======================================================================
class TestPassRegistry:
    def test_pipeline_registers_core_passes(self):
        import repro.pipeline  # noqa: F401 — registration side effect
        from repro.pm import PASS_REGISTRY

        names = [spec.name for spec in PASS_REGISTRY]
        for expected in (
            "build_dag", "allocate", "assign", "schedule",
            "static_checks", "codegen", "verify",
        ):
            assert expected in names

    def test_build_pipeline_orders(self):
        from repro.pipeline import build_pipeline

        ursa = [p.spec.name for p in build_pipeline("ursa").passes]
        assert ursa[:3] == ["build_dag", "allocate", "assign"]
        baseline = [p.spec.name for p in build_pipeline("prepass").passes]
        assert "schedule" in baseline and "allocate" not in baseline


class TestPassesCLI:
    def test_text_listing(self, capsys):
        from repro.cli import main

        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        assert "build_dag" in out
        assert "reachability" in out
        assert "fu-seq" in out
        assert "invalidates-all" in out

    def test_json_listing_with_cache_stats(self, capsys):
        from repro.cli import main

        assert main([
            "passes", "--json", "--kernel", "figure2",
            "--fus", "2", "--regs", "3",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"passes", "analyses", "invalidation_contracts", "cache"} <= (
            set(payload)
        )
        assert payload["cache"]["hits"] > 0
        kinds = payload["invalidation_contracts"]
        assert kinds["spill"]["invalidates_all"] is True
        assert kinds["fu-seq"]["edges_only"] is True


# ======================================================================
# Counters.
# ======================================================================
class TestCounters:
    def test_trial_counters_emitted(self):
        from repro import obs
        from repro.pipeline import compile_trace

        with obs.capture() as observer:
            compile_trace(
                kernel("figure2"), MachineModel.homogeneous(2, 3),
                method="ursa", verify=False,
            )
        counters = observer.counters
        assert counters.get("pm.trial.incremental", 0) > 0
        assert counters.get("pm.cache_hit", 0) + counters.get(
            "pm.cache_miss", 0
        ) > 0
        recomputed = counters.get("pm.trial.recomputed", 0)
        assert recomputed == counters.get("pm.trial.warm", 0) + counters.get(
            "pm.trial.cold", 0
        )
