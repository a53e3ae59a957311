"""Tests for repro.pm: analysis caching, incremental trials, pass specs.

The load-bearing suites:

* a seeded fuzz comparing in-place trials against from-scratch
  ``measure_all`` of an ``apply()`` copy on 50 random DAGs, across
  every transform family (sequencing, spill, remat, fallbacks);
* rollback exactness over the same corpus: after every trial, also one
  that fails partway through its edits, the DAG's rows, instructions,
  value tables, version and closure are exactly as before;
* bit-identity of the allocator against the clone-and-remeasure
  oracle ``repro.reference.clone_best_candidate`` patched over
  ``URSAAllocator._best_candidate`` (same process, uid counter rewound
  before each compile, so tie-breaks see identical instruction
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
from repro.core.transforms.base import TransformCandidate, TransformError
from repro.graph.dag import DependenceDAG, EdgeKind
from repro.ir.parser import parse_trace
from repro.machine.model import MachineModel
from repro.pm import AnalysisManager, IncrementalMeasurer
from repro.resilience.checkpoint import DagCheckpoint
from repro.workloads.kernels import kernel
from repro.workloads.random_dags import (
    random_layered_trace,
    random_series_parallel,
    random_wide_trace,
)


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
# Fuzz: in-place trials == from-scratch measure_all of an apply() copy.
# ======================================================================
def _all_candidates(
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
    return out


def _fuzz_traces():
    for seed in range(20):
        yield random_layered_trace(n_ops=14, width=4, seed=seed)
    for seed in range(15):
        yield random_series_parallel(
            n_blocks=3, block_width=3, block_depth=2, seed=seed
        )
    for seed in range(15):
        yield random_wide_trace(n_chains=5, chain_length=3, seed=seed)


def _fuzz_cases(live_outs: int = 0):
    """(index, dag, machine, requirements, candidates) per excessive DAG.

    ``live_outs`` makes EXIT read that many of the trace's last-defined
    values, so spills and remats retarget live-out reads too."""
    machines = [
        MachineModel.homogeneous(2, 3),
        MachineModel.homogeneous(3, 4),
    ]
    for index, trace in enumerate(_fuzz_traces()):
        machine = machines[index % len(machines)]
        defined = [inst.dest for inst in trace if inst.dest is not None]
        dag = DependenceDAG.from_trace(
            trace, live_out=defined[len(defined) - live_outs:]
        )
        requirements = measure_all(dag, machine)
        if sum(_excesses(requirements).values()) == 0:
            continue
        alloc = URSAAllocator(machine)
        yield index, dag, machine, requirements, _all_candidates(
            alloc, dag, requirements
        )


NODE_KINDS = {"spill", "remat", "spill-fallback"}


class TestIncrementalTrialFuzz:
    def test_trials_match_from_scratch_measurement(self):
        kinds_seen = set()
        compared = 0
        for index, dag, machine, requirements, candidates in _fuzz_cases():
            base_excess = sum(_excesses(requirements).values())
            measurer = IncrementalMeasurer(machine)
            measurer.rebase(dag, requirements)
            version = dag.version
            edge_count = len(list(dag.edges()))
            node_count = len(dag)
            for candidate in candidates:
                kinds_seen.add(candidate.kind)
                try:
                    clone = candidate.apply()
                except TransformError:
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
                assert len(list(dag.edges())) == edge_count
                assert len(dag) == node_count
        assert compared >= 50, f"only {compared} comparisons ran"
        assert any(k.startswith("fu-") for k in kinds_seen)
        assert any(k.startswith("reg-") for k in kinds_seen)
        assert NODE_KINDS <= kinds_seen, kinds_seen


def _dag_state(dag: DependenceDAG):
    """Everything a rollback must restore, edge order in every row
    included."""
    return (
        [
            (
                uid,
                dag.instruction(uid),
                [(s, dict(dag.edge_data(uid, s))) for s in dag.succs(uid)],
                dag.preds(uid),
            )
            for uid in dag.nodes()
        ],
        list(dag.value_defs.items()),
        [(name, list(uses)) for name, uses in dag.value_uses.items()],
        dag.live_out,
        list(dag.source_order),
        dag.version,
    )


def _failing_partway(candidate: TransformCandidate) -> List[bool]:
    """Wrap ``candidate.edits``; the returned list gets one flag per
    failed run, True when the DAG had already grown by then."""
    failures: List[bool] = []
    inner = candidate.edits

    def edits(target: DependenceDAG) -> None:
        size = len(target)
        try:
            inner(target)
        except Exception:
            failures.append(len(target) > size)
            raise

    candidate.edits = edits
    return failures


class TestRollbackExactness:
    @pytest.mark.parametrize("live_outs", [0, 2])
    def test_every_trial_rolls_back_exactly(self, live_outs):
        succeeded = failed_partway = 0
        for index, dag, machine, requirements, candidates in _fuzz_cases(
            live_outs
        ):
            measurer = IncrementalMeasurer(machine)
            measurer.rebase(dag, requirements)
            before = _dag_state(dag)
            closure = dag.closure_masks()
            for candidate in candidates:
                failures = _failing_partway(candidate)
                try:
                    measurer.trial(candidate)
                except TransformError:
                    failed_partway += any(failures)
                else:
                    succeeded += 1
                label = f"dag {index} [{candidate.kind}] {candidate.description}"
                assert _dag_state(dag) == before, label
                assert dag.closure_masks() == closure, label
                rebuilt = dag.copy()
                rebuilt._invalidate()  # drop the carried-over closure
                assert rebuilt.closure_masks() == closure, label
        assert succeeded > 0 and failed_partway > 0, (succeeded, failed_partway)

    def test_seq_to_data_upgrade_rolls_back(self):
        dag = DependenceDAG.from_trace(
            parse_trace("a = load [A]\nb = a + 1\nstore [B], b")
        )
        src, dst = next(
            (u, v) for u, v, d in dag.edges() if d["kind"] is EdgeKind.SEQ
        )
        before = _dag_state(dag)
        txn = dag.begin_transaction()
        dag._add_edge(src, dst, EdgeKind.DATA, value="a")
        assert dag.edge_data(src, dst)["kind"] is EdgeKind.DATA
        txn.rollback()
        assert dag.edge_data(src, dst) == {"kind": EdgeKind.SEQ, "reason": "root"}
        assert _dag_state(dag) == before


# ======================================================================
# Bit-identity: incremental == clone-and-remeasure reference.
# ======================================================================
def _force_clone_scoring(monkeypatch) -> None:
    """Score every candidate with the clone-and-remeasure oracle."""
    from repro.reference import clone_best_candidate

    monkeypatch.setattr(
        URSAAllocator, "_best_candidate", clone_best_candidate
    )


def _assert_bit_identical(monkeypatch, source, machine) -> None:
    """The clone reference and the incremental path must agree bit for
    bit — including on workloads this machine cannot schedule at all,
    where both must fail with the same diagnostic.

    Both runs start from the same uid counter value, taken after
    ``source`` was built: new instructions then get identical uids in
    both runs and never collide with the source's own."""
    from repro.pipeline import compile_trace

    results = {}
    start = instructions_mod._UID_COUNTER[0]
    for reference in (True, False):
        instructions_mod._UID_COUNTER[0] = start
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
# One scoring path: deadline, transactional and chaos runs score every
# candidate in place exactly like a plain run, and commit each winner
# with exactly one apply().
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
    def test_every_mode_matches_plain_and_trials_in_place(self, monkeypatch):
        from repro import obs
        from repro.pipeline import compile_trace
        from repro.serve.cache import program_signature

        applies = [0]
        original_apply = TransformCandidate.apply

        def counted_apply(candidate):
            applies[0] += 1
            return original_apply(candidate)

        monkeypatch.setattr(TransformCandidate, "apply", counted_apply)

        totals: Dict[str, float] = {}
        for name, trace, machine in _one_path_corpus():
            seen = {}
            for mode, kwargs, scope in _scoring_modes():
                applies[0] = 0
                # No uid reset: the traces are built once, and output
                # must not depend on absolute uids anyway.
                with scope(), obs.capture() as observer:
                    result = compile_trace(
                        trace, machine, method="ursa", verify=False,
                        **kwargs(),
                    )
                assert not result.degraded, (name, mode)
                committed = len(result.allocation.records)
                assert applies[0] == committed, (name, mode, applies[0])
                counters = observer.counters
                trials = (
                    counters.get("pm.trial.incremental", 0),
                    counters.get("pm.trial.full", 0),
                )
                for key, count in zip(("incremental", "full"), trials):
                    totals[key] = totals.get(key, 0) + count
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
        assert "invalidation contracts" not in out

    def test_json_listing_with_cache_stats(self, capsys):
        from repro.cli import main

        assert main([
            "passes", "--json", "--kernel", "figure2",
            "--fus", "2", "--regs", "3",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"passes", "analyses", "cache"}
        assert payload["cache"]["hits"] > 0


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


# ======================================================================
# Widths-only trials: no hammocks, no chains, no measure_all.
# ======================================================================
class TestWidthsOnlyTrials:
    COUNTED = ("dilworth.decompositions", "measure.calls")

    @pytest.mark.parametrize(
        "name,fus,regs,committed",
        [("hydro", 2, 3, "spill"), ("figure2", 2, 3, "remat")],
    )
    def test_node_inserting_trials_build_no_hammocks_or_chains(
        self, monkeypatch, name, fus, regs, committed
    ):
        from repro import obs
        from repro.graph.hammock import HammockAnalysis
        from repro.pipeline import compile_trace

        inside = [False]
        seen = dict.fromkeys(("hammock_analyses",) + self.COUNTED, 0)
        observer = None

        hammock_init = HammockAnalysis.__init__

        def counting_init(analysis, dag):
            if inside[0]:
                seen["hammock_analyses"] += 1
            hammock_init(analysis, dag)

        trial = IncrementalMeasurer.trial

        def watched_trial(measurer, candidate):
            counters = observer.counters
            before = {key: counters.get(key, 0) for key in self.COUNTED}
            inside[0] = True
            try:
                return trial(measurer, candidate)
            finally:
                inside[0] = False
                for key in self.COUNTED:
                    seen[key] += counters.get(key, 0) - before[key]

        monkeypatch.setattr(HammockAnalysis, "__init__", counting_init)
        monkeypatch.setattr(IncrementalMeasurer, "trial", watched_trial)
        with obs.capture() as observer:
            result = compile_trace(
                kernel(name), MachineModel.homogeneous(fus, regs),
                method="ursa", verify=False,
            )
        assert observer.counters.get("pm.trial.full", 0) > 0
        assert committed in [record.kind for record in result.allocation.records]
        assert seen == dict.fromkeys(seen, 0), seen
