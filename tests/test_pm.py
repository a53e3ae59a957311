"""Tests for repro.pm (incremental trials, chains on demand) and the phases.

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
from repro.pm import IncrementalMeasurer
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
# Fuzz: in-place trials == from-scratch measure_all of an apply() copy.
# ======================================================================
def _all_candidates(
    alloc: URSAAllocator,
    dag: DependenceDAG,
    requirements: List[ResourceRequirement],
) -> List[TransformCandidate]:
    out: List[TransformCandidate] = []
    depth = dag.asap()
    for req in requirements:
        if not req.is_excessive:
            continue
        for ecs in find_excessive_sets(dag, req):
            out.extend(alloc._proposals(dag, ecs, depth))
        out.extend(alloc._schedule_guided_fu_candidates(dag, req))
        out.extend(alloc._global_merge_candidates(dag, req, depth))
        out.extend(alloc._fallback_candidates(dag, req, depth))
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
        compared = cut = 0
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
                weighted = sum(scratch.values())  # register weight 1
                for best in (weighted - 1, weighted, weighted + 1):
                    # The cutoff: None exactly when the weighted excess
                    # is above min(base - 1, best), else the unbounded
                    # trial's outcome.
                    bounded = measurer.trial(candidate, best)
                    if weighted > min(base_excess - 1, best):
                        assert bounded is None, (index, candidate.kind, best)
                        cut += outcome is not None
                    else:
                        assert bounded == outcome, (index, candidate.kind, best)
                if outcome is None:
                    # Progress filter: the candidate must really not
                    # have improved the weighted excess.
                    assert weighted >= base_excess
                else:
                    trial = {
                        (b.req.kind, b.req.cls): excess
                        for b, excess in zip(measurer._bases, outcome.excesses)
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
        # Some improving candidates were cut by ``best`` alone.
        assert cut >= 50, cut
        assert any(k.startswith("fu-") for k in kinds_seen)
        assert any(k.startswith("reg-") for k in kinds_seen)
        assert NODE_KINDS <= kinds_seen, kinds_seen


class TestPerClassCutoff:
    """The trial checks its cutoff after every class, registers too."""

    SOURCE = "\n".join(
        [f"f{i} = load [x{i}]\ni{i} = load [y{i}]" for i in range(8)]
        + [
            f"fs{i} = f{i} + f{i + 1}\nis{i} = i{i} + i{i + 1}\n"
            f"m{i} = fs{i} * is{i}\nstore [z{i}], m{i}"
            for i in range(0, 8, 2)
        ]
    )

    def test_cut_after_first_register_class_skips_the_second(
        self, monkeypatch
    ):
        import repro.core.measure as measure_module
        import repro.pm.incremental as incremental_module
        from repro.core.kill import select_kill
        from repro.machine.presets import embedded_dsp

        machine = embedded_dsp()
        dag = DependenceDAG.from_trace(parse_trace(self.SOURCE))
        requirements = measure_all(dag, machine)
        kinds = [(r.kind, r.cls) for r in requirements]
        assert kinds == [
            (ResourceKind.FUNCTIONAL_UNIT, "any"),
            (ResourceKind.REGISTER, "flt"),
            (ResourceKind.REGISTER, "int"),
        ]
        classes: List[str] = []

        def spy(dag, values, *args, **kwargs):
            classes.append(values[0].reg_class)
            return select_kill(dag, values, *args, **kwargs)

        monkeypatch.setattr(incremental_module, "select_kill", spy)
        monkeypatch.setattr(measure_module, "select_kill", spy)
        measurer = IncrementalMeasurer(machine)
        measurer.rebase(dag, requirements)
        base = sum(_excesses(requirements).values())
        tested = 0
        for candidate in _all_candidates(
            URSAAllocator(machine), dag, requirements
        ):
            classes.clear()
            try:
                outcome = measurer.trial(candidate)
            except TransformError:
                continue
            if outcome is None or classes != ["flt", "int"]:
                continue
            fu, flt, _ = outcome.excesses
            if not flt or fu >= base - 1:
                continue
            # Above the limit once the flt class is scored: cut there.
            classes.clear()
            assert measurer.trial(candidate, best=fu) is None
            assert classes == ["flt"], candidate
            tested += 1
        assert tested, "no candidate re-selected Kill() for both classes"


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


def _spill_then_cycle(dag: DependenceDAG) -> TransformCandidate:
    """A node-inserting candidate that fails partway: it spills the
    first used value, then sequences the reload before its own spill.

    The proposal screens drop every spill or remat that would close a
    cycle, so the proposals themselves rarely fail after growing the
    DAG; this candidate makes sure each fuzz case rolls one back."""
    from repro.core.transforms.spill import spill_slot_for

    name = next(
        name for name in sorted(dag.value_uses)
        if set(dag.value_uses[name]) - {dag.value_defs[name]}
    )
    def_uid = dag.value_defs[name]
    uses = sorted(set(dag.value_uses[name]) - {def_uid})

    def edits(target: DependenceDAG) -> None:
        spill_uid, reload_uid, _ = target.insert_spill(
            name, uses, spill_slot_for(target, def_uid)
        )
        target.add_sequence_edge(reload_uid, spill_uid, reason="test-cycle")

    return TransformCandidate(
        kind="spill", description=f"spill {name}, then a back edge",
        base_dag=dag, edits=edits, spills_added=1,
    )


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
            for candidate in candidates + [_spill_then_cycle(dag)]:
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
# Certain-cycle screens: a proposal is dropped exactly when it cannot
# apply.
# ======================================================================
def _recorded_proposals(monkeypatch, dag, ecs, remat_cap=None):
    """Per proposal function: ``(propose, every candidate, [(candidate,
    screen verdict)])`` with the screens asked but overruled, so nothing
    is dropped.  ``remat_cap`` overrides ``MAX_REMAT_CANDIDATES``."""
    import repro.core.transforms.reg_seq as reg_seq_mod
    import repro.core.transforms.remat as remat_mod
    import repro.core.transforms.spill as spill_mod

    out = []
    for module, screen, propose in (
        (reg_seq_mod, "edges_close_cycle", reg_seq_mod.propose_register_sequencing),
        (remat_mod, "delay_closes_cycle", remat_mod.propose_rematerializations),
        (spill_mod, "delay_closes_cycle", spill_mod.propose_spills),
    ):
        verdicts: List[bool] = []

        def keep_all(*args, _real=getattr(module, screen), _out=verdicts):
            _out.append(_real(*args))
            return False

        with monkeypatch.context() as patch:
            patch.setattr(module, screen, keep_all)
            if remat_cap is not None:
                patch.setattr(remat_mod, "MAX_REMAT_CANDIDATES", remat_cap)
            candidates = propose(dag, ecs, dag.asap())
        # Screened proposals come last: reg-seq's component stagings are
        # listed first and never ask the screen (they cannot cycle).
        asked = candidates[len(candidates) - len(verdicts):]
        out.append((propose, candidates, list(zip(asked, verdicts))))
    return out


def _register_sets(dag, requirements):
    for requirement in requirements:
        if requirement.is_excessive and (
            requirement.kind is ResourceKind.REGISTER
        ):
            yield from find_excessive_sets(dag, requirement)


class TestCertainCycleScreens:
    @pytest.mark.parametrize("live_outs", [0, 2])
    def test_screens_drop_exactly_the_cyclic_candidates(
        self, monkeypatch, live_outs
    ):
        screened: Dict[str, int] = {}
        kept: Dict[str, int] = {}
        for index, dag, machine, requirements, _ in _fuzz_cases(live_outs):
            measurer = IncrementalMeasurer(machine)
            measurer.rebase(dag, requirements)
            for ecs in _register_sets(dag, requirements):
                for propose, candidates, verdicts in _recorded_proposals(
                    monkeypatch, dag, ecs
                ):
                    dropped = {id(c) for c, cyclic in verdicts if cyclic}
                    proposals = propose(dag, ecs, dag.asap())
                    assert [c.description for c in proposals] == [
                        c.description for c in candidates if id(c) not in dropped
                    ]
                    for candidate, cyclic in verdicts:
                        label = f"dag {index}: {candidate}"
                        tally = screened if cyclic else kept
                        tally[candidate.kind] = tally.get(candidate.kind, 0) + 1
                        if cyclic:
                            with pytest.raises(TransformError):
                                measurer.trial(candidate)
                            continue
                        try:
                            measurer.trial(candidate)
                        except TransformError as exc:
                            pytest.fail(f"{label} passed the screen: {exc}")
        for kind in ("spill", "remat", "reg-seq"):
            assert screened.get(kind, 0) > 0 and kept.get(kind, 0) > 0, (
                kind, screened, kept
            )

    def test_screened_remats_count_toward_the_cap(self, monkeypatch):
        from repro.core.transforms.remat import (
            MAX_REMAT_CANDIDATES,
            propose_rematerializations,
        )

        cap_mattered = 0
        for _, dag, _, requirements, _ in _fuzz_cases(live_outs=2):
            for ecs in _register_sets(dag, requirements):
                _, longer, verdicts = _recorded_proposals(
                    monkeypatch, dag, ecs, remat_cap=MAX_REMAT_CANDIDATES + 1
                )[1]
                within_cap = verdicts[:MAX_REMAT_CANDIDATES]
                assert [
                    c.description
                    for c in propose_rematerializations(dag, ecs, dag.asap())
                ] == [c.description for c, cyclic in within_cap if not cyclic]
                # A screen that did not count would have let this one in.
                cap_mattered += len(longer) > MAX_REMAT_CANDIDATES and any(
                    cyclic for _, cyclic in within_cap
                )
        assert cap_mattered > 0


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
# One scoring path: deadline and chaos runs score every candidate in
# place exactly like a plain run, and commit each winner with exactly
# one apply().
# ======================================================================
def _scoring_modes():
    """(mode, compile kwargs, scope factory) — one fresh Deadline each."""
    from repro.resilience import ChaosMonkey, Deadline, chaos_scope

    yield "plain", lambda: {}, nullcontext
    yield "deadline", lambda: {"deadline": Deadline(seconds=3600)}, nullcontext
    # Chaos in scope but firing nothing (rate 0): only the mode switch
    # is under test.
    yield "chaos", lambda: {}, (
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
# The compile's phases and the `repro passes` CLI.
# ======================================================================
class TestPhases:
    MACHINE = MachineModel.homogeneous(4, 6)

    @pytest.mark.parametrize("method, expected", [
        ("ursa", ["build_dag", "allocate", "assign", "codegen", "verify"]),
        ("prepass", ["build_dag", "schedule", "codegen", "verify"]),
        ("bnb-exact", ["build_dag", "schedule", "codegen", "verify"]),
    ], ids=["ursa", "prepass", "bnb-exact"])
    def test_phase_spans_follow_phases(self, method, expected):
        from repro import obs
        from repro.pipeline import PHASES, compile_trace

        with obs.capture() as observer:
            compile_trace(kernel("figure2"), self.MACHINE, method=method)
        spans = [
            event for event in observer.events
            if event["type"] == "span" and event["name"].startswith("phase.")
        ]
        names = [event["name"][len("phase."):] for event in spans]
        assert names == expected
        assert all(event["method"] == method for event in spans)
        # static_checks ran (on by default) but carries no span.
        assert "static_checks" not in names
        assert names == [name for name, _ in PHASES if name in names]

    def test_verify_each_names_the_phase_that_broke_the_dag(self, monkeypatch):
        import repro.pipeline as pipeline
        from repro.verify import VerifyError

        real_build_dag = pipeline.build_dag

        def corrupt_build_dag(source, live_out=()):
            dag = real_build_dag(source, live_out=live_out)
            victim = next(
                name for name, uses in dag.value_uses.items() if uses
            )
            dag.value_uses[victim].append(dag.value_uses[victim][0])
            return dag

        monkeypatch.setattr(pipeline, "build_dag", corrupt_build_dag)
        with pytest.raises(VerifyError, match="after pass build_dag"):
            pipeline.compile_trace(
                kernel("figure2"), self.MACHINE, verify_each=True
            )


class TestPassesCLI:
    def test_text_listing(self, capsys):
        from repro.cli import main

        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        assert "build_dag" in out
        assert "analyses" not in out

    def test_json_listing(self, capsys):
        from repro.cli import main
        from repro.pipeline import PHASES

        assert main(["passes", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "passes": [
                {"name": name, "description": description}
                for name, description in PHASES
            ]
        }

    def test_cache_options_are_gone(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["passes", "--kernel", "figure2"])


# ======================================================================
# Counters.
# ======================================================================
class TestCounters:
    def test_trial_counters_emitted(self):
        from repro import obs
        from repro.pipeline import compile_trace

        with obs.capture() as observer:
            result = compile_trace(
                kernel("figure2"), MachineModel.homogeneous(2, 3),
                method="ursa", verify=False,
            )
        counters = observer.counters
        assert counters.get("pm.trial.incremental", 0) > 0
        # Each committed DAG, the input included, is measured once.
        commits = len(result.allocation.records)
        assert commits > 0
        assert counters.get("measure.calls", 0) == commits + 1
        recomputed = counters.get("pm.trial.recomputed", 0)
        assert recomputed == counters.get("pm.trial.warm", 0) + counters.get(
            "pm.trial.cold", 0
        )

    FALLBACK_REASONS = ("no_proposals", "all_illegal", "none_improved")

    @pytest.mark.parametrize("reason", FALLBACK_REASONS)
    def test_fallback_rounds_say_why(self, monkeypatch, reason):
        from repro import obs
        from repro.graph.dag import CycleError
        from repro.pipeline import compile_trace

        def no_op(target: DependenceDAG) -> None:
            pass

        def cyclic(target: DependenceDAG) -> None:
            raise CycleError("test")

        def proposals(alloc, dag, ecs, depth):
            if reason == "no_proposals":
                return []
            return [TransformCandidate(
                kind="reg-seq", description="test", base_dag=dag,
                edits=cyclic if reason == "all_illegal" else no_op,
            )]

        monkeypatch.setattr(URSAAllocator, "_proposals", proposals)
        monkeypatch.setattr(
            URSAAllocator, "_schedule_guided_fu_candidates",
            lambda alloc, dag, requirement: [],
        )
        with obs.capture() as observer:
            compile_trace(
                kernel("figure2"), MachineModel.homogeneous(2, 3),
                method="ursa", verify=False,
            )
        counters = observer.counters
        rounds = counters.get("allocate.fallback_rounds", 0)
        assert rounds > 0
        assert {
            why: counters.get(f"allocate.fallback.{why}", 0)
            for why in self.FALLBACK_REASONS
        } == {why: rounds if why == reason else 0 for why in self.FALLBACK_REASONS}


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

        def watched_trial(measurer, candidate, best=None):
            counters = observer.counters
            before = {key: counters.get(key, 0) for key in self.COUNTED}
            inside[0] = True
            try:
                return trial(measurer, candidate, best)
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


# ======================================================================
# Chains on demand: only an excessive class builds its decomposition.
# ======================================================================
class TestChainsOnDemand:
    def test_fitting_compile_builds_no_hammocks_or_chains(self, monkeypatch):
        from repro import obs
        from repro.graph.hammock import HammockAnalysis
        from repro.pipeline import compile_trace

        built = [0]
        hammock_init = HammockAnalysis.__init__

        def counting_init(analysis, dag):
            built[0] += 1
            hammock_init(analysis, dag)

        monkeypatch.setattr(HammockAnalysis, "__init__", counting_init)
        with obs.capture() as observer:
            result = compile_trace(
                kernel("figure2"), MachineModel.homogeneous(8, 64),
                method="ursa",
            )
        assert result.verified is True
        assert not result.allocation.records
        assert built[0] == 0
        assert observer.counters.get("dilworth.decompositions", 0) == 0
        assert observer.counters.get("measure.calls", 0) == 1

    def test_decomposition_is_read_at_the_measured_version(self, fig2_dag):
        from repro.core.measure import StaleMeasurementError
        from repro.graph.dilworth import minimum_chain_decomposition
        from repro.graph.hammock import HammockAnalysis

        requirements = measure_all(fig2_dag, MachineModel.homogeneous(2, 3))
        order = fig2_dag.topological_order()
        txn = fig2_dag.begin_transaction()
        fig2_dag.add_sequence_edge(order[0], order[-1], reason="test")
        for requirement in requirements:
            with pytest.raises(StaleMeasurementError):
                requirement.decomposition
        txn.rollback()

        node_levels = HammockAnalysis(fig2_dag).nesting_levels()
        for requirement in requirements:
            levels = {
                e: node_levels[n] for e, n in requirement.element_node.items()
            }
            eager = minimum_chain_decomposition(requirement.order, levels=levels)
            lazy = requirement.decomposition
            assert lazy.chains == eager.chains
            assert lazy.width == requirement.required
