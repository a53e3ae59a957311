"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

import compile_runner  # noqa: E402
import corpus  # noqa: E402
import ledger  # noqa: E402
import serve_runner  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_tight():
    """A traced run over a few compile-tight jobs (one pass)."""
    jobs, machines = compile_runner.setup("compile-tight", 7)
    small = [j for j in jobs if j.machine == "h2x6"][:4]
    return compile_runner._run_traced("compile-tight", 7, 0.0, small, machines)


# -- determinism of the inputs ------------------------------------------
def _corpus_digest(workload, seed):
    sha = hashlib.sha256()
    for job in corpus.compile_corpus(workload, seed):
        sha.update(f"{job.name}|{job.machine}|{job.source}".encode())
    return sha.hexdigest()


def _mix_digest(seed, count=100):
    sets = corpus.serve_set()
    sha = hashlib.sha256()
    for index in range(count):
        req = corpus.request(seed, sets, index)
        sha.update(json.dumps([req.cls, req.name, req.body], sort_keys=True).encode())
    return sha.hexdigest()


@pytest.mark.parametrize("workload", ["compile-tight", "compile-roomy"])
def test_corpus_is_a_function_of_the_seed(workload):
    first = _corpus_digest(workload, 3)
    assert first == _corpus_digest(workload, 3)
    assert first != _corpus_digest(workload, 4)


def test_corpus_sizes_are_at_least_100_jobs():
    # p90 needs at least ten samples beyond it.
    for workload in ("compile-tight", "compile-roomy"):
        assert len(corpus.compile_corpus(workload, 1)) >= 100


def test_request_mix_is_a_function_of_the_seed():
    assert _mix_digest(5) == _mix_digest(5)
    assert _mix_digest(5) != _mix_digest(6)
    sets = corpus.serve_set()
    assert len(sets.hot) == corpus.HOT_POOL
    assert set(sets.deadline) <= set(sets.hot)


def test_every_block_of_requests_holds_the_mix_exactly():
    sets = corpus.serve_set()
    for block in range(3):
        reqs = [corpus.request(9, sets, block * corpus.BLOCK + i) for i in range(corpus.BLOCK)]
        classes = [r.cls for r in reqs]
        for cls, share in corpus.MIX:
            assert classes.count(cls) == round(share * corpus.BLOCK)
        deadline = [r.name for r in reqs if r.cls == "deadline"]
        assert sorted(deadline) == sorted(name for name, _ in sets.deadline)


def test_every_request_asks_for_verification():
    sets = corpus.serve_set()
    for i in range(50):
        body = corpus.request(2, sets, i).body
        assert body["options"]["verify"] is True
        assert ("deadline_ms" in body["options"]) == (corpus.request(2, sets, i).cls == "deadline")


# -- metric names --------------------------------------------------------
def test_declared_metric_names_are_well_formed(declared):
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in names


def test_traced_values_are_all_declared(declared, traced_tight):
    per_layer = {m["name"] for m in declared["per_layer"]}
    for name in traced_tight["layer_values"]:
        assert NAME.fullmatch(name), name
        assert name in per_layer, name


# -- failures ------------------------------------------------------------
def _reply(status, body, cls="hot"):
    return serve_runner.Reply(0, cls, "figure2", 12, 1.0, status, body)


def test_non_ok_503_and_unverified_replies_are_failures():
    warmed = {"figure2": _reply(200, {"ok": True, "result": {"verified": True, "program": "p"}})}
    replies = [
        _reply(200, {"ok": False, "error": {"code": "internal"}}),
        _reply(503, {"ok": False, "error": {"code": "overloaded"}}),
        _reply(200, {"ok": True, "result": {"verified": False, "program": "p",
                                            "cache": {"hit": True}}}),
        _reply(200, {"ok": True, "result": {"verified": None, "program": "p",
                                            "cache": {"hit": True}}}),
        _reply(200, {"ok": True, "result": {"verified": True, "program": "p",
                                            "cache": {"hit": True}}}),
    ]
    ev = serve_runner.evaluate(replies, warmed)
    assert len(ev["failed"]) == 4
    assert len(ev["ok"]) == 1
    assert ev["shed"] == 1


def test_unverified_compile_is_a_failure(monkeypatch):
    import repro.pipeline

    class Fake:
        verified = False

    monkeypatch.setattr(repro.pipeline, "compile_trace", lambda *a, **k: Fake())
    jobs, machines = compile_runner.setup("compile-roomy", 1)
    book = compile_runner._Book(jobs[:1])
    book.record(0, *compile_runner._timed(jobs[0], machines))
    assert book.failed == 1 and book.attempted == 1
    assert "Unverified" in book.errors[0]


def test_changed_code_on_a_repeat_lowers_stable_rate_only():
    jobs, _ = compile_runner.setup("compile-roomy", 1)
    book = compile_runner._Book(jobs[:1])
    first = compile_runner.Outcome("a", 1, 1, 0, 0)
    book.record(0, 0.1, 0.1, first, None)
    book.record(0, 0.1, 0.1, first, None)
    book.record(0, 0.1, 0.1, compile_runner.Outcome("b", 1, 1, 0, 0), None)
    assert book.failed == 0
    assert book.stable_rate == pytest.approx(0.5)


# -- the ledger ----------------------------------------------------------
def _span(i, parent, start, end, name="x"):
    return ledger.SpanRecord(i, name, start, end, parent, 0, "timed")


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, -1, 0, 100), _span(1, 0, 10, 40), _span(2, 1, 15, 35),
        _span(3, 0, 50, 60),
    ]
    own = ledger.self_times(spans)
    assert own == {0: 60, 1: 10, 2: 20, 3: 10}
    assert sum(own.values()) == 100


def test_traced_self_times_are_never_negative(traced_tight):
    spans_path = ROOT / ".perfbench_out" / "spans-compile-tight-7.jsonl"
    records = [
        ledger.SpanRecord(d["id"], d["name"], d["start_ns"], d["end_ns"], d["parent"],
                          d["ctx"], d["phase"], d["tag"])
        for d in map(json.loads, spans_path.read_text().splitlines())
    ]
    assert records
    assert min(ledger.self_times(records).values()) >= 0
    for name, value in traced_tight["layer_values"].items():
        if name.endswith("_ms") and not name.startswith("trace."):
            assert value >= 0, name


def test_ledger_adds_up_to_the_compile_wall(traced_tight):
    values = traced_tight["layer_values"]
    layers = [
        "ir.parse_ms", "graph.build_dag_ms", "core.measure_ms", "core.kill_ms",
        "pm.trial_ms", "core.transform_apply_ms", "core.allocate_self_ms",
        "scheduling.list_ms", "core.assign_self_ms", "verify.static_ms",
        "core.codegen_ms", "machine.simulate_ms", "ir.interp_ms",
    ]
    total = sum(values[name] for name in layers) + values["pipeline.unattributed_ms"]
    assert total == pytest.approx(values["ledger.root_ms"], rel=1e-9)
    assert traced_tight["correct"]


def test_wrappers_are_restored():
    import repro.core.measure
    import repro.pipeline

    originals = (repro.pipeline.verify_program, repro.core.measure.measure_all)
    tracer = ledger.Tracer(ledger.SERVE_LAYERS)
    tracer.install()
    assert repro.core.measure.measure_all is not originals[1]
    assert ledger.Tracer.leftovers()
    tracer.restore()
    assert (repro.pipeline.verify_program, repro.core.measure.measure_all) == originals
    assert ledger.Tracer.leftovers() == []
