"""Tests for ``repro.serve``: cache, sharding, protocol, and server.

Three properties carry the serving story (docs/serving.md):

* cache keys are content addresses — uid-independent, sensitive to
  everything that changes compiled output, stable across processes;
* the sharded parallel compile path is bit-identical to the serial
  path (checked via ``program_signature``, the uid-free rendering);
* the HTTP endpoint speaks the documented protocol, including batch
  isolation and structured error codes.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.ir.parser import parse_program, parse_trace
from repro.machine.model import MachineModel
from repro.program_compiler import compile_program, verify_compiled_program
from repro.serve.cache import (
    CompileCache,
    TraceArtifact,
    program_signature,
    resolve_cache,
    trace_key,
)

TRACE_SRC = """\
a = load [A]
b = load [B]
t0 = a + b
t1 = t0 * a
store [OUT], t1
"""

PROGRAM_SRC = """\
start:
  n = 6
  i = 0
loop:
  x = load [v]
  s = x + i
  store [w], s
  i = i + 1
  c = i < n
  if c goto loop
done:
  halt
"""

MACHINE = MachineModel.homogeneous(2, 4)


@pytest.fixture
def cache(tmp_path):
    return CompileCache(tmp_path / "store")


# ======================================================================
# Key derivation.
# ======================================================================
class TestTraceKey:
    def test_uid_independent(self):
        # Two parses allocate disjoint uid ranges; the key must not care.
        first = parse_trace(TRACE_SRC)
        second = parse_trace(TRACE_SRC)
        assert [inst.uid for inst in first] != [inst.uid for inst in second]
        assert trace_key(first, MACHINE, "ursa") == trace_key(
            second, MACHINE, "ursa"
        )

    def test_sensitive_to_trace_text(self):
        base = parse_trace(TRACE_SRC)
        changed = parse_trace(TRACE_SRC.replace("t0 * a", "t0 * b"))
        assert trace_key(base, MACHINE, "ursa") != trace_key(
            changed, MACHINE, "ursa"
        )

    def test_sensitive_to_machine(self):
        trace = parse_trace(TRACE_SRC)
        key = trace_key(trace, MACHINE, "ursa")
        assert key != trace_key(
            trace, MachineModel.homogeneous(4, 8), "ursa"
        )
        assert key != trace_key(
            trace, MachineModel.homogeneous(2, 4, latency=2), "ursa"
        )

    def test_sensitive_to_method_engine_extra(self):
        trace = parse_trace(TRACE_SRC)
        key = trace_key(trace, MACHINE, "ursa")
        assert key != trace_key(trace, MACHINE, "postpass")
        assert key != trace_key(
            trace, MACHINE, "ursa", extra=("resilient",)
        )

    def test_classifier_behavior_is_keyed(self):
        trace = parse_trace(TRACE_SRC)
        dual = MachineModel.dual_regclass(2, 4, 4)
        assert trace_key(trace, dual, "ursa") != trace_key(
            trace, MACHINE, "ursa"
        )

    def test_stable_across_processes(self):
        # The content address must be reproducible in a fresh
        # interpreter, or cross-run cache hits cannot exist.
        trace = parse_trace(TRACE_SRC)
        local = trace_key(trace, MACHINE, "ursa")
        script = (
            "from repro.ir.parser import parse_trace\n"
            "from repro.machine.model import MachineModel\n"
            "from repro.serve.cache import trace_key\n"
            f"trace = parse_trace({TRACE_SRC!r})\n"
            "print(trace_key(trace, MachineModel.homogeneous(2, 4), 'ursa'))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        ).stdout.strip()
        assert remote == local


# ======================================================================
# The persistent store.
# ======================================================================
class TestCompileCache:
    def test_round_trip_fresh_instance(self, tmp_path):
        root = tmp_path / "store"
        compiled = compile_program(
            parse_program(PROGRAM_SRC), MACHINE, cache=root
        )
        assert compiled.cache_hits == 0 and compiled.cache_misses == 2

        # A brand-new cache object on the same root: pure disk hits.
        again = compile_program(
            parse_program(PROGRAM_SRC), MACHINE, cache=root
        )
        assert again.cache_hits == 2 and again.cache_misses == 0
        for head in compiled.traces:
            assert program_signature(
                compiled.traces[head].program
            ) == program_signature(again.traces[head].program)
        _, ok = verify_compiled_program(again, {("v", 0): 5})
        assert ok

    def test_cached_artifact_is_correct_cross_process(self, tmp_path):
        # Populate the store from a *different* interpreter, then hit
        # it here: the artifact must unpickle and verify.
        root = tmp_path / "store"
        script = (
            "from repro.ir.parser import parse_program\n"
            "from repro.machine.model import MachineModel\n"
            "from repro.program_compiler import compile_program\n"
            f"compiled = compile_program(parse_program({PROGRAM_SRC!r}),\n"
            f"    MachineModel.homogeneous(2, 4), cache={str(root)!r})\n"
            "assert compiled.cache_misses == 2, compiled.cache_misses\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        compiled = compile_program(
            parse_program(PROGRAM_SRC), MACHINE, cache=root
        )
        assert compiled.cache_hits == 2 and compiled.cache_misses == 0
        _, ok = verify_compiled_program(compiled, {("v", 0): 5})
        assert ok

    def test_corrupt_object_is_a_miss(self, cache):
        trace = parse_trace(TRACE_SRC)
        key = trace_key(trace, MACHINE, "ursa")
        path = cache._object_path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not path.exists()  # deleted on first read

    def test_hot_memo_skips_disk(self, cache):
        compiled = compile_program(
            parse_program(PROGRAM_SRC), MACHINE, cache=cache
        )
        assert compiled.cache_misses == 2
        # Same cache object: the memo answers without touching disk.
        for path in cache._objects():
            path.unlink()
        again = compile_program(
            parse_program(PROGRAM_SRC), MACHINE, cache=cache
        )
        assert again.cache_hits == 2
        assert cache.hot_hits >= 2

    def test_clean_deadline_compile_is_cached(self, cache):
        # One scoring path in every mode: a deadline that never trips
        # yields exactly the plain compile, so it is stored and served.
        plain = compile_program(parse_program(PROGRAM_SRC), MACHINE)
        first = compile_program(
            parse_program(PROGRAM_SRC), MACHINE,
            cache=cache, deadline_ms=60_000,
        )
        assert first.cache_misses == 2
        assert cache.stats()["entries"] == 2
        again = compile_program(
            parse_program(PROGRAM_SRC), MACHINE,
            cache=cache, deadline_ms=60_000,
        )
        assert again.cache_hits == 2 and again.cache_misses == 0
        for head, compiled in plain.traces.items():
            assert program_signature(compiled.program) == program_signature(
                again.traces[head].program
            )

    def test_gc_and_clear(self, cache):
        compile_program(parse_program(PROGRAM_SRC), MACHINE, cache=cache)
        assert cache.stats()["entries"] == 2
        outcome = cache.gc(max_bytes=0)
        assert outcome["removed"] == 2 and outcome["remaining"] == 0
        # Fresh instance (no hot memo): the recompile rewrites the store.
        refill = CompileCache(cache.root)
        compile_program(parse_program(PROGRAM_SRC), MACHINE, cache=refill)
        assert refill.clear() == 2
        assert refill.stats()["entries"] == 0

    def test_resolve_cache_forms(self, tmp_path, cache):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(cache) is cache
        store = resolve_cache(tmp_path / "elsewhere")
        assert isinstance(store, CompileCache)
        assert store.root == tmp_path / "elsewhere"


# ======================================================================
# Sharded parallel compilation.
# ======================================================================
class TestParallelCompile:
    def _identical(self, serial, parallel):
        assert sorted(serial.traces) == sorted(parallel.traces)
        for head in serial.traces:
            assert program_signature(
                serial.traces[head].program
            ) == program_signature(parallel.traces[head].program), head

    def test_bit_identical_to_serial(self):
        program = parse_program(PROGRAM_SRC)
        serial = compile_program(program, MACHINE)
        parallel = compile_program(program, MACHINE, jobs=2)
        self._identical(serial, parallel)
        run_s, ok_s = verify_compiled_program(serial, {("v", 0): 5})
        run_p, ok_p = verify_compiled_program(parallel, {("v", 0): 5})
        assert ok_s and ok_p
        assert run_s.cycles == run_p.cycles
        assert run_s.user_memory() == run_p.user_memory()

    def test_bit_identical_on_random_programs(self):
        from repro.workloads.random_programs import random_structured_program

        for seed in (7, 11):
            program = random_structured_program(seed=seed)
            serial = compile_program(program, MACHINE)
            parallel = compile_program(program, MACHINE, jobs=2)
            self._identical(serial, parallel)

    def test_parallel_populates_shared_cache(self, cache):
        program = parse_program(PROGRAM_SRC)
        first = compile_program(program, MACHINE, jobs=2, cache=cache)
        assert first.cache_misses == 2
        second = compile_program(program, MACHINE, jobs=2, cache=cache)
        assert second.cache_hits == 2 and second.cache_misses == 0
        self._identical(first, second)

    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        from repro import obs

        def broken_spawn(self, worker_id):
            raise OSError("no process spawning here")

        monkeypatch.setattr(
            "repro.serve.pool.WorkerPool._spawn", broken_spawn
        )
        program = parse_program(PROGRAM_SRC)
        with obs.capture() as observer:
            compiled = compile_program(program, MACHINE, jobs=2)
        assert observer.counters["serve.pool.unavailable"] == 1
        serial = compile_program(program, MACHINE)
        self._identical(serial, compiled)

    def test_no_pool_when_fewer_than_two_traces_miss(self, cache, monkeypatch):
        program = parse_program(PROGRAM_SRC)
        compile_program(program, MACHINE, jobs=2, cache=cache)

        def no_fork(*args, **kwargs):
            raise AssertionError("forked a pool for a warm-cache compile")

        monkeypatch.setattr("repro.serve.pool.WorkerPool.__init__", no_fork)
        second = compile_program(program, MACHINE, jobs=2, cache=cache)
        assert second.cache_misses == 0


# ======================================================================
# The server.
# ======================================================================
@pytest.fixture
def server(tmp_path):
    from repro.serve.server import make_server

    srv = make_server(port=0, cache=tmp_path / "store")
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    srv.app.close()


@pytest.fixture
def client(server):
    from repro.serve.client import ServeClient

    host, port = server.server_address[:2]
    return ServeClient(f"http://{host}:{port}")


class TestServer:
    def test_health_and_stats_routes(self, client):
        assert client.health()
        stats = client.stats()
        assert stats["ok"] and stats["config"]["caching"]

    def test_stats_report_method_catalogue(self, client):
        from repro.methods import method_names

        stats = client.stats()
        entries = stats["methods"]
        assert [e["name"] for e in entries] == list(method_names())
        by_name = {e["name"]: e for e in entries}
        assert by_name["bnb-exact"]["capabilities"]["exact"]
        assert by_name["ursa"]["ladder"][-1] == "spill-everywhere"

    def test_unknown_method_rejected_with_catalogue(self):
        from repro.serve.protocol import handle_payload

        status, body = handle_payload(
            {"source": TRACE_SRC, "method": "bogus"}, cache=None
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "known methods" in body["error"]["message"]
        assert "ursa" in body["error"]["message"]

    def test_trace_compile_and_hot_hit(self, client):
        first = client.compile_trace(
            TRACE_SRC, machine={"fus": 2, "regs": 4}, verify=True
        )
        assert first["verified"] is True
        assert first["cache"] == {
            "hit": False, "hot": False, "key": first["cache"]["key"]
        }
        second = client.compile_trace(TRACE_SRC, machine={"fus": 2, "regs": 4})
        assert second["cache"]["hit"] and second["cache"]["hot"]
        assert first["program"] == second["program"]

    def test_program_compile(self, client):
        result = client.compile_program(
            PROGRAM_SRC, machine={"preset": "research"},
            memory={"v": 5},
        )
        assert result["verified"] is True
        assert result["cache"] == {"hits": 0, "misses": 2}
        assert result["dispatch_path"][0] == "start"

    def test_batch_isolates_failures(self, client):
        responses = client.batch([
            {"kind": "trace", "source": TRACE_SRC, "id": "good"},
            {"kind": "trace", "source": "definitely ( not code", "id": "bad"},
            {"kind": "trace", "source": TRACE_SRC, "method": "nope"},
        ])
        assert [r["ok"] for r in responses] == [True, False, False]
        assert responses[0]["id"] == "good"
        assert responses[1]["error"]["code"] == "parse_error"
        assert responses[2]["error"]["code"] == "bad_request"

    def test_error_codes_and_statuses(self, client):
        from repro.serve.client import ServeError

        with pytest.raises(ServeError) as err:
            client.compile_trace("garbage ( <<")
        assert err.value.code == "parse_error" and err.value.status == 400

        with pytest.raises(ServeError) as err:
            client.compile_trace(TRACE_SRC, machine={"preset": "atari"})
        assert err.value.code == "bad_request" and err.value.status == 400

        with pytest.raises(ServeError) as err:
            client._request("POST", "/v1/compile", {"kind": "sculpture"})
        assert err.value.code == "bad_request"

    def test_stats_reflect_traffic(self, client):
        client.compile_trace(TRACE_SRC)
        client.compile_trace(TRACE_SRC)
        counters = client.stats()["counters"]
        assert counters["serve.requests"] >= 2
        assert counters["serve.cache_hit"] >= 1
        session = client.cache_stats()["session"]
        assert session["hits"] >= 1 and session["puts"] >= 1


class TestProtocolUnit:
    def test_handle_payload_without_server(self):
        from repro.serve.protocol import handle_payload

        status, body = handle_payload(
            {"kind": "trace", "source": TRACE_SRC}, cache=None
        )
        assert status == 200 and body["ok"]
        status, body = handle_payload({"kind": "trace"}, cache=None)
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_oversized_batch_rejected(self):
        from repro.serve.protocol import handle_payload

        status, body = handle_payload(
            {"requests": [{"kind": "trace"}] * 5}, cache=None, max_batch=4
        )
        assert status == 400 and "max_batch" in body["error"]["message"]

    def _deadline_request(self, deadline_ms):
        from repro.workloads.kernels import kernel

        source = "\n".join(str(inst) for inst in kernel("figure2"))
        return {
            "kind": "trace", "source": source,
            "machine": {"fus": 2, "regs": 3},
            "options": {"deadline_ms": deadline_ms},
        }

    def test_clean_deadline_request_hits_cache(self, cache):
        from repro.serve.protocol import handle_payload

        _, plain = handle_payload(
            {**self._deadline_request(None), "options": {}}, cache=None
        )
        _, first = handle_payload(self._deadline_request(60_000), cache=cache)
        _, second = handle_payload(self._deadline_request(60_000), cache=cache)
        assert first["result"]["degradation"] is None
        assert not first["result"]["cache"]["hit"]
        assert second["result"]["cache"]["hit"]
        assert second["result"]["program"] == plain["result"]["program"]

    def test_tripped_deadline_request_is_not_stored(self, cache):
        from repro.serve.protocol import handle_payload

        # A zero budget trips at the allocator's first expiry check.
        status, body = handle_payload(self._deadline_request(0), cache=cache)
        assert status == 200 and body["ok"]
        degradation = body["result"]["degradation"]
        assert degradation["degraded"]
        assert degradation["deadline_tripped"] == "time"
        assert cache.stats()["entries"] == 0

    def test_hot_flag_ignores_other_threads_hot_hits(self, tmp_path):
        from repro.serve.protocol import handle_payload

        other = {"kind": "trace", "source": "x = load [Q]\nstore [R], x"}
        # Fill the store, then serve from a fresh instance: the trace is
        # on disk only, while `other` is in the memory memo.
        handle_payload(
            {"kind": "trace", "source": TRACE_SRC},
            cache=CompileCache(tmp_path),
        )
        cache = CompileCache(tmp_path)
        _, warm = handle_payload(other, cache=cache)
        other_key = warm["result"]["cache"]["key"]
        real_get = cache.get

        def get_then_interleave(key):
            artifact = real_get(key)
            # Another request thread lands a hot hit right after ours.
            thread = threading.Thread(target=real_get, args=(other_key,))
            thread.start()
            thread.join()
            return artifact

        cache.get = get_then_interleave
        hot_before = cache.hot_hits
        _, body = handle_payload(
            {"kind": "trace", "source": TRACE_SRC}, cache=cache
        )
        assert cache.hot_hits == hot_before + 1  # the other thread's
        assert body["result"]["cache"]["hit"] is True
        assert body["result"]["cache"]["hot"] is False

    def test_machine_from_spec(self):
        from repro.serve.protocol import ProtocolError, machine_from_spec

        assert machine_from_spec(None).name == "vliw-4fu-8r"
        assert machine_from_spec({"preset": "research"}).total_fus > 0
        classed = machine_from_spec({"fus": 4, "regs": 8, "classed": True})
        assert len(classed.fu_classes) > 1
        with pytest.raises(ProtocolError):
            machine_from_spec({"warp": 9})

    @pytest.mark.parametrize("options", [
        {"seed": "abc", "verify": True},
        {"seed": [1], "verify": True},
        {"deadline_ms": "soon"},
        {"deadline_ms": -1},
        {"deadline_ms": True},
    ], ids=["seed-text", "seed-list", "deadline-text", "deadline-negative",
            "deadline-bool"])
    def test_bad_option_types_are_bad_requests(self, cache, options):
        from repro.serve.protocol import handle_payload

        request = {"kind": "trace", "source": TRACE_SRC}
        answers = [handle_payload({**request, "options": options}, cache)]
        handle_payload(request, cache)  # now the trace is a memo hit
        answers.append(handle_payload({**request, "options": options}, cache))
        for status, body in answers:
            assert status == 400
            assert body["error"]["code"] == "bad_request"
        # Rejected before any lookup: only the plain request touched it.
        assert (cache.hits, cache.misses) == (0, 1)

    def test_seed_is_normalized_to_int(self, cache):
        from repro.serve.protocol import handle_payload

        request = {"kind": "trace", "source": TRACE_SRC}
        _, as_int = handle_payload(
            {**request, "options": {"verify": True, "seed": 7}}, cache
        )
        _, as_text = handle_payload(
            {**request, "options": {"verify": True, "seed": "7"}}, cache
        )
        assert as_int["result"]["verified"] is as_text["result"]["verified"]
        assert as_text["result"]["cache"]["hot"]


# ======================================================================
# The hot route: a memo hit answers from memory.
# ======================================================================
def _hot_traces():
    """The serve-mix hot pool: every kernel, then the example traces
    that are not a copy of one."""
    from repro.workloads import KERNELS

    traces = {
        name: "\n".join(str(inst) for inst in factory()) + "\n"
        for name, factory in KERNELS.items()
    }
    rendered = set(traces.values())
    examples = Path(__file__).resolve().parents[1] / "examples" / "traces"
    for path in sorted(examples.glob("*.ursa")):
        source = path.read_text()
        text = "\n".join(str(inst) for inst in parse_trace(source)) + "\n"
        if text not in rendered:
            traces[f"example-{path.stem}"] = source
    return traces


HOT_OPTIONS = (
    {"verify": True},
    {},
    {"verify": False},
    {"verify": True, "seed": 7},
    {"verify": True, "deadline_ms": 60_000},
    {"verify": True, "resilient": True},
    {"verify": True, "seed": 7, "resilient": True},
)


def _trace_request(source, options=None, machine=None):
    return {
        "kind": "trace", "source": source,
        "machine": machine or {"preset": "research"},
        "method": "ursa", "options": options or {},
    }


@pytest.fixture
def count_parses(monkeypatch):
    """Counts ``_parse_or_reject`` calls (the full path's first step)."""
    import repro.serve.protocol as protocol

    calls = []
    real = protocol._parse_or_reject

    def spy(source):
        calls.append(source)
        return real(source)

    monkeypatch.setattr(protocol, "_parse_or_reject", spy)
    return calls


def _count_gets(cache):
    calls = []
    real = cache.get

    def spy(key):
        calls.append(key)
        return real(key)

    cache.get = spy
    return calls


class TestHotRoute:
    def test_hits_are_byte_identical_to_a_fresh_server(
        self, cache, count_parses
    ):
        from repro.serve.protocol import handle_payload

        traces = _hot_traces()
        assert len(traces) == 16
        requests = [
            _trace_request(source, options)
            for source in traces.values() for options in HOT_OPTIONS
        ]
        fresh = [handle_payload(r, cache=None) for r in requests]
        for request in requests:  # fill the memo, verdicts and index
            handle_payload(request, cache)
        del count_parses[:]
        degraded = 0
        for request, (status, expected) in zip(requests, fresh):
            got_status, got = handle_payload(request, cache)
            if (expected["result"]["degradation"] or {}).get("degraded"):
                degraded += 1  # never stored, so compiled afresh
            else:
                assert got["result"]["cache"] == {
                    "hit": True, "hot": True,
                    "key": expected["result"]["cache"]["key"],
                }
                got["result"]["cache"] = expected["result"]["cache"]
            assert got_status == status == 200
            assert json.dumps(got) == json.dumps(expected)
        # Every stored answer was recalled by its text, unparsed.
        assert degraded < len(requests) // 10
        assert len(count_parses) == degraded

    def test_swapped_program_is_verified_again(self, cache):
        from repro.serve.protocol import handle_payload

        wrong_src = TRACE_SRC.replace("t0 * a", "t0 - a")
        _, right = handle_payload(
            _trace_request(TRACE_SRC, {"verify": True}), cache
        )
        _, wrong = handle_payload(
            _trace_request(wrong_src, {"verify": True}), cache
        )
        assert right["result"]["verified"] and wrong["result"]["verified"]
        key = right["result"]["cache"]["key"]
        wrong_program = cache.get(wrong["result"]["cache"]["key"]).program
        cache.get(key).program = wrong_program

        _, body = handle_payload(
            _trace_request(TRACE_SRC, {"verify": True}), cache
        )
        assert body["result"]["verified"] is False
        assert body["result"]["program"] == str(wrong_program)
        assert body["result"]["program"] == wrong["result"]["program"]
        assert body["result"]["program"] != right["result"]["program"]

    def test_ill_formed_source_is_never_indexed(self, cache, count_parses):
        from repro.serve.protocol import handle_payload

        ill_formed = _trace_request(
            "a = x + 1\nstore [B], a\nx = load [A]", {"verify": True}
        )
        first = handle_payload(ill_formed, cache)
        second = handle_payload(ill_formed, cache)
        assert first[0] == 422 and first[1]["error"]["code"] == "ill_formed"
        assert first[1]["error"]["diagnostics"]
        assert second == first
        assert len(count_parses) == 2
        assert cache._index == {}
        assert (cache.hits, cache.misses) == (0, 0)

    def test_text_hit_calls_get_once_and_counts_like_a_full_hit(
        self, cache, count_parses
    ):
        from repro.serve.protocol import handle_payload

        other = "x = load [Q]\ny = x * x\nstore [R], y\n"
        sequence = [
            (TRACE_SRC, {"verify": True}),        # miss
            (TRACE_SRC, {"verify": True}),        # text hit
            (TRACE_SRC, {"verify": True, "seed": 7}),  # new verdict
            (TRACE_SRC, {"verify": True, "seed": "7"}),  # text hit
            (TRACE_SRC, {}),                      # text hit
            (other, {"verify": True}),            # miss
            (TRACE_SRC, {"verify": False}),       # text hit
        ]
        gets = _count_gets(cache)
        for number, (source, options) in enumerate(sequence, 1):
            status, _ = handle_payload(_trace_request(source, options), cache)
            assert status == 200
            assert len(gets) == number
        # What every request paid at the parent, one lookup each.
        assert (cache.hits, cache.hot_hits, cache.misses) == (5, 5, 2)
        assert len(count_parses) == 3  # two misses and the new seed

    def test_eviction_drops_index_and_verdicts(self, tmp_path, count_parses):
        from repro.serve.protocol import handle_payload

        cache = CompileCache(tmp_path / "store", memory_entries=1)
        other = "x = load [Q]\ny = x * x\nstore [R], y\n"
        request = _trace_request(TRACE_SRC, {"verify": True})
        _, first = handle_payload(request, cache)
        handle_payload(_trace_request(other, {"verify": True}), cache)
        key = first["result"]["cache"]["key"]
        assert key not in cache._index.values()  # evicted with its entry
        del count_parses[:]

        _, again = handle_payload(request, cache)
        assert count_parses == [TRACE_SRC]  # the full path
        assert again["result"]["cache"] == {
            "hit": True, "hot": False, "key": key,
        }
        again["result"]["cache"] = first["result"]["cache"]
        assert json.dumps(again) == json.dumps(first)

    def test_key_re_memoized_after_recall_still_verifies(
        self, cache, count_parses
    ):
        from repro.serve.protocol import handle_payload

        request = _trace_request(TRACE_SRC, {"verify": True})
        _, first = handle_payload(request, cache)
        real_get = cache.get

        def get_then_reload(key):
            artifact = real_get(key)
            # Another request thread re-memoizes the key from disk.
            blob = cache._object_path(key).read_bytes()
            cache._memoize(key, pickle.loads(blob))
            return artifact

        cache.get = get_then_reload
        del count_parses[:]
        _, body = handle_payload(request, cache)
        assert count_parses == [TRACE_SRC]  # parsed only to verify
        assert body["result"]["cache"]["hit"] and body["result"]["verified"]
        body["result"]["cache"] = first["result"]["cache"]
        assert json.dumps(body) == json.dumps(first)

    def test_concurrent_requests_keep_memo_and_index_consistent(
        self, tmp_path
    ):
        from repro.serve.protocol import handle_payload

        sources = [
            TRACE_SRC,
            TRACE_SRC.replace("t0 * a", "t0 - a"),
            "x = load [Q]\ny = x * x\nstore [R], y\n",
        ]
        requests = [
            _trace_request(source, options, machine={"fus": 2, "regs": 4})
            for source in sources
            for options in ({"verify": True}, {"verify": True, "seed": 3}, {})
        ]

        def answer(body):
            return body["result"]["program"], body["result"]["verified"]

        expected = [answer(handle_payload(r, cache=None)[1]) for r in requests]
        # Two memo slots for three traces: evictions and disk re-reads
        # race the recalls.
        cache = CompileCache(tmp_path / "store", memory_entries=2)
        errors = []
        per_thread = 40

        def client(offset):
            try:
                for i in range(per_thread):
                    n = (offset + 7 * i) % len(requests)
                    status, body = handle_payload(requests[n], cache)
                    if status != 200 or answer(body) != expected[n]:
                        errors.append((n, status, body))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(t,)) for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # One lookup per request, never two.
        assert cache.hits + cache.misses == 8 * per_thread
        for digest, key in cache._index.items():
            assert digest in cache._memo[key].sources
        for key, entry in cache._memo.items():
            assert all(cache._index[d] == key for d in entry.sources)

