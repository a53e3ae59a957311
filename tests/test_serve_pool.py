"""Tests for the supervised worker pool and the service-hardening layer.

Four properties carry the robustness story (docs/serving.md runbook):

* **crash recovery** — a worker SIGKILLed mid-shard is restarted under
  capped exponential backoff and the shard is requeued; the request
  completes with output bit-identical (``program_signature``) to a
  serial compile;
* **quarantine** — a trace key that keeps killing workers is
  circuit-broken and compiled in-parent under the resilient fallback
  ladder, with the ``DegradationReport`` recording the quarantine,
  instead of crash-looping the pool;
* **admission + drain** — requests beyond the queue watermark are shed
  with 503 + ``Retry-After`` (never a hang or a 500), draining servers
  reject new work while finishing in-flight work, and the cache/obs
  flush happens exactly once;
* **client resilience** — :class:`ServeClient` absorbs connection
  resets and 503s with jittered capped backoff inside its retry
  budget.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro import obs
from repro.ir.parser import parse_program, parse_trace
from repro.machine.model import MachineModel
from repro.pipeline import compile_trace
from repro.program_compiler import compile_program, verify_compiled_program
from repro.resilience import SERVICE_FAULTS, ChaosMonkey, chaos_scope
from repro.serve.cache import CompileCache, program_signature, trace_key
from repro.serve.pool import WorkerPool
from repro.serve.supervisor import (
    QuarantineRegistry,
    RestartPolicy,
    Supervisor,
)

TRACE_SRC = """\
a = load [A]
b = load [B]
t0 = a + b
t1 = t0 * a
store [OUT], t1
"""

#: The magic constant lets a monkeypatched shard compiler recognise the
#: poisoned trace inside a forked worker (see TestQuarantine).
POISON_SRC = """\
a = load [A]
b = a + 13579
store [B], b
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

#: Fast supervision for tests: near-instant restarts, short watchdog.
FAST = {
    "restart_policy": RestartPolicy(base_delay_s=0.01, cap_delay_s=0.1),
}


def _identical(serial, pooled):
    assert sorted(serial.traces) == sorted(pooled.traces)
    for head in serial.traces:
        assert program_signature(
            serial.traces[head].program
        ) == program_signature(pooled.traces[head].program), head


@pytest.fixture
def pool():
    worker_pool = WorkerPool(workers=2, **FAST)
    yield worker_pool
    worker_pool.shutdown()


# ======================================================================
# Supervision policy (no processes).
# ======================================================================
class TestRestartPolicy:
    def test_capped_exponential_backoff(self):
        policy = RestartPolicy(base_delay_s=0.05, cap_delay_s=2.0)
        delays = [policy.delay_for(n) for n in range(1, 9)]
        assert delays[:3] == [0.05, 0.1, 0.2]
        assert delays == sorted(delays)
        assert delays[-1] == 2.0  # capped, not 0.05 * 2**7

    def test_exhaustion_bar(self):
        policy = RestartPolicy(max_consecutive=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)

    def test_success_resets_consecutive_failures(self):
        supervisor = Supervisor(1, RestartPolicy(max_consecutive=3))
        state = supervisor.states[0]
        supervisor.on_death(state, None)
        supervisor.on_death(state, None)
        assert state.consecutive_failures == 2
        supervisor.on_task_done(state)
        assert state.consecutive_failures == 0

    def test_backoff_gates_restart(self):
        supervisor = Supervisor(1, RestartPolicy(base_delay_s=10.0))
        state = supervisor.states[0]
        supervisor.on_death(state, None)
        assert not supervisor.may_restart(state)
        assert supervisor.may_restart(state, now=state.not_before + 1)

    def test_exhausted_slot_never_restarts_and_unhealthy(self):
        supervisor = Supervisor(
            1, RestartPolicy(base_delay_s=0.0, max_consecutive=2)
        )
        state = supervisor.states[0]
        supervisor.on_death(state, None)
        assert supervisor.healthy()
        supervisor.on_death(state, None)
        assert not supervisor.may_restart(state, now=time.monotonic() + 99)
        assert not supervisor.healthy()


class TestQuarantineRegistry:
    def test_trips_at_threshold(self):
        registry = QuarantineRegistry(threshold=2)
        assert not registry.record_death("k")
        assert not registry.hit("k")
        assert registry.record_death("k")
        assert registry.hit("k")
        snapshot = registry.snapshot()
        assert snapshot["keys"] == ["k"] and snapshot["trips"] == 1

    def test_keys_are_independent(self):
        registry = QuarantineRegistry(threshold=2)
        registry.record_death("a")
        registry.record_death("b")
        assert not registry.hit("a") and not registry.hit("b")


# ======================================================================
# The happy path: warm pool, bit-identical, reused across batches.
# ======================================================================
class TestWorkerPool:
    def test_bit_identical_to_serial(self, pool):
        program = parse_program(PROGRAM_SRC)
        serial = compile_program(program, MACHINE)
        pooled = compile_program(program, MACHINE, pool=pool)
        _identical(serial, pooled)
        run_s, ok_s = verify_compiled_program(serial, {("v", 0): 5})
        run_p, ok_p = verify_compiled_program(pooled, {("v", 0): 5})
        assert ok_s and ok_p and run_s.cycles == run_p.cycles

    def test_workers_reused_across_batches(self, pool):
        pids_before = [state.pid for state in pool.supervisor.states]
        for _ in range(3):
            compile_program(parse_program(PROGRAM_SRC), MACHINE, pool=pool)
        assert [state.pid for state in pool.supervisor.states] == pids_before
        assert sum(s.tasks_done for s in pool.supervisor.states) == 6
        assert pool.supervisor.parent_compiles == 0

    def test_fresh_uids_do_not_collide_with_shipped_ones(self, pool):
        # Workers fork before the parent parses anything, so their uid
        # counters trail the shipped instructions — the pool must lift
        # them (ensure_uid_floor) or DAG node identity corrupts.  Parse
        # *after* the pool exists to pin the regression.
        program = parse_program(PROGRAM_SRC)
        pooled = compile_program(program, MACHINE, pool=pool)
        assert pool.supervisor.parent_compiles == 0
        _identical(compile_program(program, MACHINE), pooled)

    def test_unpicklable_machine_compiles_in_parent(self, pool):
        from dataclasses import replace

        from repro.machine.model import default_reg_class

        # A lambda classifier cannot cross the process boundary.
        machine = replace(
            MACHINE, reg_class_of=lambda name: default_reg_class(name)
        )
        traces = [parse_trace(TRACE_SRC), parse_trace(POISON_SRC)]
        shards = [(trace_key(t, machine, "ursa"), t) for t in traces]
        with obs.capture() as observer:
            artifacts = pool.map_shards(shards, machine, "ursa")
        assert [a.key for a in artifacts] == [key for key, _ in shards]
        for artifact, trace in zip(artifacts, traces):
            assert artifact.degradation is None
            assert program_signature(artifact.program) == program_signature(
                compile_trace(trace, MACHINE, verify=False).program
            )
        assert observer.counters["serve.pool.unpicklable"] == 1
        assert observer.counters["serve.pool.parent_compiles"] == 2
        assert "serve.pool.dispatched" not in observer.counters

    def test_closed_pool_compiles_in_parent(self):
        worker_pool = WorkerPool(workers=1, **FAST)
        worker_pool.shutdown()
        trace = parse_trace(TRACE_SRC)
        key = trace_key(trace, MACHINE, "ursa")
        (artifact,) = worker_pool.map_shards([(key, trace)], MACHINE, "ursa")
        assert artifact.key == key and artifact.degradation is None
        assert program_signature(artifact.program) == program_signature(
            compile_trace(trace, MACHINE, verify=False).program
        )
        assert worker_pool.supervisor.parent_compiles == 1

    def test_snapshot_during_a_batch_leaves_results_alone(self, pool):
        program = parse_program(PROGRAM_SRC)
        serial = compile_program(program, MACHINE)
        stop = threading.Event()
        snapshots = []

        def poll():
            while not stop.is_set():
                snapshots.append(pool.snapshot())

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            monkey = ChaosMonkey(seed=5, faults=("slow_shard",), rate=1.0)
            with chaos_scope(monkey):
                pooled = compile_program(program, MACHINE, pool=pool)
        finally:
            stop.set()
            poller.join(10)
        assert not poller.is_alive()
        _identical(serial, pooled)
        assert monkey.injected("slow_shard") >= 1 and snapshots
        assert pool.supervisor.parent_compiles == 0
        assert pool.supervisor.deaths == 0

    def test_workers_start_with_no_inherited_capture(self, monkeypatch):
        import repro.serve.pool as pool_mod

        real = pool_mod._compile_one

        def reporting(*args):
            artifact = real(*args)
            artifact.degradation = {
                "pid": os.getpid(), "observed": obs.active() is not None,
            }
            return artifact

        monkeypatch.setattr(pool_mod, "_compile_one", reporting)
        trace = parse_trace(TRACE_SRC)
        with obs.capture():  # open before the fork, like ServeApp's
            worker_pool = WorkerPool(workers=1, **FAST)
            try:
                (artifact,) = worker_pool.map_shards(
                    [(trace_key(trace, MACHINE, "ursa"), trace)],
                    MACHINE, "ursa",
                )
            finally:
                worker_pool.shutdown()
        assert artifact.degradation["pid"] != os.getpid()
        assert artifact.degradation["observed"] is False

    def test_spawn_failure_stops_started_workers(self, monkeypatch):
        import multiprocessing.context

        real_start = multiprocessing.context.ForkProcess.start
        started = []

        def start_once(process):
            if started:
                raise OSError("no more processes")
            real_start(process)
            started.append(process)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_once)
        with pytest.raises(OSError):
            WorkerPool(workers=2, **FAST)
        assert len(started) == 1
        assert not started[0].is_alive()

    def test_snapshot_shape(self, pool):
        snapshot = pool.snapshot()
        assert snapshot["size"] == 2 and snapshot["alive"] == 2
        assert snapshot["healthy"] and not snapshot["closed"]
        assert len(snapshot["workers"]) == 2
        for worker in snapshot["workers"]:
            assert worker["alive"] and worker["pid"] is not None
        json.dumps(snapshot)  # must stay JSON-renderable for /v1/stats


# ======================================================================
# Crash recovery and the chaos sweep.
# ======================================================================
class TestCrashRecovery:
    def test_sigkilled_worker_restarts_and_output_is_bit_identical(self):
        program = parse_program(PROGRAM_SRC)
        serial = compile_program(program, MACHINE)
        with obs.capture() as observer:
            worker_pool = WorkerPool(workers=2, quarantine_threshold=3, **FAST)
            try:
                monkey = ChaosMonkey(seed=7, faults=("worker_kill",), rate=1.0)
                with chaos_scope(monkey):
                    pooled = compile_program(program, MACHINE, pool=worker_pool)
            finally:
                worker_pool.shutdown()
        _identical(serial, pooled)
        assert monkey.injected("worker_kill") >= 1
        assert observer.counters.get("serve.pool.worker_deaths", 0) >= 1
        assert observer.counters.get("serve.pool.restarts", 0) >= 1
        # rate 1.0 kills every dispatch, so both keys must end up
        # quarantined rather than crash-looping forever.
        assert observer.counters.get("serve.quarantine.trips", 0) == 2

    def test_25_seed_kill_sweep_never_corrupts_output(self):
        program = parse_program(PROGRAM_SRC)
        serial = compile_program(program, MACHINE)
        deaths = 0
        worker_pool = WorkerPool(workers=2, **FAST)
        try:
            for seed in range(25):
                monkey = ChaosMonkey(
                    seed=seed, faults=("worker_kill",), rate=0.4
                )
                with chaos_scope(monkey):
                    pooled = compile_program(program, MACHINE, pool=worker_pool)
                _identical(serial, pooled)
                deaths += monkey.injected("worker_kill")
        finally:
            worker_pool.shutdown()
        assert deaths >= 1, "sweep never injected a kill; rate too low?"

    def test_hung_worker_is_killed_and_shard_recovered(self):
        program = parse_program(PROGRAM_SRC)
        serial = compile_program(program, MACHINE)
        with obs.capture() as observer:
            worker_pool = WorkerPool(workers=2, hang_timeout_s=0.3, **FAST)
            try:
                monkey = ChaosMonkey(seed=3, faults=("worker_hang",), rate=1.0)
                with chaos_scope(monkey):
                    pooled = compile_program(program, MACHINE, pool=worker_pool)
            finally:
                worker_pool.shutdown()
        _identical(serial, pooled)
        assert observer.counters.get("serve.pool.hangs", 0) >= 1
        assert observer.counters.get("serve.pool.worker_deaths", 0) >= 1

    def test_slow_shard_fault_is_harmless(self):
        program = parse_program(PROGRAM_SRC)
        serial = compile_program(program, MACHINE)
        worker_pool = WorkerPool(workers=2, **FAST)
        try:
            monkey = ChaosMonkey(seed=5, faults=("slow_shard",), rate=1.0)
            with chaos_scope(monkey):
                pooled = compile_program(program, MACHINE, pool=worker_pool)
        finally:
            worker_pool.shutdown()
        _identical(serial, pooled)
        assert monkey.injected("slow_shard") >= 1
        assert worker_pool.supervisor.deaths == 0

    def test_memory_watermark_recycles_worker(self):
        worker_pool = WorkerPool(workers=1, max_worker_rss_mb=1, **FAST)
        try:
            worker_pool._rss_reader = lambda pid: 8 * 1024  # 8 MiB "RSS"
            pid_before = worker_pool.supervisor.states[0].pid
            trace = parse_trace(TRACE_SRC)
            key = trace_key(trace, MACHINE, "ursa")
            artifacts = worker_pool.map_shards([(key, trace)], MACHINE, "ursa")
            assert artifacts[0].key == key
            assert worker_pool.supervisor.mem_restarts == 1
            assert worker_pool.supervisor.states[0].pid != pid_before
            assert worker_pool.supervisor.states[0].alive
        finally:
            worker_pool.shutdown()


# ======================================================================
# Result routing and overlapping batches.
# ======================================================================
def _variant(n):
    return parse_trace(TRACE_SRC.replace("a + b", f"a + {n}"))


def _shard(trace):
    return [(trace_key(trace, MACHINE, "ursa"), trace)]


def _route_results_through(monkeypatch, wrapper):
    """Fork workers whose outbox is ``wrapper(worker_id, outbox)``."""
    import repro.serve.pool as pool_mod

    real = pool_mod._pool_worker_main

    def main(worker_id, inbox, outbox):
        real(worker_id, inbox, wrapper(worker_id, outbox))

    monkeypatch.setattr(pool_mod, "_pool_worker_main", main)


class _StaleFirst:
    """Sends the worker's first result again ahead of every later one."""

    def __init__(self, worker_id, outbox):
        self.outbox, self.first = outbox, None

    def put(self, message):
        if self.first is None:
            self.first = message
        else:
            self.outbox.put(self.first)
        self.outbox.put(message)


class _FirstEchoedByTheOtherSlot:
    """Slot 0's first result arrives twice, the copy claiming slot 1
    (a result's third field is its worker slot)."""

    def __init__(self, worker_id, outbox):
        self.outbox, self.echo = outbox, worker_id == 0

    def put(self, message):
        self.outbox.put(message)
        if self.echo:
            self.echo = False
            self.outbox.put(message[:2] + (1,) + message[3:])


class TestResultRouting:
    def test_stale_result_of_an_earlier_batch_is_dropped(self, monkeypatch):
        _route_results_through(monkeypatch, _StaleFirst)
        worker_pool = WorkerPool(workers=1, **FAST)
        try:
            for trace in (_variant(1), _variant(2), _variant(3)):
                shards = _shard(trace)
                (artifact,) = worker_pool.map_shards(shards, MACHINE, "ursa")
                assert artifact.key == shards[0][0]
            assert worker_pool.supervisor.parent_compiles == 0
        finally:
            worker_pool.shutdown()

    def test_duplicate_result_frees_no_slot(self, monkeypatch):
        _route_results_through(monkeypatch, _FirstEchoedByTheOtherSlot)
        worker_pool = WorkerPool(workers=2, **FAST)
        try:
            for n in range(6):
                shards = _shard(_variant(n))
                (artifact,) = worker_pool.map_shards(shards, MACHINE, "ursa")
                assert artifact.key == shards[0][0]
                workers = worker_pool.snapshot()["workers"]
                assert not any(worker["busy"] for worker in workers)
            assert worker_pool.supervisor.parent_compiles == 0
        finally:
            worker_pool.shutdown()

    def test_collector_survives_a_malformed_message(self, pool):
        pool._outbox.put(("result",))
        time.sleep(0.1)  # let the queue's feeder thread flush it
        shards = _shard(_variant(1))
        with obs.capture() as observer:
            (artifact,) = pool.map_shards(shards, MACHINE, "ursa")
        assert artifact.key == shards[0][0]
        assert observer.counters["serve.pool.collector_errors"] == 1
        assert pool.supervisor.parent_compiles == 0

    def test_two_batches_run_at_once_on_two_workers(self, monkeypatch):
        import multiprocessing

        import repro.serve.pool as pool_mod

        # Each worker waits inside its shard until the other holds one.
        barrier = multiprocessing.get_context("fork").Barrier(2, timeout=5)
        real = pool_mod._compile_one
        parent_pid = os.getpid()

        def meeting(*args):
            if os.getpid() != parent_pid:
                barrier.wait()
            return real(*args)

        monkeypatch.setattr(pool_mod, "_compile_one", meeting)
        answers = {}
        with obs.capture() as observer:
            worker_pool = WorkerPool(workers=2, **FAST)
            try:
                def send(n):
                    shards = _shard(_variant(n))
                    (artifact,) = worker_pool.map_shards(
                        shards, MACHINE, "ursa"
                    )
                    answers[shards[0][0]] = artifact.key

                threads = [
                    threading.Thread(target=send, args=(n,)) for n in (1, 2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
            finally:
                worker_pool.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert len(answers) == 2
        assert all(key == answer for key, answer in answers.items())
        assert worker_pool.supervisor.parent_compiles == 0
        assert "serve.pool.shard_errors" not in observer.counters

    def test_concurrent_batches_each_get_their_own_answers(self):
        import sys

        STEPS = 40

        traces = [_variant(n) for n in range(6)]
        shards = [_shard(trace)[0] for trace in traces]
        serial = {
            key: program_signature(compile_trace(trace, MACHINE).program)
            for key, trace in shards
        }
        wrong = []

        def client(offset):
            for step in range(STEPS):
                batch = [shards[(offset + step + i) % len(shards)]
                         for i in range(1 + step % 2)]
                answers = worker_pool.map_shards(batch, MACHINE, "ursa")
                for (key, _), artifact in zip(batch, answers):
                    if artifact.key != key or program_signature(
                        artifact.program
                    ) != serial[key]:
                        wrong.append((offset, step, key))

        interval = sys.getswitchinterval()
        worker_pool = WorkerPool(workers=3, **FAST)  # more than the cores
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            for thread in threads:
                thread.join(max(0.0, deadline - time.monotonic()))
            hung = [thread.is_alive() for thread in threads]  # before shutdown
        finally:
            sys.setswitchinterval(interval)
            worker_pool.shutdown()
        assert not any(hung), "a batch never returned"
        assert wrong == []
        assert worker_pool.supervisor.parent_compiles == 0
        done = sum(s.tasks_done for s in worker_pool.supervisor.states)
        assert done == 4 * STEPS * 3 // 2


# ======================================================================
# Poisoned-trace quarantine.
# ======================================================================
class TestQuarantine:
    def test_poisoned_trace_is_quarantined_not_crash_looped(self, monkeypatch):
        import repro.serve.pool as pool_mod

        real = pool_mod._compile_one
        parent_pid = os.getpid()

        def poisoned(instructions, machine, method, deadline_ms, resilient,
                     key):
            # Workers fork after this patch, so they inherit it; the
            # parent compiles the same trace fine — a genuine
            # "only dies in workers" poison.
            if os.getpid() != parent_pid and any(
                "13579" in str(inst) for inst in instructions
            ):
                os._exit(17)
            return real(instructions, machine, method, deadline_ms,
                        resilient, key)

        monkeypatch.setattr(pool_mod, "_compile_one", poisoned)
        worker_pool = WorkerPool(workers=2, quarantine_threshold=2, **FAST)
        try:
            poison = parse_trace(POISON_SRC)
            healthy = parse_trace(TRACE_SRC)
            shards = [
                (trace_key(poison, MACHINE, "ursa"), poison),
                (trace_key(healthy, MACHINE, "ursa"), healthy),
            ]
            artifacts = worker_pool.map_shards(shards, MACHINE, "ursa")
            poisoned_artifact, healthy_artifact = artifacts
            # The poisoned shard killed exactly `threshold` workers,
            # then compiled in-parent under the fallback ladder with a
            # structured DegradationReport.
            degradation = poisoned_artifact.degradation
            assert degradation["quarantined"] is True
            assert degradation["degraded"] is True
            assert degradation["worker_deaths"] >= 2
            assert worker_pool.supervisor.quarantine.snapshot()["trips"] == 1
            # The healthy shard is untouched.
            assert not (healthy_artifact.degradation or {}).get("quarantined")
            # Subsequent requests skip the pool entirely (hit, no death).
            again = worker_pool.map_shards(shards[:1], MACHINE, "ursa")
            assert again[0].degradation["quarantined"] is True
            assert worker_pool.supervisor.quarantine.hits >= 1
        finally:
            worker_pool.shutdown()


# ======================================================================
# Admission control, drain, healthz (transport-free ServeApp).
# ======================================================================
class TestAdmission:
    def test_shed_beyond_queue_depth(self):
        from repro.serve.server import ServeApp

        app = ServeApp(cache=None, queue_depth=1)
        try:
            assert app.admit() is None  # occupy the only slot
            denied = app.admit()
            assert denied is not None
            status, body, headers = denied
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            assert headers["Retry-After"] == "1"
            assert headers["Connection"] == "close"
            app.release()
            assert app.admit() is None  # slot free again
            app.release()
            assert app.shed == 1
        finally:
            app.close()

    def test_queue_flood_chaos_sheds(self):
        from repro.serve.server import ServeApp

        app = ServeApp(cache=None, queue_depth=100)
        try:
            monkey = ChaosMonkey(seed=0, faults=("queue_flood",), rate=1.0)
            with chaos_scope(monkey):
                status, body, headers = app.guarded_compile(
                    {"kind": "trace", "source": TRACE_SRC}
                )
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            assert "Retry-After" in headers
            assert monkey.injected("queue_flood") == 1
        finally:
            app.close()

    def test_service_faults_are_registered_classes(self):
        for fault in SERVICE_FAULTS:
            ChaosMonkey(seed=0, faults=(fault,))  # must not raise


class TestDrain:
    def test_graceful_drain_exactly_once(self, monkeypatch):
        import repro.serve.server as server_mod

        started = threading.Event()
        release = threading.Event()

        def slow_handle(payload, cache, **kwargs):
            started.set()
            assert release.wait(5)
            return 200, {"ok": True, "result": {"slow": True}}

        monkeypatch.setattr(server_mod, "handle_payload", slow_handle)
        app = server_mod.ServeApp(cache=None)
        inflight = {}

        def request():
            status, body, _ = app.guarded_compile({"kind": "trace"})
            inflight["status"], inflight["body"] = status, body

        thread = threading.Thread(target=request)
        thread.start()
        assert started.wait(5)
        app.begin_drain()
        # New work is rejected while draining...
        status, body, headers = app.guarded_compile({"kind": "trace"})
        assert status == 503
        assert body["error"]["code"] == "draining"
        assert headers["Retry-After"] == "1"
        # ...but the in-flight request completes.
        release.set()
        thread.join(5)
        assert inflight["status"] == 200
        assert app.drain(5) is True
        # The flush happens exactly once, however many closes race in.
        assert app.close() is True
        assert app.close() is False
        assert app.flushes == 1

    def test_drain_timeout_reports_failure(self, monkeypatch):
        import repro.serve.server as server_mod

        app = server_mod.ServeApp(cache=None)
        try:
            assert app.admit() is None  # a request that never finishes
            app.begin_drain()
            assert app.drain(0.05) is False
        finally:
            app.release()
            app.close()


class TestHealthz:
    class _FakePool:
        size = 2

        def __init__(self, healthy=True, alive=2):
            self._snapshot = {
                "size": 2, "alive": alive, "healthy": healthy,
                "workers": [], "restarts": 0, "deaths": 0, "hangs": 0,
                "mem_restarts": 0, "parent_compiles": 0,
                "quarantine": {}, "closed": False,
            }

        def snapshot(self):
            return dict(self._snapshot)

        def shutdown(self):
            pass

    def test_ok_without_pool(self):
        from repro.serve.server import ServeApp

        app = ServeApp(cache=None)
        try:
            status, body = app.health()
            assert status == 200
            assert body == {"ok": True, "status": "ok", "workers": None}
        finally:
            app.close()

    def test_degraded_pool_is_still_200(self):
        from repro.serve.server import ServeApp

        app = ServeApp(cache=None, pool=self._FakePool(healthy=False, alive=0))
        try:
            status, body = app.health()
            assert status == 200  # in-parent compiles still work
            assert body["status"] == "degraded"
            assert body["workers"]["alive"] == 0
        finally:
            app.close()

    def test_healthy_pool_reports_workers(self):
        from repro.serve.server import ServeApp

        app = ServeApp(cache=None, pool=self._FakePool())
        try:
            status, body = app.health()
            assert status == 200 and body["status"] == "ok"
            assert body["workers"]["alive"] == 2
        finally:
            app.close()

    def test_draining_is_503(self):
        from repro.serve.server import ServeApp

        app = ServeApp(cache=None)
        try:
            app.begin_drain()
            status, body = app.health()
            assert status == 503 and body["status"] == "draining"
        finally:
            app.close()
        status, body = app.health()
        assert status == 503 and body["status"] == "closed"

    def test_stats_reports_pool_and_service(self):
        from repro.serve.server import ServeApp

        app = ServeApp(cache=None, pool=self._FakePool(), queue_depth=7)
        try:
            stats = app.stats()
            assert stats["pool"]["alive"] == 2
            assert stats["service"]["queue_depth"] == 7
            assert stats["service"]["inflight"] == 0
            assert stats["config"]["workers"] == 2
        finally:
            app.close()


# ======================================================================
# Client retry/backoff.
# ======================================================================
class TestClientRetry:
    def _client(self, **kwargs):
        from repro.serve.client import ServeClient

        import random

        sleeps = []
        client = ServeClient(
            "http://127.0.0.1:1",  # never actually contacted in unit tests
            max_retries=kwargs.pop("max_retries", 3),
            backoff_base_s=kwargs.pop("backoff_base_s", 0.1),
            backoff_cap_s=kwargs.pop("backoff_cap_s", 10.0),
            sleep=sleeps.append,
            rng=random.Random(0),
            **kwargs,
        )
        return client, sleeps

    def test_retries_transient_failures_then_succeeds(self, monkeypatch):
        from repro.serve.client import _Retryable

        client, sleeps = self._client()
        attempts = []

        def flaky(method, path, payload=None):
            attempts.append(path)
            if len(attempts) < 3:
                raise _Retryable(ConnectionResetError("boom"))
            return {"ok": True, "result": {"fine": True}}

        monkeypatch.setattr(client, "_once", flaky)
        body = client._request("POST", "/v1/compile", {})
        assert body["result"]["fine"]
        assert client.retries == 2 and len(sleeps) == 2
        assert sleeps[1] > sleeps[0]  # exponential growth (jitter < 2x)

    def test_budget_exhaustion_raises_original_error(self, monkeypatch):
        from repro.serve.client import ServeError, _Retryable

        client, sleeps = self._client(max_retries=2)

        def always_shed(method, path, payload=None):
            raise _Retryable(
                ServeError({"code": "overloaded", "message": "shed"}, 503)
            )

        monkeypatch.setattr(client, "_once", always_shed)
        with pytest.raises(ServeError) as excinfo:
            client._request("POST", "/v1/compile", {})
        assert excinfo.value.status == 503
        assert client.retries == 2 and len(sleeps) == 2

    def test_honors_retry_after_as_floor(self, monkeypatch):
        from repro.serve.client import _Retryable

        client, sleeps = self._client(backoff_base_s=0.001, backoff_cap_s=9.0)
        calls = []

        def shed_once(method, path, payload=None):
            calls.append(1)
            if len(calls) == 1:
                raise _Retryable(ConnectionResetError(), retry_after=2.5)
            return {"ok": True}

        monkeypatch.setattr(client, "_once", shed_once)
        client._request("GET", "/v1/stats")
        assert sleeps == [2.5]

    def test_cap_bounds_even_retry_after(self, monkeypatch):
        from repro.serve.client import _Retryable

        client, sleeps = self._client(backoff_cap_s=0.05)

        def shed_once(method, path, payload=None):
            if not sleeps:
                raise _Retryable(ConnectionResetError(), retry_after=60.0)
            return {"ok": True}

        monkeypatch.setattr(client, "_once", shed_once)
        client._request("GET", "/v1/stats")
        assert sleeps == [0.05]

    def test_health_never_retries(self, monkeypatch):
        client, sleeps = self._client()
        assert client.health() is False  # connection refused, no retries
        assert sleeps == [] and client.retries == 0

    def test_stats_carries_retry_count(self, monkeypatch):
        client, _ = self._client()
        monkeypatch.setattr(
            client, "_once", lambda *a, **k: {"ok": True, "counters": {}}
        )
        client.retries = 5
        assert client.stats()["client"]["retries"] == 5


# ======================================================================
# End-to-end over HTTP: flood shed + client recovery, pooled server.
# ======================================================================
@pytest.fixture
def pooled_server(tmp_path):
    from repro.serve.server import make_server

    srv = make_server(
        port=0, cache=None, workers=2, queue_depth=4,
        pool_options=dict(FAST),
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    srv.app.close()


class TestPooledServer:
    def _client(self, srv, **kwargs):
        from repro.serve.client import ServeClient

        host, port = srv.server_address[:2]
        return ServeClient(f"http://{host}:{port}", timeout=30.0, **kwargs)

    def test_program_request_uses_the_pool(self, pooled_server):
        client = self._client(pooled_server)
        result = client.compile_program(
            PROGRAM_SRC, machine={"fus": 2, "regs": 4}, memory={"v": 5}
        )
        assert result["verified"]
        assert set(result["signatures"]) == set(result["traces"])
        stats = client.stats()
        assert stats["pool"]["size"] == 2
        assert stats["counters"].get("serve.pool.tasks", 0) >= 1

    def test_signatures_stable_across_requests(self, pooled_server):
        client = self._client(pooled_server)
        machine = {"fus": 2, "regs": 4}
        first = client.compile_program(PROGRAM_SRC, machine=machine, memory={"v": 5})
        second = client.compile_program(PROGRAM_SRC, machine=machine, memory={"v": 5})
        assert first["signatures"] == second["signatures"]

    def test_healthz_reports_workers(self, pooled_server):
        client = self._client(pooled_server)
        detail = client.health_detail()
        assert detail["ok"] and detail["status"] == "ok"
        assert detail["workers"]["alive"] == 2

    def test_queue_flood_is_503_and_client_recovers(self, pooled_server):
        import random

        client = self._client(
            pooled_server, max_retries=6,
            backoff_base_s=0.01, backoff_cap_s=0.05,
        )
        client._rng = random.Random(0)
        # Draws are keyed by admission index: seed 6 at rate 0.6 floods
        # admission 0 (draw 0.485) and passes admission 1 (draw 0.836):
        # exactly one shed, one transparent retry, well inside the
        # budget of 6.
        monkey = ChaosMonkey(seed=6, faults=("queue_flood",), rate=0.6)
        with chaos_scope(monkey):
            result = client.compile_trace(TRACE_SRC, machine={"fus": 2, "regs": 4})
        assert result["cycles_estimate"] > 0
        assert monkey.injected("queue_flood") >= 1, "flood never fired"
        assert client.retries >= 1, "client never had to retry"

    def test_full_flood_is_shed_never_hangs(self, pooled_server):
        from repro.serve.client import ServeError

        client = self._client(
            pooled_server, max_retries=2,
            backoff_base_s=0.01, backoff_cap_s=0.02,
        )
        monkey = ChaosMonkey(seed=0, faults=("queue_flood",), rate=1.0)
        started = time.monotonic()
        with chaos_scope(monkey):
            with pytest.raises(ServeError) as excinfo:
                client.compile_trace(TRACE_SRC)
        assert excinfo.value.status == 503  # shed, not a hang or a 500
        assert excinfo.value.code == "overloaded"
        assert time.monotonic() - started < 10.0
        assert client.retries == 2


# ======================================================================
# The trace route on a pooled server (transport-free ServeApp).
# ======================================================================
TRACE_REQUEST = {
    "kind": "trace", "source": TRACE_SRC, "machine": {"fus": 2, "regs": 4},
}


class TestPooledTraceRoute:
    def _signature(self, app, body):
        """The signature of the artifact the server cached for ``body``."""
        assert body["ok"], body
        artifact = app.cache.get(body["result"]["cache"]["key"])
        return program_signature(artifact.program)

    def _serial_signature(self, tmp_path):
        from repro.serve.server import ServeApp

        app = ServeApp(cache=tmp_path / "serial")
        try:
            _, body = app.compile(TRACE_REQUEST)
            return self._signature(app, body)
        finally:
            app.close()

    def test_trace_miss_runs_as_one_pool_task(self, tmp_path):
        from repro.serve.server import ServeApp

        app = ServeApp(cache=tmp_path / "pooled", workers=2, pool_options=FAST)
        try:
            _, body = app.compile(TRACE_REQUEST)
            counters = app.observer.counters
            assert counters["serve.pool.tasks"] == 1
            assert counters.get("serve.pool.parent_compiles", 0) == 0
            assert app.pool.supervisor.parent_compiles == 0
            assert not body["result"]["cache"]["hit"]
            pooled = self._signature(app, body)
        finally:
            app.close()
        direct = compile_trace(parse_trace(TRACE_SRC), MACHINE).program
        assert pooled == self._serial_signature(tmp_path)
        assert pooled == program_signature(direct)

    def test_worker_kill_during_trace_request_recovers(self, tmp_path):
        from repro.serve.server import ServeApp

        key = trace_key(parse_trace(TRACE_SRC), MACHINE, "ursa")

        def kills(seed, attempt):
            monkey = ChaosMonkey(seed=seed, faults=("worker_kill",), rate=0.5)
            return monkey.service_fault("worker_kill", key, attempt) is not None

        # A seed that kills the first dispatch and spares the retry.
        seed = next(s for s in range(100) if kills(s, 0) and not kills(s, 1))
        app = ServeApp(cache=tmp_path / "pooled", workers=2, pool_options=FAST)
        try:
            monkey = ChaosMonkey(seed=seed, faults=("worker_kill",), rate=0.5)
            with chaos_scope(monkey):
                _, body = app.compile(TRACE_REQUEST)
            counters = app.observer.counters
            assert monkey.injected("worker_kill") == 1
            assert counters["serve.pool.worker_deaths"] == 1
            assert counters.get("serve.pool.parent_compiles", 0) == 0
            assert body["result"]["degradation"] is None
            pooled = self._signature(app, body)
        finally:
            app.close()
        assert pooled == self._serial_signature(tmp_path)


# ======================================================================
# cache gc: bounds, determinism, counters.
# ======================================================================
class TestCacheGC:
    def _populate(self, root, count=4):
        cache = CompileCache(root)
        paths = []
        for index in range(count):
            trace = parse_trace(TRACE_SRC.replace("a + b", f"a + {index}"))
            key = trace_key(trace, MACHINE, "ursa")
            from repro.serve.pool import _compile_one

            cache.put(_compile_one(trace, MACHINE, "ursa", None, False, key))
            path = cache._object_path(key)
            stamp = 1_000_000 + index * 1000
            os.utime(path, (stamp, stamp))
            paths.append(path)
        return cache, paths

    def test_gc_counts_and_bytes(self, tmp_path):
        cache, paths = self._populate(tmp_path / "store")
        with obs.capture() as observer:
            outcome = cache.gc(max_bytes=0)
        assert outcome["removed"] == 4 and outcome["remaining"] == 0
        assert outcome["removed_bytes"] > 0
        assert observer.counters["serve.cache.gc_evicted"] == 4
        assert observer.counters["serve.cache_evict"] == 4

    def test_gc_evicts_oldest_first_deterministically(self, tmp_path):
        cache, paths = self._populate(tmp_path / "store")
        total = sum(path.stat().st_size for path in paths)
        keep = total - paths[0].stat().st_size - paths[1].stat().st_size
        outcome = cache.gc(max_bytes=keep)
        assert outcome["removed"] == 2
        # The two oldest (lowest mtime) objects went first.
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists() and paths[3].exists()

    def test_gc_by_age(self, tmp_path):
        cache, paths = self._populate(tmp_path / "store", count=2)
        now = time.time()
        os.utime(paths[1], (now, now))  # fresh
        outcome = cache.gc(max_age_days=1)
        assert outcome["removed"] == 1
        assert not paths[0].exists() and paths[1].exists()
