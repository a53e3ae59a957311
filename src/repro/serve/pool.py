"""The one process executor and the one cache-and-dispatch path.

Every trace compile goes through :func:`compile_traces`: the server's
trace route with one trace, ``compile_program`` with a program's.
Its misses run on a :class:`WorkerPool` — the warm one ``repro serve
--workers`` forks at start, or a short-lived one for
``compile_program(jobs=N)`` — or serially with :func:`_compile_one`,
the same function the workers run.  Inside a pool:

* one **collector** thread reads the workers' shared outbox.  It
  routes each result to its batch by ``(batch id, task id, attempt)``
  and drops any result its slot is not running, runs the hang
  watchdog, reaps dead workers and requeues their shards.  It blocks
  while nothing is in flight;
* ``map_shards`` registers its batch, hands pending shards to idle
  workers under a short lock and waits on the batch's own event, so
  batches from different threads overlap.  In-parent compiles run in
  the batch's own thread;
* a worker that crashes, stays busy past its hang budget, or exceeds a
  memory watermark is killed and respawned under the capped backoff of
  :class:`~repro.serve.supervisor.RestartPolicy`; its shard is
  **requeued** as a new attempt, and a trace key that keeps killing
  workers is **quarantined** (compiled in-parent under the resilient
  fallback ladder);
* compilation is deterministic, so a retried shard produces the same
  artifact: bit-identity with a serial compile (``program_signature``).

Each worker has a private inbox ``Queue`` written only by the parent;
all share one outbox written only by workers.  A worker drops the
observer capture it inherits over the fork before its first task.
``map_shards`` always returns complete, in-order artifacts: a pool
that cannot run (closed, every slot exhausted, unpicklable payload)
compiles the batch in the parent.
"""

from __future__ import annotations

import itertools
import os
import pickle
import queue
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import obs
from repro.ir.instructions import Instruction, ensure_uid_floor
from repro.machine.model import MachineModel
from repro.serve.cache import CompileCache, TraceArtifact, trace_key
from repro.serve.supervisor import RestartPolicy, Supervisor

# The outbox's one message, a plain tuple that must stay picklable and
# tiny: (_RESULT, batch, worker_id, task_id, attempt, artifact, error).
_RESULT = "result"
# Collector tick while shards are in flight (hang and liveness checks).
_POLL_S = 0.02


@dataclass(frozen=True)
class ShardTask:
    """One trace shard, shipped to a worker over its inbox queue."""

    task_id: int
    key: str
    instructions: tuple
    machine: object
    method: str
    deadline_ms: Optional[int]
    resilient: bool
    batch: int  # the ``map_shards`` call this shard belongs to
    chaos_sleep_s: float = 0.0
    #: how many times this shard was dispatched before (its chaos key).
    attempt: int = 0


def _compile_one(
    instructions: Sequence[Instruction],
    machine: MachineModel,
    method: str,
    deadline_ms: Optional[float],
    resilient: bool,
    key: str,
) -> TraceArtifact:
    """Compile one prepared trace into a :class:`TraceArtifact`.

    Shared by the pool workers, the in-parent fallbacks and the serial
    path of :func:`compile_traces`, so every route produces identical
    artifacts for identical inputs.
    """
    from repro.pipeline import compile_trace

    deadline = None
    if deadline_ms is not None:
        from repro.resilience import Deadline

        deadline = Deadline(seconds=deadline_ms / 1000.0)
    result = compile_trace(
        instructions,
        machine,
        method=method,
        verify=False,
        resilient=resilient,
        deadline=deadline,
    )
    if result.degradation is not None:
        degradation = result.degradation.to_dict()
    elif result.degraded:
        # Non-resilient compiles carry the flag too, so no route can
        # memoize an answer a tripped deadline cut short.
        degradation = {
            "requested_method": method,
            "final_method": method,
            "degraded": True,
            "deadline_tripped": result.deadline_tripped,
        }
    else:
        degradation = None
    return TraceArtifact(
        key=key,
        method=method,
        program=result.program,
        cycles_estimate=result.schedule.length,
        degradation=degradation,
    )


class TraceOutcome(NamedTuple):
    """One trace's answer from :func:`compile_traces`."""

    artifact: TraceArtifact
    key: str
    #: answered by the cache rather than compiled.
    hit: bool
    #: answered by the cache's memory memo, without reading disk.
    hot: bool


def compile_traces(
    traces: Sequence[Sequence[Instruction]],
    machine: MachineModel,
    method: str,
    cache: Optional[CompileCache] = None,
    deadline_ms: Optional[float] = None,
    resilient: bool = False,
    pool: Optional[WorkerPool] = None,
    jobs: Optional[int] = None,
) -> List[TraceOutcome]:
    """Answer each prepared trace from ``cache`` or by compiling it.

    Resilient compiles are keyed apart from plain ones, and identical
    traces in one call are looked up and compiled once.  Misses go to
    ``pool`` when given; else to a pool forked for this call when
    ``jobs`` ≥ 2 and at least two traces miss; else they compile here,
    one by one.  Every artifact that did not degrade is stored in
    ``cache``: a degraded answer (fallen down the ladder, deadline
    tripped) is never memoized.  Outcomes are in input order.
    """
    extra = ("resilient",) if resilient else ()
    keys = [trace_key(trace, machine, method, extra=extra) for trace in traces]
    answers: Dict[str, TraceOutcome] = {}
    misses: Dict[str, Sequence[Instruction]] = {}
    for key, trace in zip(keys, traces):
        if key in answers or key in misses:
            continue
        artifact = cache.get(key) if cache is not None else None
        if artifact is None:
            misses[key] = trace
        else:
            hot = cache.answered_hot()
            answers[key] = TraceOutcome(artifact, key, True, hot)
    compiled = _compile_misses(
        list(misses.items()), machine, method, deadline_ms, resilient,
        pool, jobs,
    )
    for key, artifact in zip(misses, compiled):
        answers[key] = TraceOutcome(artifact, key, False, False)
        degraded = (artifact.degradation or {}).get("degraded")
        if cache is not None and not degraded:
            cache.put(artifact)
    return [answers[key] for key in keys]


def _compile_misses(
    shards, machine, method, deadline_ms, resilient, pool, jobs
) -> List[TraceArtifact]:
    if not shards:  # all hits: never wait on another request's batch
        return []
    if pool is not None:
        return pool.map_shards(shards, machine, method, deadline_ms, resilient)
    if jobs is not None and jobs > 1 and len(shards) > 1:
        try:
            ephemeral = WorkerPool(workers=min(jobs, len(shards)))
        except OSError as exc:  # no process spawning here
            obs.count("serve.pool.unavailable")
            obs.event("serve.pool.unavailable", reason=str(exc))
        else:
            with ephemeral:
                return ephemeral.map_shards(
                    shards, machine, method, deadline_ms, resilient
                )
    return [
        _compile_one(instructions, machine, method, deadline_ms, resilient, key)
        for key, instructions in shards
    ]


def _pool_worker_main(worker_id: int, inbox, outbox) -> None:
    """Long-lived worker loop: compile shards until the ``None`` sentinel.

    Runs in the forked child.  SIGINT is ignored (Ctrl-C belongs to the
    parent's drain path); SIGTERM/SIGKILL from the supervisor just end
    the process — the parent requeues whatever we were holding.
    """
    # A capture inherited over the fork would keep every record of every
    # shard in this process's memory, where nothing ever reads it.
    from repro.obs.observer import _stack as inherited_captures

    inherited_captures.clear()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    while True:
        task = inbox.get()
        if task is None:
            return
        if task.chaos_sleep_s > 0:  # injected by service-level chaos faults
            time.sleep(task.chaos_sleep_s)
        artifact, error = None, None
        try:
            # The parent's uid counter is always ahead of ours (we forked
            # at server start); lift ours past the shipped instructions
            # or freshly synthesized uids would collide with them.
            ensure_uid_floor(
                max((inst.uid for inst in task.instructions), default=0)
            )
            artifact = _compile_one(
                list(task.instructions), task.machine, task.method,
                task.deadline_ms, task.resilient, task.key,
            )
        except Exception as exc:  # noqa: BLE001 - report, don't die
            error = repr(exc)
        outbox.put((
            _RESULT, task.batch, worker_id, task.task_id, task.attempt,
            artifact, error,
        ))


def _read_rss_kb(pid: int) -> Optional[int]:
    """Resident set size of ``pid`` in KiB via /proc, None off-Linux."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


class _WorkerHandle(NamedTuple):
    """A live worker process plus its private inbox queue."""

    process: object
    inbox: object


class _Batch:
    """One ``map_shards`` call: its answers and the shards left to place."""

    def __init__(self, tasks: Sequence[ShardTask]) -> None:
        self.id = tasks[0].batch
        self.tasks = tasks
        self.results: List[Optional[TraceArtifact]] = [None] * len(tasks)
        self.open = set(range(len(tasks)))  # task ids not answered yet
        self.pending: deque = deque()  # shards waiting for an idle worker
        # (task, quarantined) pairs the batch's own thread compiles.
        self.in_parent: deque = deque()
        self.wake = threading.Event()


class WorkerPool:
    """Supervised shard-compilation pool (see module docs)."""

    def __init__(
        self,
        workers: int = 2,
        hang_timeout_s: float = 60.0,
        max_worker_rss_mb: Optional[int] = None,
        restart_policy: Optional[RestartPolicy] = None,
        quarantine_threshold: int = 2,
    ) -> None:
        self.size = max(1, int(workers))
        self.hang_timeout_s = hang_timeout_s
        self.max_worker_rss_mb = max_worker_rss_mb
        self.supervisor = Supervisor(self.size, restart_policy, quarantine_threshold)
        self._rss_reader = _read_rss_kb
        # Import the compiler before forking, so no worker pays for it
        # on its first shard.
        import repro.pipeline  # noqa: F401
        import multiprocessing  # lazy: the serial path never pays for it

        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = multiprocessing.get_context()
        self._outbox = self._ctx.Queue()
        self._handles: List[Optional[_WorkerHandle]] = [None] * self.size
        # The short lock over slots and batches; an idle collector waits on it.
        self._lock = threading.Condition()
        self._batches: Dict[int, _Batch] = {}
        self._batch_ids = itertools.count()
        self._collector = threading.Thread(
            target=self._collect, name="repro-pool-collector", daemon=True
        )
        self._closed = False
        try:
            for worker_id in range(self.size):
                self._spawn(worker_id)
        except BaseException:
            self.shutdown()  # don't leak the workers already started
            raise
        self._collector.start()
        obs.peak("serve.pool.workers", self.supervisor.alive_count())

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, worker_id: int) -> None:
        inbox = self._ctx.Queue()
        process = self._ctx.Process(
            target=_pool_worker_main,
            args=(worker_id, inbox, self._outbox),
            daemon=True,
        )
        process.start()
        self._handles[worker_id] = _WorkerHandle(process, inbox)
        self.supervisor.on_spawn(self.supervisor.states[worker_id], process.pid)

    def _restart(self, worker_id: int, reason: str) -> None:
        state = self.supervisor.states[worker_id]
        state.restarts += 1
        obs.count("serve.pool.restarts")
        obs.event("serve.pool.restart", worker=worker_id, reason=reason)
        self._discard_handle(worker_id)
        self._spawn(worker_id)
        obs.peak("serve.pool.workers", self.supervisor.alive_count())

    def _discard_handle(self, worker_id: int) -> None:
        handle = self._handles[worker_id]
        self._handles[worker_id] = None
        if handle is None:
            return
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=2.0)

    def shutdown(self, timeout_s: float = 2.0) -> None:
        """Stop the collector, then the workers (sentinel first, SIGKILL
        stragglers).  A batch still waiting compiles its unanswered
        shards in its own thread."""
        with self._lock:
            if self._closed:
                return
            self._closed = True  # the collector routes nothing after this
            self._lock.notify_all()
            for batch in self._batches.values():
                batch.wake.set()
        if self._collector.is_alive():
            self._collector.join()
        for handle in self._handles:
            if handle is not None and handle.process.is_alive():
                try:
                    handle.inbox.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        deadline = time.monotonic() + timeout_s
        for worker_id, handle in enumerate(self._handles):
            if handle is None:
                continue
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            self._handles[worker_id] = None
            state = self.supervisor.states[worker_id]
            state.alive = False
            state.pid = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- observation ---------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Pool state for ``/v1/stats`` and ``/healthz``.  A slot whose
        process died since the collector last looked reads as down."""
        with self._lock:
            snap = self.supervisor.snapshot()
            for worker, handle in zip(snap["workers"], self._handles):
                worker["alive"] = handle is not None and handle.process.is_alive()
        snap["alive"] = sum(worker["alive"] for worker in snap["workers"])
        snap["closed"] = self._closed
        return snap

    # -- batches -------------------------------------------------------
    def map_shards(
        self,
        shards: Sequence[Tuple[str, Sequence[object]]],
        machine,
        method: str,
        deadline_ms: Optional[int] = None,
        resilient: bool = False,
    ) -> List[TraceArtifact]:
        """Compile ``[(key, instructions), ...]`` → in-order artifacts.

        Always complete and bit-identical to a serial compile.  Worker
        deaths mid-shard are recovered internally: the shard is
        requeued, the worker restarted under backoff, and quarantined
        keys are compiled in-parent.  When the pool cannot run at all
        (closed, unhealthy, unpicklable payload) the whole batch
        compiles in-parent.  Calls from different threads overlap.
        """
        batch = next(self._batch_ids)
        tasks = [
            ShardTask(index, key, tuple(instructions), machine, method,
                      deadline_ms, resilient, batch)
            for index, (key, instructions) in enumerate(shards)
        ]
        if not self._can_run(tasks):
            return [self._compile_in_parent(task) for task in tasks]
        with obs.span("serve.pool.batch", shards=len(tasks)):
            results = self._run_batch(tasks)
            obs.count("serve.pool.tasks", len(tasks))
        return results

    def _can_run(self, tasks: Sequence[ShardTask]) -> bool:
        if self._closed or not tasks:
            return False
        if not self.supervisor.healthy():
            obs.count("serve.pool.unavailable")
            return False
        try:  # preflight: an unpicklable machine compiles in-parent
            pickle.dumps(tasks[0])
        except Exception:
            obs.count("serve.pool.unpicklable")
            return False
        return True

    def _run_batch(self, tasks: Sequence[ShardTask]) -> List[TraceArtifact]:
        batch = _Batch(tasks)
        with self._lock:
            for task in tasks:
                if self.supervisor.quarantine.hit(task.key):
                    batch.in_parent.append((task, True))
                else:
                    batch.pending.append(task)
            self._batches[batch.id] = batch
        try:
            while True:
                with self._lock:  # every change to the batch sets its event
                    if not batch.open:
                        break
                    work, nap = self._next_step(batch)
                    batch.wake.clear()  # under the lock: no change is missed
                if work is None:
                    batch.wake.wait(nap)  # None: until something changes
                    continue
                task, quarantined = work
                artifact = self._compile_in_parent(task, quarantined)
                with self._lock:
                    batch.results[task.task_id] = artifact
                    batch.open.discard(task.task_id)
        finally:
            with self._lock:
                del self._batches[batch.id]
        return batch.results

    def _next_step(self, batch: _Batch):
        """``(work, nap)``: a shard the batch's thread compiles itself,
        or how long to wait for its event (None: until it is set)."""
        self._dispatch()
        if batch.in_parent:
            return batch.in_parent.popleft(), None
        if self._closed:  # shut down: what is left compiles here
            return (batch.tasks[min(batch.open)], False), None
        if batch.pending and not self.supervisor.busy():
            # No worker can take work (all dead or in backoff).  Wait for
            # an imminent restart — shards should recover onto workers,
            # not serialize into the parent — else compile one here.
            wait = self._next_restart_wait()
            if wait is not None and wait <= 0.25:
                return None, min(max(wait, 0.0) + 0.005, 0.25)
            return (batch.pending.popleft(), False), None
        return None, None

    def _dispatch(self) -> None:
        """Hand pending shards, oldest batch first, to idle workers."""
        from repro.resilience import chaos

        if self._closed:
            return
        now = time.monotonic()
        for worker_id, state in enumerate(self.supervisor.states):
            batch = next((b for b in self._batches.values() if b.pending), None)
            if batch is None:
                return
            if state.task is not None:
                continue
            if not state.alive:
                if self.supervisor.may_restart(state, now):
                    self._restart(worker_id, reason="death")
                else:
                    continue
            handle = self._handles[worker_id]
            if handle is None:
                continue
            task = batch.pending.popleft()
            site = (task.key, task.attempt)
            if chaos.service_fault("worker_hang", *site, worker=worker_id):
                # Sleep far past the hang watchdog: the supervisor must
                # SIGKILL and requeue, exactly like a real wedged worker.
                task = replace(task, chaos_sleep_s=self._hang_budget(task) * 4)
            else:
                slow = chaos.service_fault("slow_shard", *site)
                if slow is not None:
                    delay = round(slow.uniform(0.01, 0.05), 4)
                    task = replace(task, chaos_sleep_s=delay)
            try:
                handle.inbox.put(task)
            except (OSError, ValueError):  # pragma: no cover - torn queue
                self._on_death(worker_id)
                batch.pending.appendleft(task)
                continue
            state.task, state.busy_since = task, time.monotonic()
            self._lock.notify()  # the collector, should it be idle
            obs.count("serve.pool.dispatched")
            if chaos.service_fault("worker_kill", *site, worker=worker_id):
                if state.pid is not None:
                    try:
                        os.kill(state.pid, signal.SIGKILL)
                    except (OSError, ProcessLookupError):  # pragma: no cover
                        pass
        if not self.supervisor.busy():  # no worker took work: batches decide
            for batch in self._batches.values():
                if batch.pending:
                    batch.wake.set()

    # -- the collector -------------------------------------------------
    def _collect(self) -> None:
        """The outbox's one reader (see module docs)."""
        message = None
        while True:
            with self._lock:
                if self._closed:
                    return
                try:  # a failing step must not leave the batches unserved
                    if message is not None:
                        self._route(message)
                    self._reap()
                    self._dispatch()
                except Exception:  # noqa: BLE001 - the next tick retries
                    obs.count("serve.pool.collector_errors")
                    obs.event(
                        "serve.pool.collector_error", error=traceback.format_exc()
                    )
                while not (self.supervisor.busy() or self._closed):
                    self._lock.wait()  # nothing in flight: no timed wakeups
            try:
                message = None if self._closed else self._outbox.get(timeout=_POLL_S)
            except (queue.Empty, OSError, ValueError):
                message = None

    def _route(self, message: tuple) -> None:
        """Deliver one result to its batch, or drop it: a result that is
        not its slot's current shard (an earlier batch's, a superseded
        attempt's, a duplicate) neither answers a task nor frees a slot."""
        _, batch_id, worker_id, task_id, attempt, artifact, error = message
        state = self.supervisor.states[worker_id]
        task = state.task
        if task is None or (task.batch, task.task_id, task.attempt) != (
            batch_id, task_id, attempt
        ):
            return
        self.supervisor.on_task_done(state)
        batch = self._batches.get(batch_id)  # None: it raised meanwhile
        if batch is not None:
            if error is not None:
                # The shard raised *inside* the worker.  Reproduce it
                # in-parent so the genuine exception type propagates.
                obs.count("serve.pool.shard_errors")
                obs.event("serve.pool.shard_error", key=task.key, error=error)
                batch.in_parent.append((task, False))
            else:
                batch.results[task_id] = artifact
                batch.open.discard(task_id)
            batch.wake.set()
        self._maybe_recycle_for_memory(worker_id)

    def _reap(self) -> None:
        """Kill hung workers; absorb deaths; requeue or quarantine shards."""
        now = time.monotonic()
        for worker_id, state in enumerate(self.supervisor.states):
            handle = self._handles[worker_id]
            if handle is None or not state.alive:
                continue
            alive, task = handle.process.is_alive(), state.task
            if alive and task and now - state.busy_since > self._hang_budget(task):
                self.supervisor.hangs += 1
                obs.count("serve.pool.hangs")
                obs.event("serve.pool.hang", worker=worker_id, key=task.key)
                handle.process.kill()
                handle.process.join(timeout=2.0)
                alive = False
            if not alive:
                self._on_death(worker_id, task)

    def _on_death(self, worker_id: int, task: Optional[ShardTask] = None) -> None:
        state = self.supervisor.states[worker_id]
        quarantined = self.supervisor.on_death(state, task and task.key)
        self._discard_handle(worker_id)
        obs.peak("serve.pool.workers", self.supervisor.alive_count())
        batch = task and self._batches.get(task.batch)
        if batch is None:
            return
        if quarantined:
            batch.in_parent.append((task, True))
            batch.wake.set()
        else:  # retry on the next healthy worker, as a new attempt
            batch.pending.appendleft(
                replace(task, attempt=task.attempt + 1, chaos_sleep_s=0.0)
            )

    def _next_restart_wait(self) -> Optional[float]:
        """Seconds until some dead slot may restart; None if none can."""
        exhausted, now = self.supervisor.policy.exhausted, time.monotonic()
        waits = [
            state.not_before - now
            for state in self.supervisor.states
            if not state.alive and not exhausted(state.consecutive_failures)
        ]
        return min(waits) if waits else None

    def _hang_budget(self, task: ShardTask) -> float:
        budget = self.hang_timeout_s
        if task.deadline_ms is not None:
            budget = max(budget, 3.0 * task.deadline_ms / 1000.0)
        return budget

    def _maybe_recycle_for_memory(self, worker_id: int) -> None:
        if self.max_worker_rss_mb is None:
            return
        rss_kb = self._rss_reader(self.supervisor.states[worker_id].pid)
        if rss_kb is not None and rss_kb > self.max_worker_rss_mb * 1024:
            self.supervisor.mem_restarts += 1
            obs.count("serve.pool.mem_restarts")
            obs.event("serve.pool.mem_restart", worker=worker_id, rss_kb=rss_kb)
            self._restart(worker_id, reason="memory")

    def _compile_in_parent(self, task: ShardTask, quarantined: bool = False):
        with self._lock:
            self.supervisor.parent_compiles += 1
        obs.count("serve.pool.parent_compiles")
        # A quarantined key always compiles under the resilient fallback
        # ladder, with the quarantine stamped on its DegradationReport so
        # the outcome is explicit (and never cached).
        artifact = _compile_one(
            list(task.instructions), task.machine, task.method,
            task.deadline_ms, task.resilient or quarantined, task.key,
        )
        if not quarantined:
            return artifact
        degradation = dict(artifact.degradation or {})
        degradation.setdefault("requested_method", task.method)
        degradation.setdefault("final_method", artifact.method)
        degradation["degraded"] = True
        degradation["quarantined"] = True
        degradation["worker_deaths"] = self.supervisor.quarantine.deaths.get(
            task.key, 0
        )
        artifact.degradation = degradation
        return artifact
