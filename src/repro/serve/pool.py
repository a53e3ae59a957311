"""Persistent supervised worker pool for ``repro serve``.

PR 7's ``compile_shards`` forks a fresh ``multiprocessing.Pool`` per
request — ~30 ms of startup tax that dwarfs the compile time of small
programs, and a crashed worker silently degrades the whole request to
serial mode.  :class:`WorkerPool` replaces it for long-lived servers:

* workers are forked **once** (at server start) and kept warm across
  requests, so sharding small programs finally wins;
* each worker is **supervised**: liveness is checked every poll tick,
  idle workers emit heartbeats, and a worker that crashes, hangs past
  its shard deadline, or exceeds a memory watermark is killed and
  respawned under the capped exponential backoff of
  :class:`~repro.serve.supervisor.RestartPolicy`;
* a shard whose worker died is **requeued** on another worker — and a
  trace key that keeps killing workers is circuit-broken by the
  :class:`~repro.serve.supervisor.QuarantineRegistry` and compiled
  in-parent under the resilient fallback ladder instead of
  crash-looping the pool;
* compilation is deterministic, so a shard retried after a crash (or
  even double-executed by a stale worker) produces the same artifact —
  ``map_shards`` keeps only the first result per task and bit-identity
  with a serial compile is preserved (``program_signature``).

Fork-safety notes: each worker has a private inbox ``Queue`` written
only by the parent; all workers share one outbox ``Queue`` written
only by children and read only by the parent, so neither lock is ever
contended across the fork boundary in a surprising way.  Batches are
serialized by a parent-side lock (`ThreadingHTTPServer` handlers all
funnel through the same pool).

``map_shards`` mirrors the ``compile_shards`` contract: it returns
in-order :class:`~repro.serve.cache.TraceArtifact` objects, or
``None`` when the pool cannot run at all (unpicklable payload, pool
closed, every slot exhausted) — callers degrade to their serial path
exactly as they do for a per-request pool failure.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing

from repro import obs
from repro.serve.supervisor import RestartPolicy, Supervisor

# Outbox message kinds (plain tuples; must stay picklable and tiny).
_RESULT = "result"
_BEAT = "beat"

# How often an idle worker proves its loop is not wedged.
HEARTBEAT_INTERVAL_S = 5.0

# Parent-side poll tick while a batch is in flight.
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
    chaos_sleep_s: float = 0.0


def _pool_worker_main(worker_id: int, inbox, outbox) -> None:
    """Long-lived worker loop: compile shards until the ``None`` sentinel.

    Runs in the forked child.  SIGINT is ignored (Ctrl-C belongs to the
    parent's drain path); SIGTERM/SIGKILL from the supervisor just end
    the process — the parent requeues whatever we were holding.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    from repro.serve import shard as shard_mod

    while True:
        try:
            task = inbox.get(timeout=HEARTBEAT_INTERVAL_S)
        except queue.Empty:
            outbox.put((_BEAT, worker_id, time.time()))
            continue
        if task is None:
            return
        if task.chaos_sleep_s > 0:  # injected by service-level chaos faults
            time.sleep(task.chaos_sleep_s)
        try:
            # The parent's uid counter is always ahead of ours (we forked
            # at server start); lift ours past the shipped instructions
            # or freshly synthesized uids would collide with them.
            from repro.ir.instructions import ensure_uid_floor

            ensure_uid_floor(
                max((inst.uid for inst in task.instructions), default=0)
            )
            artifact = shard_mod._compile_one(
                list(task.instructions),
                task.machine,
                task.method,
                task.deadline_ms,
                task.resilient,
                task.key,
            )
            outbox.put((_RESULT, task.task_id, worker_id, artifact, None))
        except BaseException as error:  # noqa: BLE001 - report, don't die
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            outbox.put((_RESULT, task.task_id, worker_id, None, repr(error)))


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


class _WorkerHandle:
    """A live worker process plus its private inbox queue."""

    def __init__(self, process, inbox) -> None:
        self.process = process
        self.inbox = inbox


class WorkerPool:
    """Forked-once, supervised shard-compilation pool (see module docs)."""

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
        self.supervisor = Supervisor(
            self.size, restart_policy, quarantine_threshold
        )
        self._rss_reader = _read_rss_kb
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = multiprocessing.get_context()
        self._outbox = self._ctx.Queue()
        self._handles: List[Optional[_WorkerHandle]] = [None] * self.size
        self._batch_lock = threading.Lock()
        self._closed = False
        for worker_id in range(self.size):
            self._spawn(worker_id)
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
        """Stop all workers (sentinel first, SIGKILL stragglers)."""
        if self._closed:
            return
        self._closed = True
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

    @property
    def closed(self) -> bool:
        return self._closed

    # -- observation ---------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Pool state for ``/v1/stats`` and ``/healthz``."""
        self._drain_beats()
        for worker_id, state in enumerate(self.supervisor.states):
            handle = self._handles[worker_id]
            if state.alive and (handle is None or not handle.process.is_alive()):
                state.alive = False
        snap = self.supervisor.snapshot()
        snap["closed"] = self._closed
        return snap

    def _drain_beats(self) -> None:
        """Consume idle heartbeats (results never appear outside a batch)."""
        while True:
            try:
                message = self._outbox.get_nowait()
            except (queue.Empty, OSError, ValueError):
                return
            self._note_beat(message)

    def _note_beat(self, message: tuple) -> bool:
        if message[0] != _BEAT:
            return False
        worker_id = message[1]
        if 0 <= worker_id < self.size:
            self.supervisor.states[worker_id].last_beat = time.monotonic()
        return True

    # -- the batch loop ------------------------------------------------
    def map_shards(
        self,
        shards: Sequence[Tuple[str, Sequence[object]]],
        machine,
        method: str,
        deadline_ms: Optional[int] = None,
        resilient: bool = False,
    ) -> Optional[List[object]]:
        """Compile ``[(key, instructions), ...]`` → in-order artifacts.

        Returns ``None`` when the pool cannot run at all (caller falls
        back to its serial path, like a ``compile_shards`` failure).
        Worker deaths mid-shard are recovered internally: the shard is
        requeued, the worker restarted under backoff, and quarantined
        keys are compiled in-parent — so a non-``None`` return is
        always complete and bit-identical to a serial compile.
        """
        if self._closed or not shards:
            return None
        if not self.supervisor.healthy():
            obs.count("serve.pool.unavailable")
            return None
        import pickle

        try:  # preflight: unpicklable machines degrade to serial (PR 7)
            pickle.dumps((shards[0][1], machine))
        except Exception:
            obs.count("serve.pool.unpicklable")
            return None
        with self._batch_lock:
            with obs.span("serve.pool.batch", shards=len(shards)):
                return self._run_batch(
                    shards, machine, method, deadline_ms, resilient
                )

    def _run_batch(
        self, shards, machine, method, deadline_ms, resilient
    ) -> List[object]:
        from collections import deque

        tasks = [
            ShardTask(
                task_id=index,
                key=key,
                instructions=tuple(instructions),
                machine=machine,
                method=method,
                deadline_ms=deadline_ms,
                resilient=resilient,
            )
            for index, (key, instructions) in enumerate(shards)
        ]
        results: List[object] = [None] * len(tasks)
        completed: set = set()
        pending = deque()
        for task in tasks:
            if self.supervisor.quarantine.hit(task.key):
                results[task.task_id] = self._compile_in_parent(
                    task, quarantined=True
                )
                completed.add(task.task_id)
            else:
                pending.append(task)
        running: Dict[int, ShardTask] = {}
        while len(completed) < len(tasks):
            self._dispatch(pending, running)
            if not running:
                if pending:
                    # No worker can take work right now (all dead or in
                    # backoff).  If a slot's backoff expires imminently,
                    # wait for the restart — shards should recover onto
                    # workers, not silently serialize into the parent —
                    # otherwise guarantee progress in-parent.
                    wait = self._next_restart_wait()
                    if wait is not None and wait <= 0.25:
                        time.sleep(min(max(wait, 0.0) + 0.005, 0.25))
                        continue
                    task = pending.popleft()
                    results[task.task_id] = self._compile_in_parent(task)
                    completed.add(task.task_id)
                continue
            message = self._poll()
            if message is not None:
                self._absorb(message, tasks, results, completed, running)
            self._reap(running, pending, results, completed)
        obs.count("serve.pool.tasks", len(tasks))
        return results

    def _dispatch(self, pending, running) -> None:
        from repro.resilience import chaos

        now = time.monotonic()
        for worker_id, state in enumerate(self.supervisor.states):
            if not pending:
                return
            if state.busy_key is not None:
                continue
            if not state.alive:
                if self.supervisor.may_restart(state, now):
                    self._restart(worker_id, reason="death")
                else:
                    continue
            handle = self._handles[worker_id]
            if handle is None:
                continue
            task = pending.popleft()
            if chaos.service_hang_worker(worker=worker_id, key=task.key):
                # Sleep far past the hang watchdog: the supervisor must
                # SIGKILL and requeue, exactly like a real wedged worker.
                task = replace(task, chaos_sleep_s=self._hang_budget(task) * 4)
            else:
                delay = chaos.service_shard_delay()
                if delay > 0:
                    task = replace(task, chaos_sleep_s=delay)
            try:
                handle.inbox.put(task)
            except (OSError, ValueError):  # pragma: no cover - torn queue
                self._on_death(worker_id, running, pending, None, None)
                pending.appendleft(task)
                continue
            state.busy_key = task.key
            state.busy_since = time.monotonic()
            running[worker_id] = task
            obs.count("serve.pool.dispatched")
            if chaos.service_kill_worker(worker=worker_id, key=task.key):
                if state.pid is not None:
                    try:
                        os.kill(state.pid, signal.SIGKILL)
                    except (OSError, ProcessLookupError):  # pragma: no cover
                        pass

    def _poll(self) -> Optional[tuple]:
        try:
            return self._outbox.get(timeout=_POLL_S)
        except (queue.Empty, OSError, ValueError):
            return None

    def _absorb(self, message, tasks, results, completed, running) -> None:
        if self._note_beat(message):
            return
        _, task_id, worker_id, artifact, error = message
        if 0 <= worker_id < self.size:
            state = self.supervisor.states[worker_id]
            if worker_id in running and running[worker_id].task_id == task_id:
                del running[worker_id]
                self.supervisor.on_task_done(state)
                self._maybe_recycle_for_memory(worker_id)
            else:
                # Stale result from a pre-restart incarnation of this
                # slot: don't touch the current incarnation's busy state.
                state.last_beat = time.monotonic()
        if task_id in completed:
            return  # stale duplicate from a pre-restart incarnation
        if error is not None:
            # The shard raised *inside* the worker.  Reproduce in-parent
            # so the genuine exception type propagates to the caller —
            # same contract as compile_shards' failed-shard recompile.
            obs.count("serve.pool.shard_errors")
            obs.event(
                "serve.pool.shard_error", key=tasks[task_id].key, error=error
            )
            results[task_id] = self._compile_in_parent(tasks[task_id])
        else:
            results[task_id] = artifact
        completed.add(task_id)

    def _reap(self, running, pending, results, completed) -> None:
        """Kill hung workers; absorb deaths; requeue or quarantine shards."""
        now = time.monotonic()
        for worker_id, state in enumerate(self.supervisor.states):
            handle = self._handles[worker_id]
            if handle is None or not state.alive:
                continue
            alive = handle.process.is_alive()
            if (
                alive
                and state.busy_since is not None
                and worker_id in running
                and now - state.busy_since
                > self._hang_budget(running[worker_id])
            ):
                self.supervisor.hangs += 1
                obs.count("serve.pool.hangs")
                obs.event(
                    "serve.pool.hang", worker=worker_id, key=state.busy_key
                )
                handle.process.kill()
                handle.process.join(timeout=2.0)
                alive = False
            if not alive:
                task = running.pop(worker_id, None)
                self._on_death(
                    worker_id, running, pending, results, completed, task
                )

    def _on_death(
        self, worker_id, running, pending, results, completed, task=None
    ) -> None:
        state = self.supervisor.states[worker_id]
        quarantined = self.supervisor.on_death(
            state, task.key if task is not None else None
        )
        self._discard_handle(worker_id)
        obs.peak("serve.pool.workers", self.supervisor.alive_count())
        if task is None or results is None or task.task_id in completed:
            return
        if quarantined:
            results[task.task_id] = self._compile_in_parent(
                task, quarantined=True
            )
            completed.add(task.task_id)
        else:
            pending.appendleft(task)  # retry on the next healthy worker

    def _next_restart_wait(self) -> Optional[float]:
        """Seconds until some dead slot may restart; None if none can."""
        now = time.monotonic()
        waits = [
            state.not_before - now
            for state in self.supervisor.states
            if not state.alive
            and not self.supervisor.policy.exhausted(
                state.consecutive_failures
            )
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
        state = self.supervisor.states[worker_id]
        if state.pid is None or not state.alive:
            return
        rss_kb = self._rss_reader(state.pid)
        if rss_kb is not None and rss_kb > self.max_worker_rss_mb * 1024:
            self.supervisor.mem_restarts += 1
            obs.count("serve.pool.mem_restarts")
            obs.event(
                "serve.pool.mem_restart", worker=worker_id, rss_kb=rss_kb
            )
            self._restart(worker_id, reason="memory")

    def _compile_in_parent(self, task: ShardTask, quarantined: bool = False):
        from repro.serve import shard as shard_mod

        self.supervisor.parent_compiles += 1
        obs.count("serve.pool.parent_compiles")
        if not quarantined:
            return shard_mod._compile_one(
                list(task.instructions),
                task.machine,
                task.method,
                task.deadline_ms,
                task.resilient,
                task.key,
            )
        # Quarantined key: always compile under the resilient fallback
        # ladder and stamp the DegradationReport so the outcome is
        # explicit (and never cached — degraded artifacts are skipped).
        artifact = shard_mod._compile_one(
            list(task.instructions),
            task.machine,
            task.method,
            task.deadline_ms,
            True,
            task.key,
        )
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
