"""Supervision policy for the worker pool (no processes here).

:mod:`repro.serve.pool` owns the process mechanics; this
module owns every *decision* the pool makes about its workers, so the
policy is unit-testable without forking anything:

* :class:`RestartPolicy` — capped exponential backoff between restarts
  of the same worker slot, and the give-up bar (a slot that keeps
  dying without ever finishing a task is eventually abandoned rather
  than crash-looped);
* :class:`WorkerState` — one slot's bookkeeping: pid, busy task and
  since when, restart/death counts, backoff gate;
* :class:`QuarantineRegistry` — the poisoned-trace circuit breaker: a
  trace key whose compilation has killed ``threshold`` workers is
  quarantined and from then on compiled only in-parent under the
  resilient fallback ladder (``docs/serving.md``);
* :class:`Supervisor` — glues the three together and renders the
  ``/v1/stats`` / ``/healthz`` snapshot.

Counters (``docs/observability.md``): ``serve.pool.worker_deaths``,
``serve.pool.hangs``, ``serve.pool.restarts``,
``serve.pool.mem_restarts``, ``serve.pool.parent_compiles``,
``serve.quarantine.trips``, ``serve.quarantine.hits``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import obs


@dataclass
class RestartPolicy:
    """Capped exponential backoff for restarting a crashed worker slot.

    The first restart is nearly immediate; each *consecutive* failure
    (no completed task in between) doubles the delay up to
    ``cap_delay_s``.  After ``max_consecutive`` failures in a row the
    slot is abandoned — the pool keeps serving through its remaining
    workers (or in-parent) instead of crash-looping one slot forever.
    """

    base_delay_s: float = 0.05
    cap_delay_s: float = 2.0
    max_consecutive: int = 5

    def delay_for(self, consecutive_failures: int) -> float:
        exponent = max(0, consecutive_failures - 1)
        return min(self.base_delay_s * (2.0 ** exponent), self.cap_delay_s)

    def exhausted(self, consecutive_failures: int) -> bool:
        return consecutive_failures >= self.max_consecutive


@dataclass
class WorkerState:
    """Bookkeeping for one worker slot (survives restarts of the slot)."""

    worker_id: int
    pid: Optional[int] = None
    alive: bool = False
    #: the shard the slot is running (a ``ShardTask``), None when idle.
    task: Optional[object] = None
    busy_since: Optional[float] = None
    restarts: int = 0
    consecutive_failures: int = 0
    not_before: float = 0.0
    tasks_done: int = 0

    def snapshot(self) -> Dict[str, object]:
        since = self.busy_since  # when the current shard was dispatched
        return {
            "id": self.worker_id,
            "pid": self.pid,
            "alive": self.alive,
            "busy": self.task is not None,
            "restarts": self.restarts,
            "consecutive_failures": self.consecutive_failures,
            "tasks_done": self.tasks_done,
            "busy_s": None if since is None else round(time.monotonic() - since, 3),
        }


class QuarantineRegistry:
    """Circuit breaker for traces that kill the workers compiling them.

    ``record_death(key)`` is called every time a worker dies (crash,
    SIGKILL, hang-kill) while holding ``key``; once the per-key death
    count reaches ``threshold`` the key is quarantined: the pool never
    hands it to a worker again, compiling it in-parent under the
    resilient fallback ladder instead, and the artifact's
    ``DegradationReport`` records the quarantine.
    """

    def __init__(self, threshold: int = 2) -> None:
        self.threshold = max(1, threshold)
        self.deaths: Dict[str, int] = {}
        self.quarantined: set = set()
        self.trips = 0
        self.hits = 0

    def record_death(self, key: str) -> bool:
        """Count one worker death against ``key``; True when it trips."""
        self.deaths[key] = self.deaths.get(key, 0) + 1
        if key not in self.quarantined and self.deaths[key] >= self.threshold:
            self.quarantined.add(key)
            self.trips += 1
            obs.count("serve.quarantine.trips")
            obs.event(
                "serve.quarantine", key=key, deaths=self.deaths[key]
            )
            return True
        return False

    def hit(self, key: str) -> bool:
        """True (and counted) when ``key`` must bypass the pool."""
        if key in self.quarantined:
            self.hits += 1
            obs.count("serve.quarantine.hits")
            return True
        return False

    def snapshot(self) -> Dict[str, object]:
        return {
            "threshold": self.threshold,
            "keys": sorted(self.quarantined),
            "trips": self.trips,
            "hits": self.hits,
        }


class Supervisor:
    """Decides restarts, attributes deaths, and renders pool health."""

    def __init__(
        self,
        size: int,
        policy: Optional[RestartPolicy] = None,
        quarantine_threshold: int = 2,
    ) -> None:
        self.policy = policy or RestartPolicy()
        self.states: List[WorkerState] = [WorkerState(i) for i in range(size)]
        self.quarantine = QuarantineRegistry(quarantine_threshold)
        self.deaths = 0
        self.hangs = 0
        self.mem_restarts = 0
        self.parent_compiles = 0

    # ------------------------------------------------------------------
    def on_spawn(self, state: WorkerState, pid: int) -> None:
        state.pid = pid
        state.alive = True
        state.task = None
        state.busy_since = None

    def on_task_done(self, state: WorkerState) -> None:
        state.task = None
        state.busy_since = None
        state.consecutive_failures = 0
        state.tasks_done += 1

    def on_death(self, state: WorkerState, key: Optional[str]) -> bool:
        """Record one worker death; True when ``key`` just quarantined."""
        state.alive = False
        state.pid = None
        state.task = None
        state.busy_since = None
        state.consecutive_failures += 1
        state.not_before = time.monotonic() + self.policy.delay_for(
            state.consecutive_failures
        )
        self.deaths += 1
        obs.count("serve.pool.worker_deaths")
        obs.event("serve.pool.death", worker=state.worker_id, key=key,
                  consecutive=state.consecutive_failures)
        if key is not None:
            return self.quarantine.record_death(key)
        return False

    def may_restart(self, state: WorkerState, now: Optional[float] = None) -> bool:
        """True when a dead slot is allowed to respawn right now."""
        if state.alive:
            return False
        if self.policy.exhausted(state.consecutive_failures):
            return False
        return (now if now is not None else time.monotonic()) >= state.not_before

    # ------------------------------------------------------------------
    def healthy(self) -> bool:
        """At least one slot is alive or still eligible to restart."""
        return any(
            state.alive or not self.policy.exhausted(state.consecutive_failures)
            for state in self.states
        )

    def busy(self) -> bool:
        return any(state.task is not None for state in self.states)

    def alive_count(self) -> int:
        return sum(1 for state in self.states if state.alive)

    def snapshot(self) -> Dict[str, object]:
        return {
            "size": len(self.states),
            "alive": self.alive_count(),
            "healthy": self.healthy(),
            "workers": [state.snapshot() for state in self.states],
            "restarts": sum(state.restarts for state in self.states),
            "deaths": self.deaths,
            "hangs": self.hangs,
            "mem_restarts": self.mem_restarts,
            "parent_compiles": self.parent_compiles,
            "quarantine": self.quarantine.snapshot(),
        }
