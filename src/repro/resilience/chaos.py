"""Deterministic fault injection for the allocator's recovery paths.

The resilience layer exists so that no single lying component — a
transform that corrupts the DAG, a measurement that under-reports a
requirement, a ``Kill()`` assignment that names a non-killer, a search
that never finishes — can take the compilation down.  This module
*proves* that, by deterministically injecting exactly those faults and
letting the test suite assert that ``compile_trace`` still produces a
verified schedule (degraded, but correct).

A :class:`ChaosMonkey` is seeded and installed with
:func:`chaos_scope`; the hook points in ``transforms.base``,
``core.measure``, ``core.kill`` and ``resilience.budgets`` call the
module-level ``corrupt_*`` functions, which are no-ops (one attribute
read) unless a monkey is in scope.  Every injection is appended to
``monkey.injections`` and surfaced as ``resilience.chaos.*`` obs
counters, so a run can be replayed and audited from its trace.

Fault classes:

``transform``
    Perturb a *tentative* candidate DAG: duplicate a ``value_uses``
    entry (caught by the ``dag.*`` verify pack), add a spurious legal
    sequence edge (silently pessimizes), or drop a memory-ordering
    edge (static packs can miss it; the simulator oracle catches it).
``measure``
    Lie about a measured requirement's ``available`` count, hiding real
    excess or inventing phantom excess.
``kill``
    Point a contested value's killer at a non-maximal node (fires the
    ``alloc.kill-coverage`` verify rule).
``deadline``
    Force the active :class:`~repro.resilience.budgets.Deadline` to
    trip early via the budgets expiry hook.

Service-level fault classes (PR 9, consumed by ``repro.serve.pool``
and the serve admission layer — see ``docs/serving.md``):

``worker_kill``
    SIGKILL a pool worker right after a shard is dispatched to it; the
    supervisor must requeue the shard and restart the worker.
``worker_hang``
    Wedge a worker (sleep far past the hang watchdog); the supervisor
    must SIGKILL it and requeue the shard.
``slow_shard``
    Inject a small latency into a shard without wedging it (exercises
    the watchdog's non-firing path and batch reordering).
``queue_flood``
    Make admission control believe the request queue is over its
    watermark; the server must shed with 503 + ``Retry-After``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.resilience import budgets

#: Compiler-level faults (PR 4) + service-level faults (PR 9).
FAULT_CLASSES = (
    "transform",
    "measure",
    "kill",
    "deadline",
    "worker_kill",
    "worker_hang",
    "slow_shard",
    "queue_flood",
)

#: The subset consumed by the serving layer (pool + admission control).
SERVICE_FAULTS = ("worker_kill", "worker_hang", "slow_shard", "queue_flood")

#: Per-expiry-check probability scale for the ``deadline`` fault: the
#: hook runs on *every* ``Deadline.expired()`` call, so the raw rate
#: would trip almost immediately; scaling keeps trips sporadic.
_DEADLINE_CHECK_SCALE = 0.05


class ChaosMonkey:
    """Seeded fault injector; one instance per experiment."""

    def __init__(
        self,
        seed: int = 0,
        faults: Sequence[str] = FAULT_CLASSES,
        rate: float = 0.3,
    ) -> None:
        unknown = set(faults) - set(FAULT_CLASSES)
        if unknown:
            raise ValueError(f"unknown fault classes: {sorted(unknown)}")
        self.seed = seed
        self.faults = frozenset(faults)
        self.rate = rate
        self.rng = random.Random(seed)
        #: Chronological log of every injected fault (dicts).
        self.injections: List[Dict[str, object]] = []

    def injected(self, fault: str) -> int:
        return sum(1 for entry in self.injections if entry["fault"] == fault)

    # ------------------------------------------------------------------
    def _fire(self, fault: str, probability: Optional[float] = None) -> bool:
        if fault not in self.faults:
            return False
        return self.rng.random() < (self.rate if probability is None else probability)

    def _log(self, fault: str, **details) -> None:
        self.injections.append({"fault": fault, **details})
        obs.count(f"resilience.chaos.{fault}")
        obs.event("resilience.chaos", fault=fault, **details)

    # ------------------------------------------------------------------
    def corrupt_transform(self, dag) -> bool:
        """Perturb a freshly-cloned candidate DAG in place."""
        if not self._fire("transform"):
            return False
        from repro.graph.dag import CycleError, EdgeKind

        mode = self.rng.choice(("dup-use", "extra-seq", "drop-seq"))
        if mode == "dup-use":
            names = sorted(n for n, uses in dag.value_uses.items() if uses)
            if not names:
                return False
            name = self.rng.choice(names)
            dag.value_uses[name].append(dag.value_uses[name][0])
            self._log("transform", mode=mode, value=name)
            return True
        if mode == "drop-seq":
            mem_edges = sorted(
                (u, v)
                for u, v, data in dag.edges()
                if data.get("kind") is EdgeKind.SEQ
                and data.get("reason") == "mem"
            )
            if not mem_edges:
                return False
            u, v = self.rng.choice(mem_edges)
            dag._unlink(u, v)
            dag._invalidate()
            self._log("transform", mode=mode, edge=[u, v])
            return True
        # extra-seq: a legal but unrequested ordering constraint.
        ops = dag.op_nodes()
        if len(ops) < 2:
            return False
        for _ in range(8):
            a, b = self.rng.sample(ops, 2)
            if dag.reaches(a, b) or dag.would_cycle(a, b):
                continue
            try:
                dag.add_sequence_edge(a, b, reason="chaos")
            except CycleError:
                continue
            self._log("transform", mode=mode, edge=[a, b])
            return True
        return False

    # ------------------------------------------------------------------
    def corrupt_measurements(self, requirements) -> bool:
        """Falsify one requirement's ``available`` count in place."""
        if not self._fire("measure"):
            return False
        if not requirements:
            return False
        requirement = self.rng.choice(list(requirements))
        before = requirement.available
        if requirement.excess > 0 and self.rng.random() < 0.5:
            # Hide real excess: claim exactly enough resources exist.
            requirement.available = requirement.required
            mode = "hide-excess"
        else:
            # Invent phantom scarcity.
            requirement.available = max(0, requirement.available - 1)
            mode = "shrink"
        if requirement.available == before:
            return False
        self._log(
            "measure",
            mode=mode,
            resource=f"{requirement.kind.value}:{requirement.cls}",
            available_before=before,
            available_after=requirement.available,
        )
        return True

    # ------------------------------------------------------------------
    def corrupt_kill(self, dag, values, kill: Dict[str, int]) -> bool:
        """Point one live value's killer at a non-killer node in place."""
        if not self._fire("kill"):
            return False
        victims = sorted(
            value.name
            for value in values
            if value.use_uids and value.name in kill
        )
        if not victims:
            return False
        by_name = {value.name: value for value in values}
        name = self.rng.choice(victims)
        # The defining node is never a legal killer of a live value.
        bad = by_name[name].def_uid
        if kill[name] == bad:
            return False
        self._log("kill", value=name, killer_before=kill[name], killer_after=bad)
        kill[name] = bad
        return True

    # ------------------------------------------------------------------
    def force_expiry(self, deadline) -> bool:
        """Budgets expiry hook: sporadically trip the active deadline."""
        if not self._fire("deadline", self.rate * _DEADLINE_CHECK_SCALE):
            return False
        self._log("deadline", ticks=deadline.ticks)
        return True

    # -- service-level faults (consumed by repro.serve) ----------------
    def kill_worker(self, worker=None, key=None) -> bool:
        """SIGKILL the worker a shard was just dispatched to."""
        if not self._fire("worker_kill"):
            return False
        self._log("worker_kill", worker=worker, key=key)
        return True

    def hang_worker(self, worker=None, key=None) -> bool:
        """Wedge a worker past the hang watchdog."""
        if not self._fire("worker_hang"):
            return False
        self._log("worker_hang", worker=worker, key=key)
        return True

    def shard_delay(self) -> float:
        """Seconds of injected shard latency (0.0 = no injection)."""
        if not self._fire("slow_shard"):
            return 0.0
        delay = round(self.rng.uniform(0.01, 0.05), 4)
        self._log("slow_shard", seconds=delay)
        return delay

    def flood_queue(self) -> bool:
        """Pretend the request queue is over its admission watermark."""
        if not self._fire("queue_flood"):
            return False
        self._log("queue_flood")
        return True


# ======================================================================
# Scope management (same innermost-wins stack as budgets/obs).
# ======================================================================
_STACK: List[ChaosMonkey] = []


def active() -> Optional[ChaosMonkey]:
    return _STACK[-1] if _STACK else None


@contextmanager
def chaos_scope(monkey: ChaosMonkey):
    """Install ``monkey``; also wires the deadline-expiry hook."""
    _STACK.append(monkey)
    if "deadline" in monkey.faults:
        budgets.set_expiry_hook(monkey.force_expiry)
    try:
        yield monkey
    finally:
        _STACK.pop()
        survivor = active()
        if survivor is not None and "deadline" in survivor.faults:
            budgets.set_expiry_hook(survivor.force_expiry)
        else:
            budgets.set_expiry_hook(None)


# ======================================================================
# Hook entry points called from the production code.  Each is a no-op
# (one list check) when no monkey is in scope.
# ======================================================================
def corrupt_transform(dag) -> bool:
    monkey = active()
    return monkey.corrupt_transform(dag) if monkey is not None else False


def corrupt_measurements(requirements) -> bool:
    monkey = active()
    if monkey is None:
        return False
    return monkey.corrupt_measurements(requirements)


def corrupt_kill(dag, values, kill: Dict[str, int]) -> bool:
    monkey = active()
    if monkey is None:
        return False
    return monkey.corrupt_kill(dag, values, kill)


def service_kill_worker(worker=None, key=None) -> bool:
    monkey = active()
    if monkey is None:
        return False
    return monkey.kill_worker(worker=worker, key=key)


def service_hang_worker(worker=None, key=None) -> bool:
    monkey = active()
    if monkey is None:
        return False
    return monkey.hang_worker(worker=worker, key=key)


def service_shard_delay() -> float:
    monkey = active()
    if monkey is None:
        return 0.0
    return monkey.shard_delay()


def service_flood_queue() -> bool:
    monkey = active()
    if monkey is None:
        return False
    return monkey.flood_queue()
