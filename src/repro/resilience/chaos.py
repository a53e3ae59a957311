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
``core.measure``, ``core.kill``, ``core.allocator`` and ``repro.serve``
call the module-level functions below, which are no-ops (one list
check) unless a monkey is in scope.  Every injection is appended to
``monkey.injections`` with its site key and surfaced as
``resilience.chaos.*`` obs counters, so a run can be replayed and
audited from its trace.

Faults are keyed to decisions, not to work: whether a fault fires at a
site, and what it then corrupts, is a pure function of ``(seed, fault,
site key)``.  A compiler site names the decision being made — the
ladder rung, the allocator iteration (0 for the initial measurement),
the phase (``commit``, ``trial``/``fallback`` plus the candidate index,
or the commit gate's ``audit`` re-measure) and, for ``kill``, the
register class — via :func:`decision` blocks; compiler hooks outside a
named phase never fire.  Service sites key on the shard key and its
dispatch attempt, or on the admission index.  So a change that does
more or less work (an extra ``select_kill``, a cheaper trial, more
deadline ticks) moves no fault.

Fault classes:

``transform``
    Perturb a committed candidate DAG: duplicate a ``value_uses``
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
    Trip the active :class:`~repro.resilience.budgets.Deadline` at the
    allocator's per-iteration check.

Service-level fault classes (consumed by ``repro.serve.pool`` and the
serve admission layer — see ``docs/serving.md``):

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
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Sequence

from repro import obs

#: Compiler-level faults + service-level faults.
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

#: The parts of a compiler site key, outermost first.
_SITE_PARTS = ("rung", "iteration", "phase", "candidate", "cls")


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
        #: The compiler decision in progress (see :func:`decision`).
        self.site: Dict[str, object] = {}
        #: Chronological log of every injected fault (dicts).
        self.injections: List[Dict[str, object]] = []

    def injected(self, fault: str) -> int:
        return sum(1 for entry in self.injections if entry["fault"] == fault)

    # ------------------------------------------------------------------
    def _site_key(self, **parts) -> Optional[str]:
        """The compiler site's key, or None outside a named phase."""
        site = {**self.site, **parts}
        if site.get("phase") is None:
            return None
        return "/".join(str(site[part]) for part in _SITE_PARTS if part in site)

    def _draw(self, fault: str, key: Optional[str]) -> Optional[random.Random]:
        """``fault``'s generator at site ``key`` when it fires there.

        The generator is seeded by a string naming the seed, the fault
        and the site (strings seed through SHA-512, not ``hash()``), so
        the draw and every follow-up choice depend on nothing else."""
        if key is None or fault not in self.faults:
            return None
        rng = random.Random(f"{self.seed}:{fault}:{key}")
        return rng if rng.random() < self.rate else None

    def _log(self, fault: str, site: str, **details) -> None:
        self.injections.append({"fault": fault, "site": site, **details})
        obs.count(f"resilience.chaos.{fault}")
        obs.event("resilience.chaos", fault=fault, site=site, **details)

    # ------------------------------------------------------------------
    def corrupt_transform(self, dag) -> bool:
        """Perturb a freshly-cloned candidate DAG in place.

        The modes are tried in a drawn order and the first one the DAG
        offers a target for is applied, so a fault that fires corrupts
        the DAG whenever any mode can."""
        key = self._site_key()
        rng = self._draw("transform", key)
        if rng is None:
            return False
        from repro.graph.dag import EdgeKind

        for mode in rng.sample(("dup-use", "extra-seq", "drop-seq"), 3):
            if mode == "dup-use":
                targets = sorted(n for n, uses in dag.value_uses.items() if uses)
            elif mode == "drop-seq":
                targets = sorted(
                    (u, v)
                    for u, v, data in dag.edges()
                    if data.get("kind") is EdgeKind.SEQ
                    and data.get("reason") == "mem"
                )
            else:  # a legal but unrequested ordering constraint
                ops = dag.op_nodes()
                targets = [
                    (a, b)
                    for a in ops
                    for b in ops
                    if a != b
                    and not dag.reaches(a, b)
                    and not dag.would_cycle(a, b)
                ]
            if targets:
                break
        else:
            return False
        target = rng.choice(targets)
        if mode == "dup-use":
            dag.value_uses[target].append(dag.value_uses[target][0])
            self._log("transform", key, mode=mode, value=target)
            return True
        if mode == "drop-seq":
            dag._unlink(*target)
            dag._invalidate()
        else:
            dag.add_sequence_edge(*target, reason="chaos")
        self._log("transform", key, mode=mode, edge=list(target))
        return True

    # ------------------------------------------------------------------
    def corrupt_measurements(self, requirements) -> bool:
        """Falsify one requirement's ``available`` count in place."""
        key = self._site_key()
        rng = self._draw("measure", key)
        if rng is None or not requirements:
            return False
        requirement = rng.choice(list(requirements))
        before = requirement.available
        if requirement.excess > 0 and rng.random() < 0.5:
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
            key,
            mode=mode,
            resource=f"{requirement.kind.value}:{requirement.cls}",
            available_before=before,
            available_after=requirement.available,
        )
        return True

    # ------------------------------------------------------------------
    def corrupt_kill(self, dag, values, kill: Dict[str, int]) -> bool:
        """Point one live value's killer at a non-killer node in place."""
        if not values:
            return False
        key = self._site_key(cls=values[0].reg_class)
        rng = self._draw("kill", key)
        if rng is None:
            return False
        victims = sorted(
            value.name
            for value in values
            if value.use_uids and value.name in kill
        )
        if not victims:
            return False
        by_name = {value.name: value for value in values}
        name = rng.choice(victims)
        # The defining node is never a legal killer of a live value.
        bad = by_name[name].def_uid
        if kill[name] == bad:
            return False
        self._log(
            "kill", key, value=name, killer_before=kill[name], killer_after=bad
        )
        kill[name] = bad
        return True

    # ------------------------------------------------------------------
    def force_expiry(self, deadline, iteration: int) -> bool:
        """Trip ``deadline`` at the allocator's check before ``iteration``."""
        key = self._site_key(iteration=iteration, phase="deadline")
        if self._draw("deadline", key) is None:
            return False
        deadline.trip("chaos")
        self._log("deadline", key)
        return True

    # -- service-level faults (consumed by repro.serve) ----------------
    def service_fault(
        self, fault: str, *key, **details
    ) -> Optional[random.Random]:
        """The generator of service ``fault`` at site ``key`` (a shard
        key and its dispatch attempt, or an admission index) when it
        fires there — logged with ``details`` — else None."""
        site = "#".join(str(part) for part in key)
        rng = self._draw(fault, site)
        if rng is not None:
            self._log(fault, site, **details)
        return rng


# ======================================================================
# Scope management (same innermost-wins stack as budgets/obs).
# ======================================================================
_STACK: List[ChaosMonkey] = []


def active() -> Optional[ChaosMonkey]:
    return _STACK[-1] if _STACK else None


@contextmanager
def chaos_scope(monkey: ChaosMonkey):
    """Install ``monkey`` for the duration of the block."""
    _STACK.append(monkey)
    try:
        yield monkey
    finally:
        _STACK.pop()


def decision(**parts):
    """Name the compiler decision the hooks in the block belong to.

    ``parts`` are ``rung``, ``iteration``, ``phase`` and ``candidate``;
    nested blocks add to the outer ones.  Compiler hooks fire only
    inside a ``phase``.  Without a monkey: one list check and a shared
    no-op context."""
    monkey = active()
    return _UNNAMED if monkey is None else _named(monkey, parts)


_UNNAMED = nullcontext()


@contextmanager
def _named(monkey: ChaosMonkey, parts: Dict[str, object]):
    outer = monkey.site
    monkey.site = {**outer, **parts}
    try:
        yield
    finally:
        monkey.site = outer


# ======================================================================
# Hook entry points called from the production code.  Each is a no-op
# (one list check) when no monkey is in scope.
# ======================================================================
def corrupt_transform(dag) -> bool:
    monkey = active()
    return monkey is not None and monkey.corrupt_transform(dag)


def corrupt_measurements(requirements) -> bool:
    monkey = active()
    return monkey is not None and monkey.corrupt_measurements(requirements)


def corrupt_kill(dag, values, kill: Dict[str, int]) -> bool:
    monkey = active()
    return monkey is not None and monkey.corrupt_kill(dag, values, kill)


def expire_deadline(deadline, iteration: int) -> bool:
    """Maybe trip a live ``deadline`` at the allocator's iteration check."""
    monkey = active()
    if monkey is None or deadline is None or deadline.tripped is not None:
        return False
    return monkey.force_expiry(deadline, iteration)


def service_fault(fault: str, *key, **details) -> Optional[random.Random]:
    """See :meth:`ChaosMonkey.service_fault`."""
    monkey = active()
    return None if monkey is None else monkey.service_fault(fault, *key, **details)
