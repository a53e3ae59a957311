"""The analysis manager: version-keyed caching of derived artifacts.

Every expensive artifact the pipeline derives from a dependence DAG —
the hammock tree, ASAP depths, liveness tables, ``Kill()`` assignments,
per-class reuse measurements, the full ``measure_all`` list — is a pure
function of the DAG's structure.  :class:`AnalysisManager` memoizes
them keyed by ``(analysis name, key, dag.version)``: the version is a
global monotone counter bumped on every mutation, so a cache entry can
never be served for a structure it was not computed on, and a
transaction rollback (which *restores* the old version) automatically
revalidates everything cached against the pre-transaction state.

Requests are surfaced as ``pm.cache_hit`` / ``pm.cache_miss``
(``pm.invalidations`` counts misses that evicted a stale entry) so
cache effectiveness is measurable (``benchmarks/bench_pm_cache.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro import obs
from repro.graph.dag import DependenceDAG
from repro.graph.hammock import HammockAnalysis
from repro.machine.model import MachineModel


@dataclass(frozen=True)
class AnalysisSpec:
    """One registered analysis family (for listing and docs)."""

    name: str
    description: str
    #: kinds of DAG change that dirty it.
    invalidated_by: Tuple[str, ...] = ("*",)


#: The registered analysis families, in dependency order.
ANALYSES: Tuple[AnalysisSpec, ...] = (
    AnalysisSpec(
        "reachability",
        "bitmask transitive closure (maintained incrementally in "
        "transactions)",
        ("reachability",),
    ),
    AnalysisSpec(
        "hammock",
        "dominator/postdominator hammock tree and edge priorities",
        ("reachability", "hammock"),
    ),
    AnalysisSpec(
        "asap",
        "earliest-start depths (unit latency)",
        ("reachability", "asap"),
    ),
    AnalysisSpec(
        "critical_path",
        "machine-latency critical path length",
        ("reachability", "asap"),
    ),
    AnalysisSpec(
        "values",
        "liveness tables: per-class values with defs and uses",
        ("liveness",),
    ),
    AnalysisSpec(
        "kill",
        "Kill() assignment per register class (minimum cover)",
        ("reachability", "kill", "liveness"),
    ),
    AnalysisSpec(
        "measure",
        "per-class reuse order + minimum chain decomposition "
        "(measure_all results)",
        ("reachability", "kill", "liveness", "measure"),
    ),
)


class AnalysisManager:
    """Caches analysis results keyed by the DAG's monotone version.

    One manager may serve many DAGs (versions are globally unique), so
    a whole-program compile shares one manager across its traces.
    """

    #: Entry cap; versions are globally unique, so old entries are never
    #: *wrong*, just unlikely to be asked for again — evict the oldest.
    MAX_ENTRIES = 512

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, Hashable, int], Any] = {}
        #: (name, key) -> most recent version a result was computed at.
        self._latest: Dict[Tuple[str, Hashable], int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(
        self,
        dag: DependenceDAG,
        name: str,
        compute: Callable[[], Any],
        key: Hashable = None,
    ) -> Any:
        """The cached result of ``name`` for ``dag``'s current version,
        computing (and caching) it on a miss.

        Results for *older* versions stay cached too: a transaction
        rollback restores the old version, and its entries become
        servable again without recomputation.
        """
        full_key = (name, key, dag.version)
        if full_key in self._cache:
            self.hits += 1
            obs.count("pm.cache_hit")
            return self._cache[full_key]
        family = (name, key)
        if family in self._latest and self._latest[family] != dag.version:
            # The structure moved since we last computed this analysis.
            self.invalidations += 1
            obs.count("pm.invalidations")
        self.misses += 1
        obs.count("pm.cache_miss")
        value = compute()
        self._cache[full_key] = value
        self._latest[family] = dag.version
        while len(self._cache) > self.MAX_ENTRIES:
            self._cache.pop(next(iter(self._cache)))
            self.evictions += 1
            obs.count("pm.cache_evict")
        return value

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop cached entries (all of them, or one family's)."""
        if name is None:
            stale = list(self._cache)
            self._latest.clear()
        else:
            stale = [k for k in self._cache if k[0] == name]
            for family in [f for f in self._latest if f[0] == name]:
                del self._latest[family]
        for k in stale:
            del self._cache[k]
        if stale:
            self.invalidations += len(stale)
            obs.count("pm.invalidations", len(stale))

    # ------------------------------------------------------------------
    # Convenience wrappers for the standard analyses.
    # ------------------------------------------------------------------
    def hammock(self, dag: DependenceDAG) -> HammockAnalysis:
        return self.get(dag, "hammock", lambda: HammockAnalysis(dag))

    def asap(self, dag: DependenceDAG) -> Dict[int, int]:
        return self.get(dag, "asap", dag.asap)

    def critical_path(self, dag: DependenceDAG, machine: MachineModel) -> int:
        return self.get(
            dag,
            "critical_path",
            lambda: dag.critical_path_length(machine.latency_of),
            key=machine.name,
        )

    def measure_all(self, dag: DependenceDAG, machine: MachineModel) -> List:
        """The full measurement list (shares this manager's hammock)."""
        from repro.core.measure import measure_all as _measure_all

        return self.get(
            dag,
            "measure",
            lambda: _measure_all(dag, machine, analysis=self.hammock(dag)),
            key=machine.name,
        )

    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
            "entries": len(self._cache),
        }
