"""Content-addressed persistent compile cache.

The per-process :class:`repro.pm.AnalysisManager` makes *analyses*
cheap within one compile; this module makes whole *compiles* free
across runs, processes, and users.  The unit of caching is one
prepared trace: a canonical hash of everything that determines its
compiled form —

* the trace text (instruction renderings, which deliberately exclude
  the process-local ``uid`` counters),
* the register class of every value name the trace mentions (probing
  ``machine.reg_class_of`` so classifier behavior is captured even for
  exotic callables),
* the machine fingerprint (FU classes, latencies, pipelining, register
  files, classifier identity),
* the compilation method and the pipeline cache version —

keys a pickled :class:`TraceArtifact` (the VLIW program plus its
schedule-length estimate) in an on-disk object store rooted at
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``).  Identical kernels
therefore compile once per fleet, not once per process.

Layering (see ``docs/serving.md``): the persistent cache sits *under*
the :class:`~repro.pm.analysis.AnalysisManager` — a lookup is tried
before any DAG is even built; only misses run the pass pipeline (which
then shares its analysis cache across the program's other misses).

Counters: ``serve.cache_hit`` / ``serve.cache_miss`` /
``serve.cache_put`` / ``serve.cache_evict`` (disk), ``serve.hot_hit``
(in-memory memo).  ``repro cache stats|gc|clear`` manages the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro import obs
from repro.ir.instructions import Instruction
from repro.machine.model import (
    MachineModel,
    PrefixRegClassifier,
    default_reg_class,
)
from repro.machine.vliw import VLIWProgram

#: Bumped whenever compiled-artifact layout or pipeline output changes
#: in a way that would make replaying an old artifact wrong.  Part of
#: every cache key, so stale stores simply stop hitting.
CACHE_VERSION = 2

#: Environment override for the store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


class CacheError(Exception):
    """The persistent store is unusable (permissions, bad layout)."""


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


# ======================================================================
# Key derivation.
# ======================================================================
def classifier_id(fn) -> str:
    """A stable identity string for a register classifier callable."""
    if fn is default_reg_class:
        return "default"
    if isinstance(fn, PrefixRegClassifier):
        return f"prefix:{fn.prefix}:{fn.match_cls}:{fn.other_cls}"
    module = getattr(fn, "__module__", "?")
    qualname = getattr(fn, "__qualname__", repr(fn))
    return f"callable:{module}.{qualname}"


def machine_fingerprint(machine: MachineModel) -> Dict[str, object]:
    """Everything about a machine that can change compiled output."""
    return {
        "name": machine.name,
        "fus": [
            {
                "name": fu.name,
                "count": fu.count,
                "latency": fu.latency,
                "ops": (
                    sorted(op.value for op in fu.ops)
                    if fu.ops is not None
                    else None
                ),
                "pipelined": fu.pipelined,
            }
            for fu in machine.fu_classes
        ],
        "registers": dict(sorted(machine.registers.items())),
        "classifier": classifier_id(machine.reg_class_of),
    }


def _value_names(instructions: Sequence[Instruction]) -> List[str]:
    names = set()
    for inst in instructions:
        if inst.dest is not None:
            names.add(inst.dest)
        names.update(inst.uses())
    return sorted(names)


def trace_key(
    instructions: Sequence[Instruction],
    machine: MachineModel,
    method: str,
    extra: Iterable[object] = (),
) -> str:
    """The content address of one trace compilation.

    Uid-independent: two structurally identical traces built in
    different processes (different uid counters) share a key, which is
    what makes cross-run and cross-user hits possible.  ``extra``
    admits caller-specific discriminators (e.g. a resilience mode).
    """
    classes = {
        name: machine.reg_class_of(name)
        for name in _value_names(instructions)
    }
    payload = {
        "v": CACHE_VERSION,
        "trace": [f"{inst.op.value}|{inst}" for inst in instructions],
        "classes": classes,
        "machine": machine_fingerprint(machine),
        "method": method,
        "extra": [str(item) for item in extra],
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def program_signature(program: VLIWProgram) -> str:
    """A uid-free rendering of a VLIW program, for identity checks.

    ``MachineOp.source_uid`` values differ between processes even for
    identical compiles, so bit-identity is defined on this signature:
    every word/slot/op rendering plus the live-in register binding.
    """
    live_ins = ",".join(
        f"{name}={ref.cls}{ref.index}"
        for name, ref in sorted(program.live_in_regs.items())
    )
    return f"{program}\n; live-in: {live_ins}"


# ======================================================================
# Artifacts.
# ======================================================================
@dataclass
class TraceArtifact:
    """What the cache stores for one compiled trace."""

    key: str
    method: str
    program: VLIWProgram
    cycles_estimate: int
    #: ``DegradationReport.to_dict()`` for a resilient compile; for a
    #: plain one, ``{"degraded": True, ...}`` when it degraded (e.g. its
    #: deadline tripped), else None.  Degraded artifacts are never stored.
    degradation: Optional[Dict[str, object]] = None


# ======================================================================
# The store.
# ======================================================================
class CompileCache:
    """A two-level compiled-artifact cache: memory memo over disk store.

    The disk level is content-addressed (``objects/<k[:2]>/<k>.pkl``)
    and shared by every process pointing at the same root; writes are
    atomic (temp file + rename), and unreadable objects are treated as
    misses and deleted.  The memory level is a bounded LRU memo that
    makes *hot* traces free without even touching the filesystem —
    this is the ``repro serve`` hot-trace memoization.

    Thread-safe: the server handles requests on multiple threads.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        memory_entries: int = 256,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.memory_entries = memory_entries
        self._memo: "OrderedDict[str, TraceArtifact]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.hot_hits = 0
        self.puts = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[TraceArtifact]:
        """The cached artifact for ``key``, or None on a miss."""
        with self._lock:
            memo = self._memo.get(key)
            if memo is not None:
                self._memo.move_to_end(key)
                self.hot_hits += 1
                self.hits += 1
                obs.count("serve.hot_hit")
                obs.count("serve.cache_hit")
                return memo
        path = self._object_path(key)
        try:
            blob = path.read_bytes()
            artifact = pickle.loads(blob)
        except FileNotFoundError:
            self.misses += 1
            obs.count("serve.cache_miss")
            return None
        except Exception:
            # Corrupt or incompatible object: drop it, report a miss.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            obs.count("serve.cache_miss")
            obs.count("serve.cache_corrupt")
            return None
        if not isinstance(artifact, TraceArtifact) or artifact.key != key:
            self.misses += 1
            obs.count("serve.cache_miss")
            return None
        self._memoize(key, artifact)
        self.hits += 1
        obs.count("serve.cache_hit")
        return artifact

    def put(self, artifact: TraceArtifact) -> bool:
        """Store ``artifact`` under its key; False if it cannot pickle."""
        try:
            blob = pickle.dumps(artifact)
        except Exception:
            obs.count("serve.cache_unpicklable")
            return False
        path = self._object_path(artifact.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self._memoize(artifact.key, artifact)
        self.puts += 1
        obs.count("serve.cache_put")
        return True

    def _memoize(self, key: str, artifact: TraceArtifact) -> None:
        with self._lock:
            self._memo[key] = artifact
            self._memo.move_to_end(key)
            while len(self._memo) > self.memory_entries:
                self._memo.popitem(last=False)

    # ------------------------------------------------------------------
    # Maintenance (the `repro cache` CLI).
    # ------------------------------------------------------------------
    def _objects(self) -> List[Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.pkl"))

    def stats(self) -> Dict[str, object]:
        """Store-wide and session counters, JSON-friendly."""
        objects = self._objects()
        return {
            "root": str(self.root),
            "entries": len(objects),
            "bytes": sum(p.stat().st_size for p in objects),
            "memory_entries": len(self._memo),
            "session": {
                "hits": self.hits,
                "hot_hits": self.hot_hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "hit_rate": round(
                    self.hits / (self.hits + self.misses), 4
                ) if (self.hits + self.misses) else 0.0,
            },
        }

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_days: Optional[float] = None,
    ) -> Dict[str, int]:
        """Evict by age, then oldest-first down to a size budget.

        Eviction order is deterministic: ``(mtime, object name)``, so
        two stores with identical contents gc identically regardless of
        directory enumeration order or object sizes.  Each gc eviction
        bumps ``serve.cache.gc_evicted`` (on top of the generic
        ``serve.cache_evict``).
        """
        removed = 0
        removed_bytes = 0
        objects = [(p.stat().st_mtime, p.name, p.stat().st_size, p)
                   for p in self._objects()]
        objects.sort(key=lambda entry: entry[:2])  # oldest first, then name
        now = time.time()
        survivors = []
        for mtime, _name, size, path in objects:
            if max_age_days is not None and now - mtime > max_age_days * 86400:
                self._evict(path, gc=True)
                removed += 1
                removed_bytes += size
            else:
                survivors.append((size, path))
        if max_bytes is not None:
            total = sum(size for size, _ in survivors)
            for size, path in survivors:
                if total <= max_bytes:
                    break
                self._evict(path, gc=True)
                total -= size
                removed += 1
                removed_bytes += size
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "remaining": len(self._objects()),
        }

    def clear(self) -> int:
        """Remove every stored object (and the memory memo)."""
        removed = 0
        for path in self._objects():
            self._evict(path)
            removed += 1
        with self._lock:
            self._memo.clear()
        return removed

    def _evict(self, path: Path, gc: bool = False) -> None:
        try:
            path.unlink()
            self.evictions += 1
            obs.count("serve.cache_evict")
            if gc:
                obs.count("serve.cache.gc_evicted")
        except OSError:
            pass


def resolve_cache(
    cache: Union[None, bool, str, Path, CompileCache],
) -> Optional[CompileCache]:
    """Normalize the ``cache=`` argument accepted across the API.

    ``None``/``False`` — caching off; ``True`` — the default store;
    a path — a store rooted there; a :class:`CompileCache` — itself.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return CompileCache()
    if isinstance(cache, CompileCache):
        return cache
    return CompileCache(cache)
