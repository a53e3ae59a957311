"""The per-layer span ledger, recorded from outside the program.

A :class:`Tracer` wraps the public entry point of each layer (the
``LAYERS`` tables below) so that every call records one span: layer
name, start, end, parent span, the thread-local context it ran in, the
phase of the run, and an optional tag (a request id, ``plain`` or
``deadline``, a cache hit or miss).  Spans stay in memory and are
written out once, at the end of the run.

Wrapping happens by rebinding: every ``repro.*`` module attribute and
class attribute that holds the original function is pointed at the
wrapper, so ``from X import f`` bindings are caught too.  ``restore``
puts every original back and then checks that no wrapper is left.

Self time is a span's duration minus the time its direct children
cover.  Children run inside their parent on the same thread, so with
integer nanosecond clocks self time can never go negative, and the
self times of a tree add up exactly to its root's duration.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

#: Marker attribute every wrapper carries (used by ``Tracer.leftovers``).
WRAPPER_MARK = "__ledger_layer__"

#: (layer, entry points) for the compile path.  Entry points are
#: ``module:qualname``; ``URSAAllocator.run`` is the allocator's whole
#: reduction loop, so its *self* time is ``core.allocate_self_ms``.
COMPILE_LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("ir.parse", ("repro.ir.parser:parse_trace", "repro.ir.parser:parse_program")),
    ("graph.build_dag", ("repro.graph.dag:DependenceDAG.from_trace",)),
    ("core.measure", ("repro.core.measure:measure_all",)),
    ("core.kill", ("repro.core.kill:select_kill",)),
    ("pm.trial", ("repro.pm.incremental:IncrementalMeasurer.trial",)),
    ("core.transform_apply", ("repro.core.transforms.base:TransformCandidate.apply",)),
    ("core.allocate", ("repro.core.allocator:URSAAllocator.run",)),
    ("scheduling.list", ("repro.scheduling.list_scheduler:ListScheduler.run",)),
    ("core.assign", ("repro.core.assignment:assign",)),
    ("verify.static", ("repro.verify.schedule_rules:verify_schedule",)),
    ("core.codegen", ("repro.core.codegen:lower_schedule",)),
    ("machine.simulate", ("repro.machine.simulator:VLIWSimulator.run",)),
    ("ir.interp", (
        "repro.ir.interp:Interpreter.run_trace",
        "repro.ir.interp:Interpreter.run_program",
    )),
)

#: The serve-side layers, recorded in the server process.  The HTTP
#: handler calls ``ServeApp.admit`` / ``compile`` / ``release`` itself
#: (``guarded_compile`` is the transport-free equivalent), so the route
#: ``ServeApp.compile`` is the root of each request's server-side tree.
SERVE_LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = COMPILE_LAYERS + (
    ("serve.admit", (
        "repro.serve.server:ServeApp.admit",
        "repro.serve.server:ServeApp.release",
    )),
    ("serve.route", ("repro.serve.server:ServeApp.compile",)),
    ("analyze.check", ("repro.analyze.wellformed:check_program",)),
    ("serve.key", ("repro.serve.cache:trace_key",)),
    ("serve.cache_get", ("repro.serve.cache:CompileCache.get",)),
    ("serve.cache_put", ("repro.serve.cache:CompileCache.put",)),
    ("serve.parent_compile", ("repro.pipeline:compile_trace",)),
    ("serve.pool.map", ("repro.serve.pool:WorkerPool.map_shards",)),
    ("serve.verify", (
        "repro.pipeline:verify_program",
        "repro.program_compiler:verify_compiled_program",
    )),
)


def _tag_request(args, kwargs, result):
    payload = args[1] if len(args) > 1 else kwargs.get("payload")
    return payload.get("id") if isinstance(payload, dict) else None


def _tag_deadline(args, kwargs, result):
    return "plain" if kwargs.get("deadline") is None else "deadline"


def _tag_hit(args, kwargs, result):
    return "miss" if result is None else "hit"


def _tag_shards(args, kwargs, result):
    shards = args[1] if len(args) > 1 else kwargs.get("shards", ())
    return len(shards)


#: Per-layer tag functions ``(args, kwargs, result) -> tag``.
TAGS: Dict[str, Callable[..., Any]] = {
    "serve.route": _tag_request,
    "serve.parent_compile": _tag_deadline,
    "serve.cache_get": _tag_hit,
    "serve.pool.map": _tag_shards,
}


@dataclass
class SpanRecord:
    """One call of a wrapped entry point (times in ns, perf_counter)."""

    id: int
    name: str
    start: int
    end: int
    parent: int
    ctx: int
    phase: str
    tag: Any = None

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "start_ns": self.start,
            "end_ns": self.end, "parent": self.parent, "ctx": self.ctx,
            "phase": self.phase, "tag": self.tag,
        }


def _resolve(target: str) -> Tuple[Any, str]:
    """``module:Qual.name`` -> (owner object, attribute name)."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs span-recording wrappers over a table of layers."""

    def __init__(self, layers: Sequence[Tuple[str, Tuple[str, ...]]]) -> None:
        self.spans: List[SpanRecord] = []
        self.phase = "timed"
        self._ids = itertools.count()
        self._ctxs = itertools.count()
        self._local = threading.local()
        # (namespace, attribute, original value, wrapped value)
        self._sites: List[Tuple[Any, str, Any, Any]] = []
        self._installed = False
        for layer, targets in layers:
            for target in targets:
                self._plan(layer, target)

    # -- installation --------------------------------------------------
    def _plan(self, layer: str, target: str) -> None:
        owner, attr = _resolve(target)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self._wrap(layer, raw.__func__))
        else:
            wrapped = self._wrap(layer, raw)
        self._sites.append((owner, attr, raw, wrapped))
        if isinstance(owner, type):
            return
        # Rebind every ``from module import name`` copy of a function.
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._sites.append((module, key, raw, wrapped))

    def _wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        tag_fn = TAGS.get(layer)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack, ctx = tracer._thread_state()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                tag = tag_fn(args, kwargs, result) if tag_fn else None
                tracer.spans.append(SpanRecord(
                    span_id, layer, start, end, parent, ctx, tracer.phase, tag
                ))

        setattr(wrapper, WRAPPER_MARK, layer)
        return wrapper

    def _thread_state(self) -> Tuple[List[int], int]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.ctx = next(self._ctxs)
        return stack, local.ctx

    def install(self) -> None:
        if self._installed:
            return
        for namespace, attr, _, wrapped in self._sites:
            setattr(namespace, attr, wrapped)
        self._installed = True

    def restore(self) -> None:
        """Put every original back; raise if any wrapper survives."""
        for namespace, attr, original, _ in reversed(self._sites):
            setattr(namespace, attr, original)
        self._installed = False
        left = self.leftovers()
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    @staticmethod
    def leftovers() -> List[str]:
        """Every ``repro.*`` binding that still holds a ledger wrapper."""
        found = []
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if hasattr(value, WRAPPER_MARK):
                    found.append(f"{name}.{key}")
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        inner = getattr(member, "__func__", member)
                        if hasattr(inner, WRAPPER_MARK):
                            found.append(f"{name}.{key}.{attr}")
        return found

    # -- manual spans (the benchmark's own roots) ----------------------
    def span(self, name: str, tag: Any = None) -> "_ManualSpan":
        return _ManualSpan(self, name, tag)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record.to_dict(), default=str) + "\n")


class _ManualSpan:
    def __init__(self, tracer: Tracer, name: str, tag: Any) -> None:
        self.tracer = tracer
        self.name = name
        self.tag = tag

    def __enter__(self) -> "_ManualSpan":
        stack, self.ctx = self.tracer._thread_state()
        self.id = next(self.tracer._ids)
        self.parent = stack[-1] if stack else -1
        stack.append(self.id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter_ns()
        self.tracer._thread_state()[0].pop()
        self.tracer.spans.append(SpanRecord(
            self.id, self.name, self.start, end, self.parent, self.ctx,
            self.tracer.phase, self.tag,
        ))
        return False


# ======================================================================
# Aggregation.
# ======================================================================
def self_times(spans: Iterable[SpanRecord]) -> Dict[int, int]:
    """span id -> self time in ns (duration minus direct children)."""
    spans = list(spans)
    covered: Dict[int, int] = defaultdict(int)
    for record in spans:
        if record.parent >= 0:
            covered[record.parent] += record.duration
    return {record.id: record.duration - covered[record.id] for record in spans}


def layer_totals(
    spans: Iterable[SpanRecord],
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """(self ms per layer, calls per layer) over ``spans``."""
    spans = list(spans)
    own = self_times(spans)
    ms: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for record in spans:
        ms[record.name] += own[record.id] / 1e6
        calls[record.name] += 1
    return dict(ms), dict(calls)


#: per-layer metric -> the layer whose self time it reports.
SELF_MS = {
    "ir.parse_ms": "ir.parse",
    "graph.build_dag_ms": "graph.build_dag",
    "core.measure_ms": "core.measure",
    "core.kill_ms": "core.kill",
    "pm.trial_ms": "pm.trial",
    "core.transform_apply_ms": "core.transform_apply",
    "core.allocate_self_ms": "core.allocate",
    "scheduling.list_ms": "scheduling.list",
    "core.assign_self_ms": "core.assign",
    "verify.static_ms": "verify.static",
    "core.codegen_ms": "core.codegen",
    "machine.simulate_ms": "machine.simulate",
    "ir.interp_ms": "ir.interp",
    "analyze.check_ms": "analyze.check",
    "serve.key_ms": "serve.key",
    "serve.cache_get_ms": "serve.cache_get",
    "serve.cache_put_ms": "serve.cache_put",
    "serve.pool.map_ms": "serve.pool.map",
    "serve.verify_ms": "serve.verify",
}
#: per-layer metric -> the layer whose calls it counts.
CALLS = {
    "core.measure_calls": "core.measure",
    "core.kill_calls": "core.kill",
    "pm.trial_calls": "pm.trial",
    "core.transform_apply_calls": "core.transform_apply",
}


def per_job(ms: Dict[str, float], calls: Dict[str, int], jobs: int) -> Dict[str, float]:
    """The ``SELF_MS`` and ``CALLS`` rows as means over ``jobs``."""
    rows = {metric: ms.get(layer, 0.0) / jobs for metric, layer in SELF_MS.items()}
    rows.update({metric: calls.get(layer, 0) / jobs for metric, layer in CALLS.items()})
    return rows


def subtree(spans: Sequence[SpanRecord], root_ids: Iterable[int]) -> List[SpanRecord]:
    """The spans under (and including) ``root_ids``."""
    children: Dict[int, List[SpanRecord]] = defaultdict(list)
    by_id = {}
    for record in spans:
        children[record.parent].append(record)
        by_id[record.id] = record
    out: List[SpanRecord] = []
    todo = [by_id[i] for i in root_ids if i in by_id]
    while todo:
        record = todo.pop()
        out.append(record)
        todo.extend(children[record.id])
    return out
