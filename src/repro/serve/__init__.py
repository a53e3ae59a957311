"""Compilation as a service: persistent caching, sharding, serving.

Three layers, each usable alone (tour in ``docs/serving.md``):

* :mod:`repro.serve.cache` — a content-addressed persistent compile
  cache (``$REPRO_CACHE_DIR``, default ``~/.cache/repro``) keyed on
  trace text + machine fingerprint + method + pipeline version.
  Plug it into :func:`repro.program_compiler.compile_program`
  via ``cache=True`` (or a path, or a :class:`CompileCache`).
* :mod:`repro.serve.shard` — sharded parallel compilation: a program's
  traces fanned over a ``multiprocessing`` pool (``jobs=N``), bit-
  identical to the serial path and degrading to it gracefully.
* :mod:`repro.serve.pool` / :mod:`repro.serve.supervisor` — the
  persistent supervised :class:`WorkerPool` behind ``repro serve
  --workers``: forked once, kept warm, crash/hang/memory-recovered,
  with poisoned-trace quarantine.
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — a long-lived
  stdlib-HTTP compile service (``repro serve``) and its client, with
  admission control, graceful drain, and client-side retry/backoff.

Server/client/protocol are imported lazily so that importing
``repro.serve`` from inside the compiler (``program_compiler`` uses
the cache and shards) never drags HTTP machinery along.
"""

from repro.serve.cache import (
    CACHE_VERSION,
    CompileCache,
    TraceArtifact,
    default_cache_dir,
    machine_fingerprint,
    program_signature,
    resolve_cache,
    trace_key,
)
from repro.serve.shard import compile_shards

__all__ = [
    "CACHE_VERSION",
    "CompileCache",
    "TraceArtifact",
    "default_cache_dir",
    "machine_fingerprint",
    "program_signature",
    "resolve_cache",
    "trace_key",
    "compile_shards",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "WorkerPool",
    "RestartPolicy",
    "QuarantineRegistry",
    "make_server",
    "serve_forever",
    "handle_payload",
    "machine_from_spec",
]

_LAZY = {
    "ServeApp": "repro.serve.server",
    "make_server": "repro.serve.server",
    "serve_forever": "repro.serve.server",
    "ServeClient": "repro.serve.client",
    "ServeError": "repro.serve.client",
    "WorkerPool": "repro.serve.pool",
    "RestartPolicy": "repro.serve.supervisor",
    "QuarantineRegistry": "repro.serve.supervisor",
    "handle_payload": "repro.serve.protocol",
    "machine_from_spec": "repro.serve.protocol",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
