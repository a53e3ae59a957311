"""Compilation as a service: persistent caching, sharding, serving.

Three layers, each usable alone (tour in ``docs/serving.md``):

* :mod:`repro.serve.cache` — a content-addressed persistent compile
  cache (``$REPRO_CACHE_DIR``, default ``~/.cache/repro``) keyed on
  trace text + machine fingerprint + method + pipeline version.
  Plug it into :func:`repro.program_compiler.compile_program`
  via ``cache=True`` (or a path, or a :class:`CompileCache`).
* :mod:`repro.serve.pool` / :mod:`repro.serve.supervisor` —
  ``compile_traces``, the one cache-and-dispatch path of every trace
  compile, and the one process executor, the supervised
  :class:`WorkerPool`: kept warm behind ``repro serve --workers``,
  forked per call for ``compile_program(jobs=N)``;
  crash/hang/memory-recovered, with poisoned-trace quarantine,
  bit-identical to the serial path.
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — a long-lived
  stdlib-HTTP compile service (``repro serve``) and its client, with
  admission control, graceful drain, and client-side retry/backoff.

Server/client/protocol/pool are imported lazily so that importing
``repro.serve`` from inside the compiler (``program_compiler`` uses
the cache) never drags HTTP or process machinery along.
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

__all__ = [
    "CACHE_VERSION",
    "CompileCache",
    "TraceArtifact",
    "default_cache_dir",
    "machine_fingerprint",
    "program_signature",
    "resolve_cache",
    "trace_key",
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
