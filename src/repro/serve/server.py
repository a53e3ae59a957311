"""The ``repro serve`` HTTP endpoint: a long-lived compilation service.

Stdlib-only (``http.server``), so it runs anywhere the library does.
One process hosts:

* ``POST /v1/compile`` — single or batch compile requests (see
  :mod:`repro.serve.protocol` and ``docs/serving.md``);
* ``POST /v1/analyze`` — static analysis only: diagnostics + resource
  lower bounds, never invokes the compiler (``docs/analysis.md``);
* ``GET  /v1/stats``   — server-lifetime observability counters plus
  cache statistics, worker-pool state, and admission-control state;
* ``GET  /v1/cache``   — the persistent store's stats alone;
* ``GET  /healthz``    — liveness probe reporting ``"ok"`` or
  ``"degraded"`` plus per-worker pool state; 503 only when no compile
  path remains (draining or closed).

The server owns one :class:`~repro.serve.cache.CompileCache` and (when
``workers`` is set) one persistent supervised
:class:`~repro.serve.pool.WorkerPool` — workers are forked once at
start and reused across requests (see :mod:`repro.serve.pool`).  A
server-lifetime ``repro.obs`` capture backs ``/v1/stats``, and every
request runs under a ``serve.request`` span.

Service hardening (PR 9, ``docs/serving.md`` runbook):

* **Admission control** — at most ``queue_depth`` POSTs in flight;
  excess requests are shed with ``503`` + ``Retry-After`` (counter
  ``serve.shed``) *before* their body is parsed, so a flood cannot
  wedge the server.  GET probes always pass.
* **Graceful drain** — SIGTERM (and the normal shutdown path) stops
  admission (new POSTs get ``503`` with ``code="draining"``), waits up
  to ``drain_timeout_s`` for in-flight requests, then flushes the
  cache and the obs capture exactly once (``ServeApp.close`` is
  idempotent and returns whether it performed the flush).

Threading: :class:`ThreadingHTTPServer` gives one thread per
connection.  The cache and pool are thread-safe, and batches from
different handler threads run at once on different pool workers;
compilation itself is pure Python and GIL-bound, so handler
concurrency is about *latency overlap* while CPU-parallel throughput
comes from the worker pool, which compiles every cache miss, trace and
program requests alike.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro import obs
from repro.serve.cache import CompileCache, resolve_cache
from repro.serve.protocol import (
    DEFAULT_MAX_BATCH,
    error_response,
    handle_payload,
)

#: Request bodies larger than this are rejected outright (64 MiB).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default admission-control watermark: concurrent POSTs beyond this
#: are shed with 503 + Retry-After (see docs/serving.md).
DEFAULT_QUEUE_DEPTH = 32

#: Default seconds to wait for in-flight requests during drain.
DEFAULT_DRAIN_TIMEOUT_S = 10.0

_HEADERS = Dict[str, str]


class ServeApp:
    """Transport-free core of the server: routes to JSON responses.

    Separated from the HTTP handler so tests can drive it without
    sockets and future transports can reuse it unchanged.  The guarded
    entry points (:meth:`guarded_compile` / :meth:`guarded_analyze`)
    wrap the routes with admission control and return
    ``(status, body, headers)``.
    """

    def __init__(
        self,
        cache: Union[None, bool, str, Path, CompileCache] = True,
        deadline_ms: Optional[float] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        workers: Optional[int] = None,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
        pool: Optional[object] = None,
        pool_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.cache = resolve_cache(cache)
        self.deadline_ms = deadline_ms
        self.max_batch = max_batch
        self.queue_depth = max(1, int(queue_depth))
        self.drain_timeout_s = drain_timeout_s
        self.draining = False
        self.shed = 0
        self.flushes = 0
        self._closed = False
        self._inflight = 0
        #: admissions attempted so far (the chaos ``queue_flood`` key).
        self._admissions = 0
        self._admission = threading.Lock()
        self._idle = threading.Condition(self._admission)
        # Server-lifetime capture: /v1/stats reads these counters.  The
        # capture must be live before the pool forks so pool counters
        # land in it.
        self._capture = obs.capture()
        self.observer = self._capture.__enter__()
        if pool is None and workers is not None and workers > 0:
            from repro.serve.pool import WorkerPool

            pool = WorkerPool(workers=workers, **(pool_options or {}))
        self.pool = pool

    def close(self) -> bool:
        """Shut the pool down and flush the obs capture exactly once.

        Returns True when this call performed the flush, False when a
        previous call already did — the graceful-drain tests pin the
        exactly-once contract on this.
        """
        with self._admission:
            if self._closed:
                return False
            self._closed = True
            self.draining = True
        if self.pool is not None:
            self.pool.shutdown()
        self._capture.__exit__(None, None, None)
        self.flushes += 1
        return True

    # -- admission control ---------------------------------------------
    def admit(self) -> Optional[Tuple[int, Dict[str, Any], _HEADERS]]:
        """Admit one POST, or return the 503 shed/drain response.

        ``Connection: close`` rides along on sheds so a flood's
        keep-alive sockets don't pin handler threads.
        """
        from repro.resilience import chaos

        with self._admission:
            if self._closed or self.draining:
                obs.count("serve.drain.rejected")
                body = error_response(
                    "draining",
                    "ServiceDraining",
                    "server is draining; retry against another instance",
                )
                return 503, body, {"Retry-After": "1", "Connection": "close"}
            flooded = chaos.service_fault("queue_flood", self._admissions)
            self._admissions += 1
            if flooded or self._inflight >= self.queue_depth:
                self.shed += 1
                obs.count("serve.shed")
                detail = (
                    "chaos queue-flood fault"
                    if flooded
                    else f"{self._inflight} requests in flight >= "
                    f"queue depth {self.queue_depth}"
                )
                body = error_response(
                    "overloaded", "Overloaded", f"load shed: {detail}"
                )
                return 503, body, {"Retry-After": "1", "Connection": "close"}
            self._inflight += 1
            return None

    def release(self) -> None:
        with self._admission:
            self._inflight = max(0, self._inflight - 1)
            if self._inflight == 0:
                self._idle.notify_all()

    def begin_drain(self) -> None:
        """Stop admitting new work (idempotent); in-flight continues."""
        with self._admission:
            if not self.draining:
                self.draining = True
                obs.count("serve.drain.begun")

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Wait for in-flight requests; True when the server is idle."""
        deadline = time.monotonic() + (
            self.drain_timeout_s if timeout_s is None else timeout_s
        )
        with self._admission:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(remaining)
            return self._inflight == 0

    # -- routes ---------------------------------------------------------
    def compile(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        return handle_payload(
            payload,
            self.cache,
            default_deadline_ms=self.deadline_ms,
            max_batch=self.max_batch,
            pool=self.pool,
        )

    def analyze(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/analyze``: static analysis without compilation.

        The route defaults ``kind`` to ``"analyze"`` so clients can post
        bare ``{"source": ...}`` bodies; an explicit ``kind`` wins (and
        anything other than ``"analyze"`` is rejected by dispatch).
        """
        if isinstance(payload, dict) and "requests" in payload:
            requests = payload.get("requests")
            if isinstance(requests, list):
                payload = dict(payload)
                payload["requests"] = [
                    {"kind": "analyze", **entry}
                    if isinstance(entry, dict) else entry
                    for entry in requests
                ]
        elif isinstance(payload, dict):
            payload = {"kind": "analyze", **payload}
        return handle_payload(payload, None, max_batch=self.max_batch)

    def guarded_compile(
        self, payload: Any
    ) -> Tuple[int, Dict[str, Any], _HEADERS]:
        denied = self.admit()
        if denied is not None:
            return denied
        try:
            status, body = self.compile(payload)
            return status, body, {}
        finally:
            self.release()

    def guarded_analyze(
        self, payload: Any
    ) -> Tuple[int, Dict[str, Any], _HEADERS]:
        denied = self.admit()
        if denied is not None:
            return denied
        try:
            status, body = self.analyze(payload)
            return status, body, {}
        finally:
            self.release()

    # -- observation ----------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        from repro.methods import catalogue

        counters = dict(sorted(self.observer.counters.items()))
        return {
            "ok": True,
            "counters": counters,
            "methods": catalogue(),
            "cache": self.cache.stats() if self.cache is not None else None,
            "pool": self.pool.snapshot() if self.pool is not None else None,
            "service": {
                "inflight": self._inflight,
                "queue_depth": self.queue_depth,
                "shed": self.shed,
                "draining": self.draining,
            },
            "config": {
                "deadline_ms": self.deadline_ms,
                "max_batch": self.max_batch,
                "caching": self.cache is not None,
                "workers": self.pool.size if self.pool is not None else None,
                "queue_depth": self.queue_depth,
                "drain_timeout_s": self.drain_timeout_s,
            },
        }

    def cache_stats(self) -> Tuple[int, Dict[str, Any]]:
        if self.cache is None:
            return 200, {"ok": True, "cache": None}
        return 200, {"ok": True, "cache": self.cache.stats()}

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness + readiness: 503 only when no compile path remains.

        A pool with dead/exhausted workers is *degraded*, not down —
        requests still complete in-parent — so it reports 200 with
        ``status="degraded"`` and the per-worker detail.
        """
        if self._closed:
            return 503, {"ok": False, "status": "closed", "workers": None}
        if self.draining:
            workers = self.pool.snapshot() if self.pool is not None else None
            return 503, {"ok": False, "status": "draining", "workers": workers}
        workers = self.pool.snapshot() if self.pool is not None else None
        degraded = workers is not None and (
            not workers["healthy"] or workers["alive"] == 0
        )
        status = "degraded" if degraded else "ok"
        return 200, {"ok": True, "status": status, "workers": workers}


class _Handler(BaseHTTPRequestHandler):
    """Maps HTTP verbs/paths onto the :class:`ServeApp`."""

    app: ServeApp  # set by make_server on the subclass
    quiet = True

    # ------------------------------------------------------------------
    def _send(
        self,
        status: int,
        body: Dict[str, Any],
        headers: Optional[_HEADERS] = None,
    ) -> None:
        blob = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if headers and headers.get("Connection") == "close":
            self.close_connection = True
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, fmt: str, *args: Any) -> None:
        if not self.quiet:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        if self.path == "/healthz":
            self._send(*self.app.health())
        elif self.path == "/v1/stats":
            self._send(200, self.app.stats())
        elif self.path == "/v1/cache":
            self._send(*self.app.cache_stats())
        else:
            self._send(
                404,
                error_response("bad_request", "NotFound",
                               f"no route {self.path!r}"),
            )

    def do_POST(self) -> None:  # noqa: N802
        if self.path not in ("/v1/compile", "/v1/analyze"):
            self._send(
                404,
                error_response("bad_request", "NotFound",
                               f"no route {self.path!r}"),
            )
            return
        # Admission first: a shed request is answered (and its socket
        # closed) without even reading the body.
        denied = self.app.admit()
        if denied is not None:
            self._send(*denied)
            return
        try:
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                length = -1
            if length < 0 or length > MAX_BODY_BYTES:
                self._send(
                    400,
                    error_response("bad_request", "ProtocolError",
                                   "missing or oversized Content-Length"),
                )
                return
            raw = self.rfile.read(length)
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._send(
                    400,
                    error_response("bad_request", type(exc).__name__,
                                   f"body is not valid JSON: {exc}"),
                )
                return
            route = (
                self.app.analyze if self.path == "/v1/analyze"
                else self.app.compile
            )
            try:
                status, body = route(payload)
            except Exception as exc:  # handle_payload shields; belt+braces
                status, body = 500, error_response(
                    "internal", type(exc).__name__, str(exc)
                )
            self._send(status, body)
        finally:
            self.app.release()


def make_server(
    host: str = "127.0.0.1",
    port: int = 8377,
    cache: Union[None, bool, str, Path, CompileCache] = True,
    deadline_ms: Optional[float] = None,
    max_batch: int = DEFAULT_MAX_BATCH,
    quiet: bool = True,
    workers: Optional[int] = None,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    drain_timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S,
    pool_options: Optional[Dict[str, Any]] = None,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server.

    The returned server exposes ``.app`` (the :class:`ServeApp`) and
    ``.server_address`` (useful with ``port=0`` in tests).  Callers own
    shutdown: ``server.shutdown(); server.server_close();
    server.app.close()``.
    """
    app = ServeApp(
        cache=cache,
        deadline_ms=deadline_ms,
        max_batch=max_batch,
        workers=workers,
        queue_depth=queue_depth,
        drain_timeout_s=drain_timeout_s,
        pool_options=pool_options,
    )
    handler = type("BoundHandler", (_Handler,), {"app": app, "quiet": quiet})
    server = ThreadingHTTPServer((host, port), handler)
    server.app = app  # type: ignore[attr-defined]
    return server


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8377,
    **kwargs: Any,
) -> None:
    """Run the compile service until interrupted (the CLI entry).

    SIGTERM triggers a graceful drain: admission stops (new POSTs get
    503 ``draining``), in-flight requests are given ``drain_timeout_s``
    to finish, then the pool, cache, and obs capture are flushed
    exactly once.  Ctrl-C takes the same path.
    """
    server = make_server(host, port, **kwargs)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro serve: listening on http://{bound_host}:{bound_port}")
    app: ServeApp = server.app  # type: ignore[attr-defined]
    if app.cache is not None:
        print(f"repro serve: persistent cache at {app.cache.root}")
    else:
        print("repro serve: persistent cache disabled")
    if app.pool is not None:
        print(
            f"repro serve: worker pool of {app.pool.size} "
            f"(queue depth {app.queue_depth})"
        )

    def _on_sigterm(signum: int, frame: Any) -> None:
        print("repro serve: SIGTERM — draining")
        app.begin_drain()
        # shutdown() blocks until serve_forever returns; do it off the
        # signal frame so the handler itself never deadlocks.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        app.begin_drain()
        drained = app.drain()
        server.server_close()
        app.close()
        outcome = "clean" if drained else "timed out with requests in flight"
        print(f"repro serve: drain {outcome}; cache and obs flushed")
