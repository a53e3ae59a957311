"""The ``repro serve`` wire protocol: JSON requests in, JSON results out.

Transport-independent: :func:`handle_payload` maps one decoded JSON
body to one JSON-serializable response, so the HTTP server, tests, and
any future socket transport share identical semantics.  The full
request/response schema reference lives in ``docs/serving.md``.

A *single* request::

    {"kind": "trace",                  # or "program"
     "source": "x = load [a]\\n...",    # ursa-lang text
     "machine": {"fus": 4, "regs": 8}, # or {"preset": "research"}, ...
     "method": "ursa",
     "options": {"deadline_ms": 500, "resilient": true, "verify": false}}

A *batch* request is ``{"requests": [<single>, ...]}`` and returns
``{"responses": [...]}`` — one response per request, order preserved,
failures isolated per entry.

Every response is ``{"ok": true, "result": {...}}`` or
``{"ok": false, "error": {"code", "type", "message"}}`` with codes:

========== ====== ================================================
code       HTTP   meaning
========== ====== ================================================
bad_request 400   malformed body, unknown method/kind/machine spec
parse_error 400   the ursa-lang source does not parse
ill_formed  422   static analysis rejected the source before compile
compile_error 422 the pipeline rejected the program (verifier, ...)
timeout     408   the deadline expired (non-resilient compiles)
internal    500   not a ``CompileError``: a server-side bug
========== ====== ================================================

``parse_error``, ``compile_error`` and ``timeout`` are the ``code`` of
the raised :class:`repro.diagnostics.CompileError`.

``ill_formed`` rejections are *admission control* (docs/analysis.md):
``repro.analyze`` well-formedness errors fail the request with
structured ``error.diagnostics`` and **no compiler invocation** — the
``serve.analyze_reject`` counter tracks them.  ``kind: "analyze"``
requests (or ``POST /v1/analyze``) run the analyzer alone and always
return the full report, diagnostics and feasibility bounds included.

Degraded-but-successful compiles stay ``ok: true`` and carry the
structured :class:`~repro.resilience.fallback.DegradationReport` dict
in ``result.degradation`` — same shape as the CLI's ``--json`` output.

A trace request whose source text was already admitted for the same
machine spec, method and ``resilient`` flag is a *hot hit*: it is
recalled from the cache's memo by a digest of that text and answered
with the verdict (per ``options.seed``) and rendering the memo keeps
for the artifact's program — no parse, admission, key or
re-verification (docs/serving.md, "The hot memo").  Option types are
checked before any lookup, so a hit and a miss answer alike.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.diagnostics import CompileError, first_line
from repro.machine.model import MachineModel
from repro.serve.cache import CompileCache, source_digest
from repro.serve.pool import TraceOutcome, compile_traces

#: Maps protocol error codes to HTTP statuses.
ERROR_STATUS = {
    "bad_request": 400,
    "parse_error": 400,
    "ill_formed": 422,
    "compile_error": 422,
    "timeout": 408,
    "overloaded": 503,
    "draining": 503,
    "internal": 500,
}

#: Upper bound on entries per batch request.
DEFAULT_MAX_BATCH = 64


class ProtocolError(Exception):
    """A request the protocol cannot serve; carries an error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class IllFormedError(ProtocolError):
    """Admission control rejected the source; carries the diagnostics."""

    def __init__(
        self, message: str, diagnostics: List[Dict[str, Any]]
    ) -> None:
        super().__init__("ill_formed", message)
        self.diagnostics = diagnostics


def machine_from_spec(spec: Optional[Dict[str, Any]]) -> MachineModel:
    """Build a machine from its JSON spec.

    ``{"preset": "research"}`` picks a named preset;
    ``{"fus": N, "regs": N, "classed": bool, "latency": N}`` builds a
    homogeneous (or classed) machine like the CLI flags do.  ``None``
    means the default research machine.
    """
    if spec is None:
        spec = {}
    if not isinstance(spec, dict):
        raise ProtocolError("bad_request", "machine spec must be an object")
    if "preset" in spec:
        from repro.machine.presets import PRESETS

        name = spec["preset"]
        if name not in PRESETS:
            raise ProtocolError(
                "bad_request",
                f"unknown preset {name!r}; available: {sorted(PRESETS)}",
            )
        return PRESETS[name]()
    unknown = set(spec) - {"fus", "regs", "classed", "latency"}
    if unknown:
        raise ProtocolError(
            "bad_request", f"unknown machine spec fields: {sorted(unknown)}"
        )
    try:
        fus = int(spec.get("fus", 4))
        regs = int(spec.get("regs", 8))
        latency = int(spec.get("latency", 1))
    except (TypeError, ValueError):
        raise ProtocolError("bad_request", "fus/regs/latency must be integers")
    if spec.get("classed"):
        return MachineModel.classed(
            alu=fus, mul=max(1, fus // 2), mem=max(1, fus // 2),
            branch=1, alu_regs=regs,
        )
    return MachineModel.homogeneous(fus, regs, latency=latency)


def error_response(
    code: str,
    exc_type: str,
    message: str,
    diagnostics: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    obs.count("serve.errors")
    obs.count(f"serve.error.{code}")
    error: Dict[str, Any] = {
        "code": code, "type": exc_type, "message": message,
    }
    if diagnostics is not None:
        error["diagnostics"] = diagnostics
    return {"ok": False, "error": error}


def _classify_exception(exc: Exception) -> Tuple[str, str]:
    """(error code, message) for a compile-path exception; anything that
    is not a :class:`CompileError` is a bug and answers ``internal``."""
    if isinstance(exc, ProtocolError):
        return exc.code, str(exc)
    if isinstance(exc, CompileError):
        if exc.code == "timeout":
            return "timeout", f"deadline expired at {exc.site}"
        return exc.code, first_line(exc)
    return "internal", f"{type(exc).__name__}: {exc}"


# ======================================================================
# Request handlers.
# ======================================================================
def _require_source(request: Dict[str, Any]) -> str:
    source = request.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError("bad_request", "missing 'source' (ursa-lang text)")
    return source


def _method_of(request: Dict[str, Any]) -> str:
    from repro.methods import UnknownMethodError, resolve

    method = request.get("method", "ursa")
    try:
        return resolve(method).name
    except UnknownMethodError as exc:
        raise ProtocolError("bad_request", str(exc))


def _options_of(request: Dict[str, Any]) -> Dict[str, Any]:
    options = request.get("options", {})
    if not isinstance(options, dict):
        raise ProtocolError("bad_request", "'options' must be an object")
    unknown = set(options) - {
        "deadline_ms", "resilient", "verify", "seed", "memory", "bounds",
    }
    if unknown:
        raise ProtocolError(
            "bad_request", f"unknown options: {sorted(unknown)}"
        )
    # Checked before any cache lookup, so a hit and a miss answer alike.
    for flag in ("verify", "resilient", "bounds"):
        if flag in options and not isinstance(options[flag], bool):
            raise ProtocolError(
                "bad_request", f"'options.{flag}' must be a boolean"
            )
    try:
        seed = int(options.get("seed", 0))
    except (TypeError, ValueError, OverflowError):
        raise ProtocolError("bad_request", "'options.seed' must be an integer")
    deadline_ms = options.get("deadline_ms")
    if deadline_ms is not None and (
        isinstance(deadline_ms, bool)
        or not isinstance(deadline_ms, (int, float))
        or not 0 <= deadline_ms < math.inf
    ):
        raise ProtocolError(
            "bad_request",
            "'options.deadline_ms' must be a finite non-negative number "
            "or null",
        )
    return {**options, "seed": seed}


def _memory_of(options: Dict[str, Any]) -> Dict[Tuple[str, int], int]:
    """Initial memory cells: ``{"v": 5, "w+4": 2}`` -> {(base, off): val}.

    Same addressing the CLI's ``--mem base[+offset]=value`` flag uses.
    """
    spec = options.get("memory", {})
    if not isinstance(spec, dict):
        raise ProtocolError(
            "bad_request", "'options.memory' must map cells to integers"
        )
    memory: Dict[Tuple[str, int], int] = {}
    for cell, value in spec.items():
        base, _, offset = str(cell).partition("+")
        try:
            memory[(base, int(offset) if offset else 0)] = int(value)
        except (TypeError, ValueError):
            raise ProtocolError(
                "bad_request", f"bad memory cell {cell!r}={value!r}"
            )
    return memory


def _parse_or_reject(source: str):
    """Parse ursa-lang text, mapping failures to ``parse_error``."""
    from repro.ir.parser import parse_program

    try:
        return parse_program(source)
    except Exception as exc:
        raise ProtocolError("parse_error", first_line(exc, "parse failed"))


def _admit(program, machine: MachineModel, source: str) -> None:
    """Fast-reject ill-formed sources *before* any compile work.

    Runs the ``repro.analyze`` well-formedness pack (CFG + liveness
    only — no DAG build); error-severity findings abort the request
    with structured diagnostics.  Warnings/info pass through: they are
    legal programs (docs/analysis.md).
    """
    from repro.analyze import AnalyzeReport, check_program

    report = AnalyzeReport(
        check_program(program, machine=machine, source=source)
    )
    errors = report.errors()
    if errors:
        obs.count("serve.analyze_reject")
        head = errors[0]
        raise IllFormedError(
            f"{head.code}: {head.message}"
            + (f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""),
            [report.row(d) for d in errors],
        )


def _parse_trace(source: str):
    """Parse a trace request's source: exactly one basic block."""
    parsed = _parse_or_reject(source)
    if len(parsed.blocks) != 1:
        raise ProtocolError(
            "parse_error",
            f"expected straight-line code, found {len(parsed.blocks)} blocks",
        )
    return parsed


def handle_trace_request(
    request: Dict[str, Any],
    cache: Optional[CompileCache],
    default_deadline_ms: Optional[float] = None,
    pool: Optional[object] = None,
) -> Dict[str, Any]:
    """Compile one straight-line trace; memoized through ``cache``.

    A miss compiles on ``pool`` when the server has one, like the
    traces of a program request.  A source text the memo has already
    seen admitted for the same machine spec, method and ``resilient``
    flag is recalled by its digest: no parse, admission or key, and the
    verdict and rendering the memo keeps for its program.  Only a
    request that needs a verdict the memo lacks takes the full path.
    """
    source = _require_source(request)
    method = _method_of(request)
    options = _options_of(request)
    machine = machine_from_spec(request.get("machine"))
    deadline_ms = options.get("deadline_ms", default_deadline_ms)
    resilient = bool(options.get("resilient", False))
    verify = bool(options.get("verify"))
    verdict = ("verified", options["seed"])  # its memo note name

    outcome: Optional[TraceOutcome] = None
    if cache is not None:
        digest = source_digest(
            source, request.get("machine"), method, resilient
        )
        key = cache.recall(digest, verdict if verify else None)
        # ``get`` misses a recalled key only if the object left the memo
        # and the disk since (a concurrent gc or clear); the full path
        # then looks it up once more.
        artifact = cache.get(key) if key is not None else None
        if artifact is not None:
            outcome = TraceOutcome(artifact, key, True, cache.answered_hot())
    instructions = None
    if outcome is None:
        parsed = _parse_trace(source)
        _admit(parsed, machine, source)
        instructions = list(parsed.blocks[0].instructions)
        (outcome,) = compile_traces(
            [instructions], machine, method, cache=cache,
            deadline_ms=deadline_ms, resilient=resilient, pool=pool,
        )
        if cache is not None:
            cache.index(digest, outcome.key, outcome.artifact.program)
    artifact = outcome.artifact
    program = artifact.program

    def derived(name, compute):
        if cache is None:
            return compute()
        return cache.derive(outcome.key, program, name, compute)

    def run_verify() -> bool:
        from repro.pipeline import build_dag, synthesize_memory, verify_program

        # A recalled hit parsed nothing; it lacks the verdict only if its
        # memo entry was re-memoized or swapped since the recall.
        trace = instructions
        if trace is None:
            trace = list(_parse_trace(source).blocks[0].instructions)
        dag = build_dag(trace)
        memory = synthesize_memory(dag, options["seed"])
        return verify_program(dag, program, machine, memory)[1]

    def render() -> Dict[str, Any]:
        return {
            "issue_cycles": program.issue_cycles,
            "op_count": program.op_count,
            "spill_ops": program.spill_op_count,
            "utilization": round(program.utilization(), 4),
            "program": str(program),
        }

    verified = derived(verdict, run_verify) if verify else None
    return {
        "ok": True,
        "result": {
            "kind": "trace",
            "method": method,
            "machine": machine.describe(),
            "cycles_estimate": artifact.cycles_estimate,
            **derived("rendering", render),
            "verified": verified,
            "degradation": artifact.degradation,
            "cache": {
                "hit": outcome.hit, "hot": outcome.hot, "key": outcome.key,
            },
        },
    }


def handle_program_request(
    request: Dict[str, Any],
    cache: Optional[CompileCache],
    default_deadline_ms: Optional[float] = None,
    pool: Optional[object] = None,
) -> Dict[str, Any]:
    """Compile (and run) a whole multi-block program."""
    import hashlib

    from repro.program_compiler import compile_program, verify_compiled_program
    from repro.serve.cache import program_signature

    source = _require_source(request)
    method = _method_of(request)
    options = _options_of(request)
    machine = machine_from_spec(request.get("machine"))
    deadline_ms = options.get("deadline_ms", default_deadline_ms)

    program = _parse_or_reject(source)
    _admit(program, machine, source)

    compiled = compile_program(
        program, machine, method=method,
        cache=cache, deadline_ms=deadline_ms,
        resilient=bool(options.get("resilient", False)),
        pool=pool,
    )
    # Per-trace digests of the uid-free program rendering: lets clients
    # (and the serve-chaos CI smoke) assert bit-identity of two compiles
    # without shipping the full program text twice.
    signatures = {
        head: hashlib.sha256(
            program_signature(trace.program).encode()
        ).hexdigest()[:16]
        for head, trace in sorted(compiled.traces.items())
    }
    result: Dict[str, Any] = {
        "kind": "program",
        "method": method,
        "machine": machine.describe(),
        "traces": sorted(compiled.traces),
        "signatures": signatures,
        "static_ops": compiled.total_static_ops(),
        "cache": {
            "hits": compiled.cache_hits,
            "misses": compiled.cache_misses,
        },
    }
    if options.get("verify", True):
        run, ok = verify_compiled_program(
            compiled, memory=_memory_of(options) or None
        )
        result["dynamic_cycles"] = run.cycles
        result["dispatch_path"] = run.trace_path
        result["verified"] = ok
    return {"ok": True, "result": result}


def handle_analyze_request(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run the static analyzer alone; never invokes the compiler.

    Unlike compile kinds, a source that fails to parse or is ill-formed
    still returns ``ok: true`` — the report *is* the result, with
    ``result.report.ok`` carrying the verdict (docs/analysis.md).
    """
    from repro.analyze import analyze_source

    source = _require_source(request)
    options = _options_of(request)
    machine = machine_from_spec(request.get("machine"))
    obs.count("serve.analyze_requests")
    report = analyze_source(
        source, machine=machine, bounds=bool(options.get("bounds", True))
    )
    return {
        "ok": True,
        "result": {
            "kind": "analyze",
            "machine": machine.describe(),
            "report": report.to_dict(),
        },
    }


def handle_single(
    request: Dict[str, Any],
    cache: Optional[CompileCache],
    default_deadline_ms: Optional[float] = None,
    pool: Optional[object] = None,
) -> Dict[str, Any]:
    """Dispatch one request dict; never raises."""
    try:
        if not isinstance(request, dict):
            raise ProtocolError("bad_request", "request must be an object")
        kind = request.get("kind", "trace")
        with obs.span("serve.request", kind=str(kind)):
            obs.count("serve.requests")
            if kind == "trace":
                response = handle_trace_request(
                    request, cache, default_deadline_ms, pool
                )
            elif kind == "program":
                response = handle_program_request(
                    request, cache, default_deadline_ms, pool
                )
            elif kind == "analyze":
                response = handle_analyze_request(request)
            else:
                raise ProtocolError(
                    "bad_request",
                    f"unknown kind {kind!r}; expected 'trace', 'program', "
                    "or 'analyze'",
                )
        if "id" in request:
            response["id"] = request["id"]
        return response
    except Exception as exc:
        code, message = _classify_exception(exc)
        response = error_response(
            code,
            type(exc).__name__,
            message,
            diagnostics=getattr(exc, "diagnostics", None),
        )
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
        return response


def handle_payload(
    payload: Any,
    cache: Optional[CompileCache],
    default_deadline_ms: Optional[float] = None,
    max_batch: int = DEFAULT_MAX_BATCH,
    pool: Optional[object] = None,
) -> Tuple[int, Dict[str, Any]]:
    """One decoded JSON body -> ``(http_status, response_body)``.

    Accepts a single request object or a ``{"requests": [...]}`` batch;
    batch entries fail independently, and the batch itself is always
    HTTP 200 (per-entry status is in each response's ``ok``/``error``).
    """
    if isinstance(payload, dict) and "requests" in payload:
        requests = payload["requests"]
        if not isinstance(requests, list):
            body = error_response(
                "bad_request", "ProtocolError", "'requests' must be an array"
            )
            return ERROR_STATUS["bad_request"], body
        if len(requests) > max_batch:
            body = error_response(
                "bad_request",
                "ProtocolError",
                f"batch of {len(requests)} exceeds max_batch={max_batch}",
            )
            return ERROR_STATUS["bad_request"], body
        obs.count("serve.batch_requests")
        obs.count("serve.batched_entries", len(requests))
        responses: List[Dict[str, Any]] = [
            handle_single(entry, cache, default_deadline_ms, pool)
            for entry in requests
        ]
        return 200, {"responses": responses}

    response = handle_single(payload, cache, default_deadline_ms, pool)
    if response.get("ok"):
        return 200, response
    return ERROR_STATUS.get(response["error"]["code"], 500), response
