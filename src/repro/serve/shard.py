"""Sharded parallel compilation: traces fanned over a process pool.

Whole-program compilation is embarrassingly parallel — every prepared
trace is self-contained straight-line code (boundary values travel
through memory, registers are intra-trace; see
``repro/program_compiler.py``) — so the shards are the traces.
:func:`compile_shards` fans a list of them across a
``multiprocessing`` pool and returns artifacts **in input order**
(``Pool.map`` preserves it), so results are deterministic regardless
of which worker finishes first.

Resilience is inherited from ``repro.resilience`` per shard: each
worker installs its own per-trace :class:`~repro.resilience.Deadline`
and, under ``resilient=True``, runs the full fallback ladder, so one
pathological trace degrades alone instead of stalling the program.

Degradation is graceful twice over:

* if the pool itself cannot be used (payloads that do not pickle, a
  sandbox with no process spawning, a crashed worker) the caller falls
  back to the serial path — ``serve.pool_fallback`` counts it;
* if one shard fails *inside* a worker, the parent recompiles that
  trace serially so the genuine exception type propagates unchanged.

Workers hold no observer (``repro.obs`` is process-local and off by
default), so the parent's counters describe orchestration only.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.ir.instructions import Instruction
from repro.machine.model import MachineModel
from repro.serve.cache import TraceArtifact, trace_key

#: Fallback-worthy pool failures.  Anything raised while *setting up or
#: driving* the pool (as opposed to inside a shard compile) lands here.
POOL_ERRORS = (
    OSError,
    pickle.PicklingError,
    AttributeError,  # unpicklable closure reached a worker boundary
    EOFError,
    BrokenPipeError,
    ImportError,
)


class ShardError(Exception):
    """A shard failed inside a worker (carries the worker's rendering)."""


def _compile_one(
    instructions: Sequence[Instruction],
    machine: MachineModel,
    method: str,
    deadline_ms: Optional[float],
    resilient: bool,
    key: str,
    analysis_manager=None,
):
    """Compile one prepared trace into a :class:`TraceArtifact`.

    Shared by the serial path, the pool workers, and the server, so
    every route produces identical artifacts for identical inputs.
    """
    from repro.pipeline import compile_trace

    deadline = None
    if deadline_ms is not None:
        from repro.resilience import Deadline

        deadline = Deadline(seconds=deadline_ms / 1000.0)
    result = compile_trace(
        instructions,
        machine,
        method=method,
        verify=False,
        resilient=resilient,
        deadline=deadline,
        analysis_manager=analysis_manager,
    )
    if result.degradation is not None:
        degradation = result.degradation.to_dict()
    elif result.degraded:
        # Non-resilient compiles carry the flag too, so no route can
        # memoize an answer a tripped deadline cut short.
        degradation = {
            "requested_method": method,
            "final_method": method,
            "degraded": True,
            "deadline_tripped": result.deadline_tripped,
        }
    else:
        degradation = None
    return TraceArtifact(
        key=key,
        method=method,
        program=result.program,
        cycles_estimate=result.schedule.length,
        degradation=degradation,
    )


def _worker(payload: Tuple) -> Tuple[int, Optional[TraceArtifact], Optional[str]]:
    """Pool entry point; must stay module-level (pickled by name)."""
    index, key, instructions, machine, method, deadline_ms, resilient, engine = payload
    from repro.graph.bitset import set_engine

    set_engine(engine)
    try:
        artifact = _compile_one(
            instructions, machine, method, deadline_ms, resilient, key
        )
        return (index, artifact, None)
    except Exception as exc:  # rendered; the parent re-raises serially
        return (index, None, f"{type(exc).__name__}: {exc}")


def compile_shards(
    shards: Sequence[Tuple[str, Sequence[Instruction]]],
    machine: MachineModel,
    method: str,
    jobs: int,
    deadline_ms: Optional[float] = None,
    resilient: bool = False,
) -> Optional[List[TraceArtifact]]:
    """Compile ``shards`` (``(key, instructions)`` pairs) in parallel.

    Returns artifacts in input order, or ``None`` when the pool could
    not run at all (caller degrades to serial).  A shard that fails in
    its worker is recompiled serially in the parent so its exception
    surfaces with the original type.
    """
    from repro.graph.bitset import active_engine

    engine = active_engine()
    payloads = [
        (i, key, list(instructions), machine, method, deadline_ms,
         resilient, engine)
        for i, (key, instructions) in enumerate(shards)
    ]
    try:
        pickle.dumps(payloads[0])  # cheap preflight: will shards travel?
    except Exception:
        obs.count("serve.pool_fallback")
        obs.event("serve.pool_fallback", reason="unpicklable payload")
        return None

    import multiprocessing

    jobs = max(1, min(jobs, len(payloads)))
    try:
        with multiprocessing.Pool(processes=jobs) as pool:
            raw = pool.map(_worker, payloads)
    except POOL_ERRORS as exc:
        obs.count("serve.pool_fallback")
        obs.event("serve.pool_fallback", reason=f"{type(exc).__name__}: {exc}")
        return None

    obs.count("serve.pool_compiles", len(payloads))
    artifacts: List[Optional[TraceArtifact]] = [None] * len(payloads)
    for index, artifact, error in raw:
        if error is not None:
            # Reproduce the failure in-process: the serial compile
            # raises the genuine exception type for the caller.
            obs.count("serve.shard_errors")
            _, key, instructions, *_ = payloads[index]
            artifact = _compile_one(
                instructions, machine, method, deadline_ms, resilient, key
            )
        artifacts[index] = artifact
    return artifacts  # type: ignore[return-value]
