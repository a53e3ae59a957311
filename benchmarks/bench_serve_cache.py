"""Experiment SV1: persistent-cache and sharded-compile effectiveness.

Compiles the e7-style benchmark programs (vector scale, reduction,
branchy dispatch) three ways and compares wall-clock:

* **cold**   — empty persistent store: every trace pays the full
  measure/reduce/assign pipeline, then lands in the cache;
* **warm**   — a *fresh* :class:`repro.serve.CompileCache` instance on
  the same store root (so the in-memory memo cannot help): every trace
  is a disk read + unpickle.  The documented target (ISSUE 7 /
  docs/serving.md) is **>= 5x** faster than cold, CI-gated;
* **sharded** — no cache, traces fanned over a worker pool
  (``jobs=2``).  Pool start-up dominates at this trace size, so the
  speedup is reported honestly but not gated.

A second table times the server's **hot route**: ms per
``ServeApp.compile`` memo hit with ``verify: true`` over every kernel
trace, once with seed 0 repeated (the memo answers its verdict and
rendering) and once with a fresh seed per request (that seed's
verification runs once).  It is printed, not gated.

Bit-identity is asserted in the same run: warm, cold, and sharded
compiles must agree per trace on ``program_signature`` (the uid-free
rendering), and every compiled program must verify against the
reference interpreter.

Runs standalone for the CI smoke job::

    PYTHONPATH=src python benchmarks/bench_serve_cache.py --quick

exiting non-zero when the warm speedup misses the target, and as a
pytest benchmark via ``pytest benchmarks/bench_serve_cache.py -s``.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

if __package__ in (None, ""):  # standalone: find _common and (maybe) repro
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    _src = Path(__file__).resolve().parents[1] / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from _common import emit
from repro.ir.printer import format_table

VECTOR_SCALE = """
start:
  n = 12
  i = 0
loop:
  x = load [v]
  a = x + i
  b = a * a
  c = b - x
  store [w], c
  i = i + 1
  t = i < n
  if t goto loop
done:
  halt
"""

REDUCTION = """
start:
  n = 10
  i = 0
  acc = 0
loop:
  x = load [v]
  s = load [scale]
  y = x * s
  acc = acc + y
  i = i + 1
  t = i < n
  if t goto loop
done:
  store [sum], acc
  halt
"""

BRANCHY = """
start:
  x = load [v]
  lim = 9
  c = x < lim
  if c goto small
big:
  y = x * 3
  store [out], y
  halt
small:
  y = x + 40
  store [out], y
  halt
"""

PROGRAMS: Tuple[Tuple[str, str, Dict[Tuple[str, int], int]], ...] = (
    ("vector-scale", VECTOR_SCALE, {("v", 0): 5}),
    ("reduction", REDUCTION, {("v", 0): 3, ("scale", 0): 2}),
    ("branchy", BRANCHY, {("v", 0): 4}),
)

SPEEDUP_TARGET = 5.0


def _signatures(compiled) -> Dict[str, str]:
    from repro.serve import program_signature

    return {
        head: program_signature(trace.program)
        for head, trace in compiled.traces.items()
    }


def run_benchmark(repeats: int = 3) -> Dict[str, float]:
    """Cold/warm/sharded timings over the program basket."""
    from repro.machine.model import MachineModel
    from repro.ir.parser import parse_program
    from repro.program_compiler import compile_program, verify_compiled_program
    from repro.serve import CompileCache

    machine = MachineModel.homogeneous(2, 4)
    parsed = [
        (name, parse_program(source), memory)
        for name, source, memory in PROGRAMS
    ]

    rows: List[Tuple[object, ...]] = []
    total_cold = total_warm = total_serial = total_sharded = 0.0
    cache_hits = cache_misses = 0
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        for name, program, memory in parsed:
            store_root = Path(root) / name

            begin = time.perf_counter()
            cold = compile_program(
                program, machine, cache=CompileCache(store_root)
            )
            cold_s = time.perf_counter() - begin
            if cold.cache_hits:
                raise AssertionError(f"{name}: cold compile hit the cache")

            # Fresh cache objects: only the disk store carries over.
            warm_s = float("inf")
            for _ in range(repeats):
                begin = time.perf_counter()
                warm = compile_program(
                    program, machine, cache=CompileCache(store_root)
                )
                warm_s = min(warm_s, time.perf_counter() - begin)
            if warm.cache_misses:
                raise AssertionError(f"{name}: warm compile missed the cache")
            cache_hits += warm.cache_hits
            cache_misses += cold.cache_misses

            begin = time.perf_counter()
            serial = compile_program(program, machine)
            serial_s = time.perf_counter() - begin
            begin = time.perf_counter()
            sharded = compile_program(program, machine, jobs=2)
            sharded_s = time.perf_counter() - begin

            # Bit-identity across every path, then semantic verification.
            reference = _signatures(serial)
            for label, compiled in (
                ("cold", cold), ("warm", warm), ("sharded", sharded)
            ):
                if _signatures(compiled) != reference:
                    raise AssertionError(
                        f"{name}: {label} compile is not bit-identical "
                        "to the serial path"
                    )
            _, ok = verify_compiled_program(warm, dict(memory))
            if not ok:
                raise AssertionError(f"{name}: cached compile failed to verify")

            total_cold += cold_s
            total_warm += warm_s
            total_serial += serial_s
            total_sharded += sharded_s
            rows.append((
                name,
                len(serial.traces),
                f"{cold_s * 1e3:.1f}",
                f"{warm_s * 1e3:.1f}",
                f"{cold_s / warm_s:.1f}x",
                f"{serial_s * 1e3:.1f}",
                f"{sharded_s * 1e3:.1f}",
                f"{serial_s / sharded_s:.2f}x",
            ))

    warm_speedup = total_cold / total_warm if total_warm else 0.0
    shard_speedup = total_serial / total_sharded if total_sharded else 0.0
    rows.append((
        "TOTAL", "-",
        f"{total_cold * 1e3:.1f}", f"{total_warm * 1e3:.1f}",
        f"{warm_speedup:.1f}x",
        f"{total_serial * 1e3:.1f}", f"{total_sharded * 1e3:.1f}",
        f"{shard_speedup:.2f}x",
    ))
    hot = hot_route(rounds=10 * repeats)
    emit("serve_cache", "\n\n".join((
        format_table(
            ("program", "traces", "cold ms", "warm ms", "cache speedup",
             "serial ms", "jobs=2 ms", "shard speedup"),
            rows,
            title=(
                "persistent compile cache: cold vs warm (fresh cache "
                "instance), plus sharded jobs=2 vs serial — all paths "
                "bit-identical"
            ),
        ),
        format_table(
            ("hot route", "requests", "ms per hit"),
            [(label, count, f"{ms:.3f}") for label, (count, ms) in hot.items()],
            title=(
                "ServeApp.compile memo hits with verify: true over every "
                "kernel trace (printed, not gated)"
            ),
        ),
    )))
    return {
        "cold_s": total_cold,
        "warm_s": total_warm,
        "warm_speedup": warm_speedup,
        "shard_speedup": shard_speedup,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "hot_ms": hot["seed 0 repeated"][1],
        "fresh_seed_ms": hot["fresh seed"][1],
    }


def hot_route(rounds: int) -> Dict[str, Tuple[int, float]]:
    """(requests, ms per request) of ``ServeApp.compile`` memo hits.

    Every kernel trace is compiled once, then asked ``rounds`` more
    times with ``verify: true``: with seed 0 repeated, and with a seed
    no request used before.  Every answer must be a verified hot hit.
    """
    from repro.serve.server import ServeApp
    from repro.workloads import KERNELS

    sources = [
        "\n".join(str(inst) for inst in factory())
        for factory in KERNELS.values()
    ]

    def request(source: str, seed: int) -> Dict[str, object]:
        return {
            "kind": "trace", "source": source,
            "machine": {"fus": 2, "regs": 4},
            "options": {"verify": True, "seed": seed},
        }

    fresh = itertools.count(1)
    timings: Dict[str, Tuple[int, float]] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-hot-") as root:
        app = ServeApp(cache=root)
        try:
            for source in sources:
                app.compile(request(source, 0))
            for label, seed_of in (
                ("seed 0 repeated", lambda: 0),
                ("fresh seed", lambda: next(fresh)),
            ):
                count = rounds * len(sources)
                begin = time.perf_counter()
                for _ in range(rounds):
                    for source in sources:
                        status, body = app.compile(request(source, seed_of()))
                        result = body.get("result") or {}
                        if not (
                            status == 200 and result["verified"] is True
                            and result["cache"]["hot"]
                        ):
                            raise AssertionError(
                                f"hot route: not a verified hot hit: {body}"
                            )
                elapsed = time.perf_counter() - begin
                timings[label] = (count, elapsed * 1e3 / count)
        finally:
            app.close()
    return timings


def test_serve_cache_effectiveness():
    metrics = run_benchmark()
    assert metrics["cache_hits"] > 0, "warm pass never hit the cache"
    assert metrics["warm_speedup"] >= SPEEDUP_TARGET, (
        f"expected warm cache >= {SPEEDUP_TARGET}x faster than cold, "
        f"got {metrics['warm_speedup']:.1f}x"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="single warm repeat for the CI smoke job",
    )
    args = parser.parse_args(argv)

    metrics = run_benchmark(repeats=1 if args.quick else 3)
    print(
        f"warm speedup {metrics['warm_speedup']:.1f}x "
        f"(target {SPEEDUP_TARGET}x), sharded jobs=2 "
        f"{metrics['shard_speedup']:.2f}x vs serial, "
        f"{int(metrics['cache_hits'])} warm hits; hot route "
        f"{metrics['hot_ms']:.3f} ms per hit (seed 0), "
        f"{metrics['fresh_seed_ms']:.3f} ms (fresh seed)"
    )
    if metrics["warm_speedup"] < SPEEDUP_TARGET:
        print(
            f"FAIL: warm speedup {metrics['warm_speedup']:.1f}x below "
            f"target {SPEEDUP_TARGET}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
