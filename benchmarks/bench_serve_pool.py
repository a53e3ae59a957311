"""Serving perf: warm supervised pool vs per-request process pool.

PR 7's ``compile_shards`` pays a full ``multiprocessing.Pool`` fork +
interpreter warm-up on *every* request — a fixed tax that dwarfs the
compile time of small-program batches.  PR 9's persistent
:class:`~repro.serve.pool.WorkerPool` forks once at server start and
keeps the workers warm, so that tax is paid once per server lifetime
instead of once per request.

This benchmark times both paths on batches of small random traces and
records the speedup as a *checked-in perf trajectory*:
``BENCH_serve_pool.json`` at the repo root holds per-batch-size median
wall times for the cold (per-request pool) and warm (persistent pool)
paths, so a regression shows up as a diff.  Both paths must produce
artifacts with identical ``program_signature`` renderings — the same
bit-identity contract the serving layer promises.

Runs standalone for the CI smoke job::

    PYTHONPATH=src python benchmarks/bench_serve_pool.py --quick --check

``--check`` enforces two gates and exits non-zero on either:

* the warm pool must be at least ``MIN_SPEEDUP``× faster than the
  per-request pool on every batch of at most ``SMALL_BATCH_MAX``
  traces (the PR's acceptance floor for small-program batches; larger
  batches amortize the fork tax and are trajectory-gated only);
* no batch size's speedup may regress more than 40% below the
  checked-in baseline.  Speedups (not wall times) are compared because
  both paths share the run's machine, so the ratio is stable across
  hosts while absolute times are not; the tolerance is wider than the
  measurement-scaling gate because process fork latency is noisier
  than pure compute.

``--update`` rewrites the baseline from the current run.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

if __package__ in (None, ""):  # standalone: find _common and (maybe) repro
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    _src = Path(__file__).resolve().parents[1] / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from _common import emit_table, gated_main
from repro.machine.model import MachineModel
from repro.serve.cache import program_signature, trace_key
from repro.serve.pool import WorkerPool
from repro.serve.shard import compile_shards
from repro.workloads.random_dags import random_layered_trace

#: Batch sizes (traces per request).  Small batches are the point: the
#: per-request fork tax is amortized away on huge ones.
BATCH_SIZES = (1, 2, 4)
QUICK_BATCH_SIZES = (1, 2)
#: Ops per trace — "small programs" per the PR's acceptance criterion.
#: Tiny on purpose: the per-request fork tax is the fixed cost being
#: amortized, so the win is largest exactly where requests are small.
TRACE_OPS = 4
WORKERS = 2
METHOD = "ursa"
MACHINE = MachineModel.homogeneous(2, 4)
BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve_pool.json"
#: Acceptance floor: warm pool at least this much faster on small
#: batches.  Larger batches amortize the fork tax and get noisier on
#: loaded single-core CI boxes, so they ride the regression gate only.
MIN_SPEEDUP = 2.0
SMALL_BATCH_MAX = 2
#: --check fails when a batch's speedup falls below baseline * (1 - this).
REGRESSION_TOLERANCE = 0.40


def _make_shards(batch: int):
    """``(key, instructions)`` pairs of distinct small random traces."""
    shards = []
    for index in range(batch):
        trace = random_layered_trace(
            n_ops=TRACE_OPS, width=4, seed=1000 * batch + index
        )
        shards.append((trace_key(trace, MACHINE, METHOD), trace))
    return shards


def _signatures(artifacts) -> List[str]:
    return [program_signature(a.program) for a in artifacts]


def _median_ms(fn, repeats: int) -> float:
    """Median wall milliseconds with the GC parked (both paths get the
    same treatment, so the ratio is undistorted)."""
    samples = []
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(samples) * 1000.0


def measure_batch(
    pool: WorkerPool, batch: int, repeats: int = 5
) -> Dict[str, object]:
    """Time cold (per-request pool) vs warm (persistent pool) on one
    batch size; assert the two paths agree bit-for-bit."""
    shards = _make_shards(batch)

    warm = pool.map_shards(shards, MACHINE, METHOD)  # warm-up + identity run
    cold = compile_shards(shards, MACHINE, METHOD, jobs=WORKERS)
    if warm is None or cold is None:
        raise AssertionError(f"batch={batch}: a compile path degraded to None")
    if _signatures(warm) != _signatures(cold):
        raise AssertionError(
            f"batch={batch}: warm and cold paths disagree — bit-identity broken"
        )

    warm_ms = _median_ms(
        lambda: pool.map_shards(shards, MACHINE, METHOD), repeats
    )
    cold_ms = _median_ms(
        lambda: compile_shards(shards, MACHINE, METHOD, jobs=WORKERS), repeats
    )
    return {
        "batch": batch,
        "trace_ops": TRACE_OPS,
        "warm_ms": round(warm_ms, 3),
        "cold_ms": round(cold_ms, 3),
        "speedup": round(cold_ms / warm_ms, 2) if warm_ms else None,
        "workers": WORKERS,
    }


def run_benchmark(
    batch_sizes: Sequence[int] = BATCH_SIZES, repeats: int = 5
) -> List[Dict[str, object]]:
    pool = WorkerPool(workers=WORKERS)
    try:
        return [measure_batch(pool, batch, repeats) for batch in batch_sizes]
    finally:
        pool.shutdown()


def check_against_baseline(
    entries: Sequence[Dict[str, object]],
    baseline: Optional[dict],
    tolerance: float = REGRESSION_TOLERANCE,
    min_speedup: float = MIN_SPEEDUP,
) -> List[str]:
    """Acceptance-floor and trajectory-regression failures."""
    failures = []
    for entry in entries:
        if entry["batch"] <= SMALL_BATCH_MAX and entry["speedup"] < min_speedup:
            failures.append(
                f"batch={entry['batch']}: warm pool only "
                f"{entry['speedup']:.2f}x faster than per-request pool "
                f"(floor {min_speedup:.1f}x)"
            )
    if baseline is None:
        failures.append("no baseline: run with --update to create one")
        return failures
    by_batch = {e["batch"]: e for e in baseline.get("entries", ())}
    for entry in entries:
        ref = by_batch.get(entry["batch"])
        if ref is None or not ref.get("speedup"):
            continue
        floor = ref["speedup"] * (1.0 - tolerance)
        if entry["speedup"] < floor:
            failures.append(
                f"batch={entry['batch']}: speedup {entry['speedup']:.2f}x "
                f"fell below {floor:.2f}x (baseline {ref['speedup']:.2f}x "
                f"- {tolerance:.0%})"
            )
    return failures


def _emit(entries: Sequence[Dict[str, object]]) -> None:
    emit_table(
        "serve_pool",
        ("batch", "ops/trace", "warm ms", "cold ms", "speedup"),
        [
            (e["batch"], e["trace_ops"], f"{e['warm_ms']:.1f}",
             f"{e['cold_ms']:.1f}", f"{e['speedup']:.1f}x")
            for e in entries
        ],
        "Serving — persistent supervised pool vs per-request pool",
    )


# ======================================================================
# Pytest entry points (tier-2: `pytest benchmarks/ -s`).
# ======================================================================
def test_warm_and_cold_paths_bit_identical():
    # measure_batch raises on divergence; one repeat keeps this fast.
    pool = WorkerPool(workers=WORKERS)
    try:
        for batch in QUICK_BATCH_SIZES:
            measure_batch(pool, batch, repeats=1)
    finally:
        pool.shutdown()


def test_warm_pool_beats_cold_pool_on_small_batches():
    pool = WorkerPool(workers=WORKERS)
    try:
        entry = measure_batch(pool, 2, repeats=3)
    finally:
        pool.shutdown()
    assert entry["speedup"] >= MIN_SPEEDUP, entry


# ======================================================================
# Standalone CLI (CI bench-smoke / serve-chaos jobs).
# ======================================================================
def _run(quick: bool):
    batch_sizes = QUICK_BATCH_SIZES if quick else BATCH_SIZES
    repeats = 3 if quick else 5
    entries = run_benchmark(batch_sizes, repeats)
    _emit(entries)
    payload = {
        "benchmark": "serve_pool",
        "workload": (
            f"random_layered_trace(n_ops={TRACE_OPS}, width=4) x batch, "
            f"{WORKERS} workers"
        ),
        "machine": "homogeneous(2 FUs, 4 regs)",
        "protocol": f"median of {repeats}, gc disabled, shared shards; "
                    "cold = compile_shards (fork per call), "
                    "warm = WorkerPool (forked once)",
        "entries": list(entries),
    }
    return entries, payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    return gated_main(
        argv,
        description=__doc__.splitlines()[0],
        baseline=BASELINE_PATH,
        quick_help="small batch subset with fewer repeats for the CI smoke job",
        check_help=f"fail when the warm pool is under {MIN_SPEEDUP:.0f}x, or "
                   "any batch regresses >40%% vs the checked-in "
                   "BENCH_serve_pool.json",
        run=_run,
        check=check_against_baseline,
        passed=lambda entries: (
            f"warm pool >= {MIN_SPEEDUP:.0f}x and within "
            f"{REGRESSION_TOLERANCE:.0%} of baseline for all "
            f"{len(entries)} batch sizes"
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
