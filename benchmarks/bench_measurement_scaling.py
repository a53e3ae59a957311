"""Experiment Thm.1 / §3.1: measurement correctness and scaling.

Validates Dilworth's theorem (decomposition size == max antichain) on a
size sweep of random DAGs, and records the bitset measurement core's
speedup over the dict-of-sets oracle (``repro.reference.measure_all``)
as a *checked-in perf trajectory*: ``BENCH_measurement_scaling.json`` at
the repo root holds the per-N median wall times, the matcher each side
used, and the speedup, so a regression shows up as a diff (the oracle's
fields keep their historical ``legacy_*`` names).

Both sides run on the *same* DAG instance (uids come from a global
counter, so two separately-built DAGs from one trace are not comparable)
and must produce bit-identical results — same ``required`` widths, the
same chain decompositions and the same kill choices.

Runs standalone for the CI smoke job::

    PYTHONPATH=src python benchmarks/bench_measurement_scaling.py --quick --check

``--check`` compares the measured speedups against the checked-in
baseline and exits non-zero when any size regresses by more than 20%.
Speedups (not wall times) are compared because the two sides share the
run's machine: the ratio is stable across hosts while absolute times are
not.  ``--update`` rewrites the baseline from the current run.
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

import pytest

from _common import emit_table, gated_main
from repro import reference
from repro.core.measure import measure_all
from repro.graph.dag import DependenceDAG
from repro.graph.dilworth import maximum_antichain
from repro.machine.model import MachineModel
from repro.workloads.random_dags import random_layered_trace

SIZES = (16, 32, 64, 128, 256, 512, 1024)
QUICK_SIZES = (64, 128, 256)
MACHINE = MachineModel.homogeneous(4, 8)
BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_measurement_scaling.json"
#: --check fails when a size's speedup falls below baseline * (1 - this).
REGRESSION_TOLERANCE = 0.20


def _build_dag(n_ops: int) -> DependenceDAG:
    trace = random_layered_trace(n_ops=n_ops, width=max(4, n_ops // 6), seed=n_ops)
    return DependenceDAG.from_trace(trace)


def _decomposition_key(requirements) -> list:
    """Everything bit-identity promises: widths, chains, kill choices."""
    return [
        (
            r.kind.value,
            r.cls,
            r.required,
            tuple(sorted(tuple(chain) for chain in r.decomposition.chains)),
            tuple(sorted(r.kill.kill.items())) if r.kill is not None else None,
        )
        for r in requirements
    ]


def _median_ms(fn, repeats: int) -> float:
    """Median wall milliseconds with the GC parked (both sides get the
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


def measure_at(n_ops: int, repeats: int = 5) -> Dict[str, object]:
    """Time the bitset core and the oracle on one shared DAG; assert
    bit-identity."""
    dag = _build_dag(n_ops)
    fast_result = measure_all(dag, MACHINE)  # warm version-keyed caches
    fast_ms = _median_ms(lambda: measure_all(dag, MACHINE), repeats)
    oracle_result = reference.measure_all(dag, MACHINE)
    oracle_ms = _median_ms(lambda: reference.measure_all(dag, MACHINE), repeats)
    if _decomposition_key(fast_result) != _decomposition_key(oracle_result):
        raise AssertionError(
            f"N={n_ops}: bitset core and reference oracle disagree — "
            "bit-identity broken"
        )
    fu = next(r for r in fast_result if r.kind.value == "fu")
    reg = next(r for r in fast_result if r.kind.value == "reg")
    return {
        "n_ops": n_ops,
        "dag_nodes": len(dag),
        "fu_width": fu.required,
        "reg_width": reg.required,
        "fast_ms": round(fast_ms, 3),
        "legacy_ms": round(oracle_ms, 3),
        "speedup": round(oracle_ms / fast_ms, 2) if fast_ms else None,
        "matcher": "bitset-kuhn(levels)",
        "legacy_matcher": "prioritized-dict",
    }


def run_benchmark(
    sizes: Sequence[int] = SIZES, repeats: int = 5
) -> List[Dict[str, object]]:
    return [measure_at(n, repeats) for n in sizes]


def check_against_baseline(
    entries: Sequence[Dict[str, object]],
    baseline: Optional[dict],
    tolerance: float = REGRESSION_TOLERANCE,
) -> List[str]:
    """Regressions of measured speedup vs the checked-in trajectory."""
    if baseline is None:
        return ["no baseline: run with --update to create one"]
    by_n = {e["n_ops"]: e for e in baseline.get("entries", ())}
    failures = []
    for entry in entries:
        ref = by_n.get(entry["n_ops"])
        if ref is None or not ref.get("speedup"):
            continue
        floor = ref["speedup"] * (1.0 - tolerance)
        if entry["speedup"] < floor:
            failures.append(
                f"N={entry['n_ops']}: speedup {entry['speedup']:.2f}x fell "
                f"below {floor:.2f}x (baseline {ref['speedup']:.2f}x - {tolerance:.0%})"
            )
    return failures


def _emit(entries: Sequence[Dict[str, object]]) -> None:
    emit_table(
        "measurement_scaling",
        ("n_ops", "dag nodes", "FU width", "Reg width",
         "bitset ms", "reference ms", "speedup"),
        [
            (e["n_ops"], e["dag_nodes"], e["fu_width"], e["reg_width"],
             f"{e['fast_ms']:.1f}", f"{e['legacy_ms']:.1f}",
             f"{e['speedup']:.1f}x")
            for e in entries
        ],
        "Theorem 1 / §3.1 — measurement scaling, bitset core vs reference oracle",
    )


# ======================================================================
# Pytest entry points (tier-2: `pytest benchmarks/ -s`).
# ======================================================================
def test_dilworth_equality_holds_across_sizes():
    for n_ops in QUICK_SIZES:
        dag = _build_dag(n_ops)
        for requirement in measure_all(dag, MACHINE):
            antichain = maximum_antichain(requirement.order)
            assert len(antichain) == requirement.required, (
                f"Dilworth violated at N={n_ops} for {requirement.cls}"
            )


def test_oracle_bit_identical_on_sweep():
    # measure_at raises on any divergence; one repeat keeps this fast.
    for n_ops in QUICK_SIZES:
        measure_at(n_ops, repeats=1)


@pytest.mark.parametrize("n_ops", [64])
def test_measurement_scaling_benchmark(benchmark, n_ops):
    trace = random_layered_trace(n_ops=n_ops, width=10, seed=n_ops)
    dag = DependenceDAG.from_trace(trace)
    benchmark(measure_all, dag, MACHINE)


# ======================================================================
# Standalone CLI (CI bench-smoke job).
# ======================================================================
def _run(quick: bool):
    sizes = QUICK_SIZES if quick else SIZES
    repeats = 3 if quick else 5
    entries = run_benchmark(sizes, repeats)
    _emit(entries)
    payload = {
        "benchmark": "measurement_scaling",
        "workload": "random_layered_trace(n, width=max(4, n//6), seed=n)",
        "machine": "homogeneous(4 FUs, 8 regs)",
        "protocol": f"median of {repeats}, gc disabled, shared DAG",
        "entries": list(entries),
    }
    return entries, payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    return gated_main(
        argv,
        description=__doc__.splitlines()[0],
        baseline=BASELINE_PATH,
        quick_help="small-size subset with fewer repeats for the CI smoke job",
        check_help="fail when any size's speedup regresses >20%% vs the "
                   "checked-in BENCH_measurement_scaling.json",
        run=_run,
        check=check_against_baseline,
        passed=lambda entries: (
            f"speedups within {REGRESSION_TOLERANCE:.0%} of baseline "
            f"for all {len(entries)} sizes"
        ),
    )


if __name__ == "__main__":
    sys.exit(main())
