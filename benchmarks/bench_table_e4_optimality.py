"""Experiment Table E4: heuristic quality against the exact optimum.

For small random DAGs (where exhaustive search is feasible), compares
every method's cycle count against the true optimum for the machine.
This quantifies how much each phase ordering costs beyond the
unavoidable: URSA's worst-case serialization, prepass's spill patches
and postpass's reuse edges all show up as ratios over 1.0.

The table also grades the static analyzer: every instance checks
``length_lower_bound <= optimum`` (the bound is *sound*), and each
method's **optimality gap** against the static bound
(``cycles / bound``) shows how much of the gap a user can see without
running the exhaustive search — the admission-control value of
``docs/analysis.md``.

Standalone CLI (CI ``analyze-smoke`` job)::

    PYTHONPATH=src python benchmarks/bench_table_e4_optimality.py --quick --check

``--check`` compares the per-method gap against the checked-in
``BENCH_optimality_gap.json`` at the repo root; ``--update`` rewrites
that baseline from the current run.
"""

import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import pytest

from _common import emit_table, gated_main
from repro.analyze import length_lower_bound
from repro.core.allocator import AllocationError
from repro.graph.dag import DependenceDAG
from repro.machine.model import MachineModel
from repro.pipeline import PipelineError, compile_trace
from repro.resilience import Deadline, DeadlineExpired
from repro.scheduling.optimal import optimal_schedule_length
from repro.workloads.random_dags import random_layered_trace

METHODS = ("ursa", "prepass", "postpass", "goodman-hsu")
MACHINES = [MachineModel.homogeneous(2, 4), MachineModel.homogeneous(2, 6)]
SEEDS = range(10)
QUICK_SEEDS = range(4)
N_OPS = 10

#: Exact branch-and-bound cross-check: per-instance deadline.  The
#: acceptance bar (tests/test_methods.py) is proving >= 90% of these
#: instances optimal inside this budget.
BNB_METHOD = "bnb-exact"
BNB_DEADLINE_S = 2.0

BASELINE_PATH = Path(__file__).resolve().parent.parent / (
    "BENCH_optimality_gap.json"
)

#: --check fails when a method's gap vs the static bound grows beyond
#: baseline * (1 + this).  Gaps are small ratios (~1.x), so 25% slack
#: absorbs seed-set jitter while still catching real regressions.
GAP_TOLERANCE = 0.25


def run_quality(seeds: Sequence[int] = SEEDS):
    """Per (machine, method): mean cycles/optimal and cycles/bound, plus
    the bound's own tightness (bound/optimal) per machine."""
    totals = {
        (machine.name, method): [0.0, 0.0, 0]
        for machine in MACHINES
        for method in (*METHODS, BNB_METHOD)
    }
    tightness: Dict[str, List[float]] = {m.name: [] for m in MACHINES}
    proved: Dict[str, List[int]] = {m.name: [0, 0] for m in MACHINES}
    skipped = 0
    for machine in MACHINES:
        for seed in seeds:
            trace = random_layered_trace(
                n_ops=N_OPS, width=3, seed=seed, n_inputs=2
            )
            dag = DependenceDAG.from_trace(trace)
            optimum = optimal_schedule_length(dag, machine)
            if optimum is None:
                skipped += 1
                continue
            bound = length_lower_bound(dag, machine)
            assert bound <= optimum, (
                f"seed {seed} on {machine.name}: static bound {bound} "
                f"exceeds the true optimum {optimum} — unsound"
            )
            tightness[machine.name].append(bound / optimum)
            for method in METHODS:
                result = compile_trace(trace, machine, method=method, seed=seed)
                assert result.verified
                assert result.stats.cycles >= optimum
                assert result.stats.cycles >= bound
                bucket = totals[(machine.name, method)]
                bucket[0] += result.stats.cycles / optimum
                bucket[1] += result.stats.cycles / bound
                bucket[2] += 1
            # True-optimum column: the exact backend under a hard
            # per-instance deadline.  Its register model is *sound*
            # (live-ins occupy registers from cycle 0, unlike the DP
            # oracle's), so its certified length may legitimately sit
            # above the oracle's relaxation — never below.
            try:
                result = compile_trace(
                    trace, machine, method=BNB_METHOD, seed=seed,
                    deadline=Deadline(seconds=BNB_DEADLINE_S),
                )
            except (PipelineError, AllocationError, DeadlineExpired):
                continue
            assert result.verified
            assert result.stats.cycles >= optimum
            report = result.backend_report or {}
            proved[machine.name][1] += 1
            if report.get("proved"):
                proved[machine.name][0] += 1
            bucket = totals[(machine.name, BNB_METHOD)]
            bucket[0] += result.stats.cycles / optimum
            bucket[1] += result.stats.cycles / bound
            bucket[2] += 1
    entries = []
    for machine in MACHINES:
        ratios = tightness[machine.name]
        bound_over_optimal = sum(ratios) / len(ratios) if ratios else None
        for method in (*METHODS, BNB_METHOD):
            ratio_sum, gap_sum, count = totals[(machine.name, method)]
            if count == 0:
                continue
            entry = {
                "machine": machine.name,
                "method": method,
                "samples": count,
                "cycles_over_optimal": round(ratio_sum / count, 3),
                "cycles_over_bound": round(gap_sum / count, 3),
                "bound_over_optimal": (
                    round(bound_over_optimal, 3)
                    if bound_over_optimal is not None else None
                ),
            }
            if method == BNB_METHOD:
                n_proved, n_tried = proved[machine.name]
                entry["proved_rate"] = (
                    round(n_proved / n_tried, 3) if n_tried else None
                )
            entries.append(entry)
    return entries, skipped


def _emit(entries, skipped) -> List[tuple]:
    rows = [
        (e["machine"], e["method"], e["samples"],
         f"{e['cycles_over_optimal']:.2f}", f"{e['cycles_over_bound']:.2f}",
         f"{e['bound_over_optimal']:.2f}",
         f"{e['proved_rate']:.0%}" if e.get("proved_rate") is not None else "-")
        for e in entries
    ]
    emit_table(
        "table_e4_optimality",
        ("machine", "method", "samples", "cycles / optimal",
         "cycles / static bound", "bound / optimal", "proved"),
        rows,
        "Table E4 — mean cycle ratio over the exact optimum and the "
        "static length lower bound "
        f"(spill-infeasible instances skipped: {skipped})",
    )
    return rows


def check_against_baseline(
    entries, baseline: Optional[dict], tolerance: float = GAP_TOLERANCE
) -> List[str]:
    """Regressions of the static-bound gap vs the checked-in baseline."""
    if baseline is None:
        return ["no baseline: run with --update to create one"]
    by_key = {
        (e["machine"], e["method"]): e
        for e in baseline.get("entries", ())
    }
    failures = []
    for entry in entries:
        ref = by_key.get((entry["machine"], entry["method"]))
        if ref is None or not ref.get("cycles_over_bound"):
            continue
        ceiling = ref["cycles_over_bound"] * (1.0 + tolerance)
        if entry["cycles_over_bound"] > ceiling:
            failures.append(
                f"{entry['method']} on {entry['machine']}: gap "
                f"{entry['cycles_over_bound']:.2f} above "
                f"{ceiling:.2f} (baseline {ref['cycles_over_bound']:.2f} "
                f"+ {tolerance:.0%})"
            )
    return failures


# ======================================================================
# Pytest entry point (tier-2: `pytest benchmarks/ -s`).
# ======================================================================
def test_table_e4(benchmark):
    entries, skipped = benchmark.pedantic(
        run_quality, rounds=1, iterations=1
    )
    _emit(entries, skipped)
    for entry in entries:
        assert entry["samples"] > 0
        assert entry["cycles_over_optimal"] >= 1.0
        assert entry["cycles_over_optimal"] < 3.0, (
            f"{entry['method']} pathologically bad on {entry['machine']}"
        )
        # the achieved schedule can never beat a sound lower bound
        assert entry["cycles_over_bound"] >= 1.0
        assert 0.0 < entry["bound_over_optimal"] <= 1.0


# ======================================================================
# Standalone CLI (CI analyze-smoke job).
# ======================================================================
def _run(quick: bool):
    seeds = QUICK_SEEDS if quick else SEEDS
    entries, skipped = run_quality(seeds)
    _emit(entries, skipped)
    payload = {
        "benchmark": "optimality_gap",
        "workload": f"random_layered_trace({N_OPS}, width=3, seed)",
        "machines": [m.name for m in MACHINES],
        "seeds": len(list(seeds)),
        "skipped": skipped,
        "entries": list(entries),
    }
    return entries, payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    return gated_main(
        argv,
        description=__doc__.splitlines()[0],
        baseline=BASELINE_PATH,
        quick_help="fewer seeds for the CI smoke job",
        check_help="fail when a method's gap vs the static bound regresses "
                   ">25%% against the checked-in BENCH_optimality_gap.json",
        run=_run,
        check=check_against_baseline,
        passed=lambda entries: "optimality gap within baseline tolerance",
    )


if __name__ == "__main__":
    sys.exit(main())
