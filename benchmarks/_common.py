"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's figures/tables (or one of
the evaluation tables DESIGN.md defines) and both prints it and records
it under ``benchmarks/results/`` so the output survives pytest's capture
(`pytest benchmarks/ --benchmark-only -s` shows it live).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.ir.printer import format_table

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def emit(name: str, text: str) -> None:
    """Print a reproduced table and persist it to results/<name>.txt."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_table(
    name: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str,
) -> str:
    text = format_table(headers, rows, title=title)
    emit(name, text)
    return text


def emit_json(payload: object, path: Path) -> None:
    """Persist a machine-readable benchmark artifact.

    Unlike :func:`emit`, the destination is explicit: trajectory files
    that are checked in (e.g. ``BENCH_measurement_scaling.json`` at the
    repo root) live outside ``results/``.
    """
    import json

    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_json(path: Path) -> Optional[dict]:
    """Load a checked-in benchmark artifact, ``None`` when absent."""
    import json

    if not path.exists():
        return None
    return json.loads(path.read_text())


def gated_main(
    argv: Optional[Sequence[str]],
    *,
    description: str,
    baseline: Path,
    quick_help: str,
    check_help: str,
    run: Callable[[bool], Tuple[Sequence[dict], dict]],
    check: Callable[[Sequence[dict], Optional[dict]], List[str]],
    passed: Callable[[Sequence[dict]], str],
) -> int:
    """The ``--quick/--check/--update`` CLI shared by the gated benchmarks.

    ``run(quick)`` measures, prints its table, and returns the entries
    plus the JSON payload.  Every run writes the payload to
    ``results/<baseline stem minus BENCH_>.json``; ``--update`` also
    rewrites the checked-in ``baseline``; ``--check`` prints each
    failure ``check(entries, baseline)`` reports and exits 1 on any,
    else prints ``passed(entries)``.
    """
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--quick", action="store_true", help=quick_help)
    parser.add_argument("--check", action="store_true", help=check_help)
    parser.add_argument(
        "--update", action="store_true",
        help=f"rewrite {baseline.name} from this run",
    )
    args = parser.parse_args(argv)

    entries, payload = run(args.quick)
    RESULTS_DIR.mkdir(exist_ok=True)
    emit_json(payload, RESULTS_DIR / f"{baseline.stem.removeprefix('BENCH_')}.json")
    if args.update:
        emit_json(payload, baseline)
        print(f"baseline written: {baseline}")

    if args.check:
        failures = check(entries, load_json(baseline))
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(passed(entries))
    return 0


def emit_profile(name: str, source, title: Optional[str] = None) -> str:
    """Persist an observability breakdown to results/<name>_profile.txt.

    ``source`` is anything :func:`repro.analysis.reporting.trace_summary`
    accepts: a live observer, a record list, or a JSONL trace path.
    """
    from repro.analysis.reporting import trace_summary

    text = trace_summary(source, title=title or name)
    emit(f"{name}_profile", text)
    return text


@contextmanager
def profiled(name: str, title: Optional[str] = None) -> Iterator:
    """Capture an ``repro.obs`` trace around one benchmark body and emit
    its per-phase breakdown::

        with profiled("fig2_measurement") as observer:
            run_measurement()
    """
    from repro import obs

    with obs.capture() as observer:
        yield observer
    emit_profile(name, observer, title=title)


def timeit_median(fn, repeats: int = 9, warmup: int = 2) -> float:
    """Median wall-clock seconds of ``fn()`` over ``repeats`` runs.

    Medians are robust to the one-off GC/allocation spikes that plague
    sub-millisecond pipeline timings; used by the verifier-overhead
    benchmark to compare configurations of the same compile.
    """
    import statistics
    import time

    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def overhead_pct(base: float, measured: float) -> float:
    """Relative overhead of ``measured`` over ``base`` in percent."""
    if base <= 0:
        return float("inf")
    return (measured / base - 1.0) * 100.0
