"""``compile-tight`` and ``compile-roomy``: serial in-process compiles.

Each job is one ``repro.pipeline.compile_trace(text, machine,
method="ursa", verify=True)`` call, so parsing, the allocator, the
scheduler, static checks, codegen and the simulator-versus-interpreter
check are all inside the timed region.  The corpus is compiled in
passes, in a fixed seeded order, until ``--seconds`` have passed (at
least two full passes).  A job's time is the median of its passes.

Every compile after a job's first is also a determinism check: its
``program_signature`` must equal the first one.  ``stable_rate`` is
the share of those repeat compiles that matched.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import corpus
from reference import HostSpeed
from common import (
    OUT_DIR, check_repeat, digest, emit_table, geomean, median, percentile,
    vm_hwm_mb,
)

SETUP_PROBES = 5
MIN_PASSES = 2


@dataclass(frozen=True)
class Outcome:
    """What one successful compile produced (compared across passes)."""

    signature: str
    cycles: int
    code_ops: int
    spills: int
    committed: int


class Unverified(Exception):
    """A compile returned without ``verified == True``."""


def setup(workload: str, seed: int):
    """Imports plus corpus generation: what ``setup_s`` times."""
    from repro.pipeline import compile_trace  # noqa: F401
    from repro.serve.cache import program_signature  # noqa: F401

    jobs = corpus.compile_corpus(workload, seed)
    machines = {name: corpus.machine(name) for name in {job.machine for job in jobs}}
    return jobs, machines


def setup_seconds(workload: str, seed: int) -> List[float]:
    """Launch-to-ready times of fresh processes doing only the set-up."""
    times = []
    script = str(Path(__file__).resolve().parent / "run.py")
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, script, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return times


def compile_job(job: corpus.Job, machines) -> Outcome:
    from repro.pipeline import compile_trace
    from repro.serve.cache import program_signature

    result = compile_trace(job.source, machines[job.machine], method="ursa", verify=True)
    if result.verified is not True:
        raise Unverified(f"{job.name} on {job.machine}: verified={result.verified}")
    return Outcome(
        signature=program_signature(result.program),
        cycles=result.schedule.length,
        code_ops=result.program.op_count,
        spills=result.program.spill_op_count,
        committed=len(result.allocation.records) if result.allocation else 0,
    )


class _Book:
    """Samples, outcomes and failures of every job across passes."""

    def __init__(self, jobs: List[corpus.Job]) -> None:
        self.jobs = jobs
        self.ms: List[List[float]] = [[] for _ in jobs]
        self.cpu_ms = 0.0
        self.outcomes: List[Optional[Outcome]] = [None] * len(jobs)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.mismatches: List[str] = []
        self.repeats = 0
        self.ops_done = 0

    def record(self, index: int, seconds: float, cpu_seconds: float,
               outcome: Optional[Outcome], error: Optional[BaseException]) -> None:
        self.attempted += 1
        self.cpu_ms += cpu_seconds * 1000.0
        job = self.jobs[index]
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{job.name}@{job.machine}: {type(error).__name__}: {error}")
            return
        self.ms[index].append(seconds * 1000.0)
        self.ops_done += job.ops
        first = self.outcomes[index]
        if first is None:
            self.outcomes[index] = outcome
            return
        self.repeats += 1
        if first != outcome:
            self.mismatches.append(f"{job.name}@{job.machine}")

    @property
    def stable_rate(self) -> float:
        return 1.0 - len(self.mismatches) / self.repeats if self.repeats else 1.0


def _timed(job, machines) -> Tuple[float, float, Optional[Outcome], Optional[BaseException]]:
    """(wall s, CPU s, outcome, error) of one compile."""
    start, cpu = time.perf_counter(), time.thread_time()
    try:
        outcome, error = compile_job(job, machines), None
    except Exception as exc:  # a failed compile stays in the corpus
        outcome, error = None, exc
    return time.perf_counter() - start, time.thread_time() - cpu, outcome, error


def _loop(jobs, seconds: float, step, speed: HostSpeed,
          min_passes: int = MIN_PASSES) -> Tuple[float, int]:
    """Run ``step(index)`` over passes of the corpus for ``seconds``.

    Returns (wall seconds, full passes).  ``min_passes`` full passes
    always run; after them the loop stops at the first job boundary
    past the budget.  The host speed is sampled between jobs.
    """
    start = time.perf_counter()
    stop = start + seconds
    passes = 0
    speed.sample()
    while True:
        for index in range(len(jobs)):
            if passes >= min_passes and time.perf_counter() >= stop:
                return time.perf_counter() - start, passes
            step(index)
            speed.maybe_sample()
        passes += 1
        if passes >= min_passes and time.perf_counter() >= stop:
            return time.perf_counter() - start, passes


def _summary(book: _Book, workload: str) -> Dict[str, object]:
    done = [o for o in book.outcomes if o is not None]
    committed = [o.committed for o in done]
    with_commit = sum(1 for c in committed if c > 0)
    if workload == "compile-roomy":
        prop_name = "every trace commits 0 transformations"
        prop_ok = with_commit == 0
        prop_note = f"{with_commit}/{len(done)} traces committed >= 1"
    else:
        prop_name = "most traces commit >= 1 transformation"
        prop_ok = with_commit * 2 > len(done)
        prop_note = f"{with_commit}/{len(done)} traces committed >= 1"
    return {
        "cycles_total": sum(o.cycles for o in done),
        "code_ops_total": sum(o.code_ops for o in done),
        "spill_ops_total": sum(o.spills for o in done),
        "digest": digest(
            o.signature if o is not None else "<failed>" for o in book.outcomes
        ),
        "property": (prop_name, prop_ok, prop_note),
    }


def _print_determinism(mismatches: List[str], repeat: List[str]) -> None:
    """Report, never hide, code that changed between compiles of a trace.

    A mismatch is not counted as a failure (every output was still
    verified against the interpreter); it lowers ``stable_rate``.
    """
    if mismatches:
        names = sorted(set(mismatches))
        print(f"  determinism: BROKEN: {len(mismatches)} repeat compiles emitted "
              f"different code than the first compile of {', '.join(names[:8])}")
    else:
        print("  determinism: ok (every repeat compile reproduced the first)")
    if repeat:
        print(f"  repeat of seed: BROKEN: {repeat} differ from an earlier run "
              "of this seed on this tree")


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    jobs, machines = setup(workload, seed)
    if trace:
        return _run_traced(workload, seed, seconds, jobs, machines)
    setup_times = setup_seconds(workload, seed)

    book = _Book(jobs)
    speed = HostSpeed()

    def step(index: int) -> None:
        book.record(index, *_timed(jobs[index], machines))

    wall, passes = _loop(jobs, seconds, step, speed)
    ref_ms = median(speed.samples_ms)
    job_ms = [median(samples) for samples in book.ms if samples]
    busy_s = sum(sum(samples) for samples in book.ms) / 1e3
    cpu_ref = book.cpu_ms / ref_ms
    summary = _summary(book, workload)
    ok = book.attempted - book.failed
    repeat = check_repeat(workload, seed, {
        k: summary[k] for k in ("cycles_total", "code_ops_total", "spill_ops_total", "digest")
    })
    ops_per_s = book.ops_done / busy_s
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "ops_per_ref": (book.ops_done / cpu_ref, "ops/ref"),
        "cpu_ref_per_job": (cpu_ref / book.attempted, "ref"),
        "cycles_total": (summary["cycles_total"], "cycles"),
        "code_ops_total": (summary["code_ops_total"], "count"),
        "peak_rss_mb": (vm_hwm_mb(), "MB"),
        "ok_rate": (ok / book.attempted, "ratio"),
        "stable_rate": (book.stable_rate, "ratio"),
    }
    prop_name, prop_ok, prop_note = summary["property"]
    print(f"{workload} seed={seed}: {len(jobs)} jobs, {passes} full passes, "
          f"{book.attempted} compiles in {wall:.2f}s; setup probes "
          + ", ".join(f"{t:.3f}s" for t in setup_times))
    emit_table([
        ("setup_s", metrics["setup_s"][0], "s", "lower", f"median of {len(setup_times)} launches"),
        ("ref_ms", ref_ms, "ms", "-", f"host speed: median of {len(speed.samples_ms)} reference samples"),
        ("ops_per_ref", metrics["ops_per_ref"][0], "ops/ref", "higher",
         "IR instructions compiled+verified per ref of compile CPU"),
        ("cpu_ref_per_job", metrics["cpu_ref_per_job"][0], "ref", "lower",
         "compile CPU per compile_trace call, over ref_ms"),
        ("job_ref_geomean", geomean(job_ms) / ref_ms, "ref", "lower", "job_ms_geomean / ref_ms"),
        ("job_ref_p90", percentile(job_ms, 90) / ref_ms, "ref", "lower", "compile_ms_p90 / ref_ms"),
        ("ops_per_s", ops_per_s, "ops/s", "higher", "IR instructions compiled+verified per second"),
        ("jobs_per_s", ok / busy_s, "1/s", "higher", "compile_trace calls per second"),
        ("job_ms_geomean", geomean(job_ms), "ms", "lower", f"{len(job_ms)} traces"),
        ("compile_ms_p50", percentile(job_ms, 50), "ms", "lower", f"{len(job_ms)} traces"),
        ("compile_ms_p90", percentile(job_ms, 90), "ms", "lower", f"{len(job_ms)} traces"),
        ("cycles_total", summary["cycles_total"], "cycles", "lower", "first compile of each trace"),
        ("code_ops_total", summary["code_ops_total"], "count", "lower", "spill and reload ops included"),
        ("spill_ops_total", summary["spill_ops_total"], "count", "lower", "first compile of each trace"),
        ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "lower", "VmHWM of the benchmark process"),
        ("fail_rate", book.failed / book.attempted, "ratio", "lower", f"{book.failed}/{book.attempted}"),
        ("ok_rate", metrics["ok_rate"][0], "ratio", "higher", "1 - fail_rate"),
        ("stable_rate", book.stable_rate, "ratio", "higher",
         f"{book.repeats - len(book.mismatches)}/{book.repeats} repeat compiles reproduced the first"),
    ])
    print(f"  signature digest {summary['digest']}")
    print(f"  property: {prop_name}: {'ok' if prop_ok else 'BROKEN'} ({prop_note})")
    for error in book.errors:
        print(f"  failure: {error}")
    _print_determinism(book.mismatches, repeat)
    correct = book.failed == 0
    return {
        "correct": correct, "attempted": book.attempted, "failed": book.failed,
        "metrics": metrics,
    }


def _run_traced(workload, seed, seconds, jobs, machines) -> Dict[str, object]:
    """Alternate an untraced and a traced compile of every job."""
    from repro import obs

    import ledger

    tracer = ledger.Tracer(ledger.COMPILE_LAYERS)
    base = _Book(jobs)
    traced = _Book(jobs)
    counters: Dict[str, float] = {}
    root_ids: List[int] = []

    def step(index: int) -> None:
        job = jobs[index]
        base.record(index, *_timed(job, machines))
        tracer.install()
        try:
            with obs.capture() as observer:
                start, cpu = time.perf_counter(), time.thread_time()
                try:
                    with tracer.span("pipeline.compile", tag=index) as root:
                        outcome, error = compile_job(job, machines), None
                except Exception as exc:
                    outcome, error = None, exc
                elapsed, cpu = time.perf_counter() - start, time.thread_time() - cpu
        finally:
            tracer.restore()
        root_ids.append(root.id)
        traced.record(index, elapsed, cpu, outcome, error)
        for name in ("allocate.candidates", "pm.cache_hit", "pm.cache_miss"):
            counters[name] = counters.get(name, 0) + observer.counters.get(name, 0)

    # Each traced step compiles its job twice, so one pass already
    # repeats every job.
    wall, passes = _loop(jobs, seconds, step, HostSpeed(), min_passes=1)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    tracer.write_jsonl(spans_path)

    n = len(root_ids)
    ms, calls = ledger.layer_totals(tracer.spans)
    root_ms = ms.pop("pipeline.compile", 0.0)
    root_wall = sum(r.duration for r in tracer.spans if r.name == "pipeline.compile") / 1e6
    layer_sum = sum(ms.values())
    committed = sum(o.committed for o in traced.outcomes if o is not None)
    # Traced and untraced compiles of a job must produce the same code.
    diverged = [
        f"{jobs[i].name}@{jobs[i].machine}" for i in range(len(jobs))
        if traced.outcomes[i] is not None and base.outcomes[i] is not None
        and traced.outcomes[i] != base.outcomes[i]
    ]
    hits, misses = counters["pm.cache_hit"], counters["pm.cache_miss"]
    candidates = counters["allocate.candidates"]
    base_mean = geomean([median(s) for s in base.ms if s])
    traced_mean = geomean([median(s) for s in traced.ms if s])
    values = {
        "ledger.root_ms": root_wall / n,
        "pipeline.unattributed_ms": root_ms / n,
        **ledger.per_job(ms, calls, n),
        "core.candidates": candidates / n,
        "core.transforms_committed": committed / max(1, n - traced.failed),
        "core.candidate_yield": committed / candidates if candidates else 0.0,
        "pm.analysis_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "trace.base_job_ms_geomean": base_mean,
        "trace.job_ms_geomean": traced_mean,
        "trace.overhead_pct": 100.0 * (traced_mean - base_mean) / base_mean,
    }
    residual = abs(layer_sum + root_ms - root_wall)
    print(f"{workload} seed={seed} traced: {n} traced compiles over {passes} full "
          f"passes in {wall:.2f}s; spans -> {spans_path.relative_to(OUT_DIR.parent)}")
    print(f"  ledger: layer self times {layer_sum / n:.3f} ms + unattributed "
          f"{root_ms / n:.3f} ms = compile wall {root_wall / n:.3f} ms per job "
          f"(residual {residual:.2e} ms)")
    print(f"  tracing overhead on job_ms_geomean: untraced {base_mean:.3f} ms, "
          f"traced {traced_mean:.3f} ms, traced - untraced "
          f"{traced_mean - base_mean:+.3f} ms")
    for error in (base.errors + traced.errors)[:5]:
        print(f"  failure: {error}")
    _print_determinism(base.mismatches + traced.mismatches + diverged, [])
    correct = base.failed == 0 and traced.failed == 0 and residual < 1e-6 * n
    return {
        "correct": correct,
        "attempted": base.attempted + traced.attempted,
        "failed": base.failed + traced.failed,
        "layer_values": values,
    }
