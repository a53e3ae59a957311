"""Command-line interface: ``python -m repro <command> ...``.

Subcommands:

* ``measure``  — print measured worst-case requirements for a trace;
* ``compile``  — compile one trace, print the VLIW code and stats;
* ``verify``   — static invariant/lint report for a trace's compilation;
* ``compare``  — compare all methods on one trace;
* ``program``  — compile a whole multi-block program and execute it
  (``--jobs`` shards traces over a worker pool, ``--cache`` reuses
  the persistent compile cache);
* ``pipeline`` — unroll-and-allocate sweep for a canonical loop;
* ``passes``   — list the compile pipeline's phases;
* ``serve``    — long-lived HTTP compilation service (docs/serving.md);
* ``cache``    — inspect/garbage-collect/clear the persistent compile
  cache (``stats`` / ``gc`` / ``clear``).

Traces/programs come from a file path or from ``--kernel <name>``.
Initial memory cells are passed as ``--mem base[+offset]=value``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import STATS_HEADERS
from repro.analysis.visualize import dag_to_dot, schedule_gantt
from repro.core.measure import find_excessive_sets, measure_all
from repro.graph.dag import DependenceDAG
from repro.ir.parser import parse_program, parse_trace
from repro.ir.printer import format_table, format_trace
from repro.machine.model import MachineModel
from repro.methods import default_compare_methods, method_names, resolve
from repro.pipeline import compare_methods, compile_trace
from repro.program_compiler import compile_program, verify_compiled_program
from repro.software_pipelining import (
    LOOPS,
    min_initiation_interval,
    pipeline_sweep,
)
from repro.workloads.kernels import KERNELS, kernel

#: The one registry call every ``--method`` choice list is built from.
METHODS = method_names()


def _machine_from_args(args: argparse.Namespace) -> MachineModel:
    if getattr(args, "classed", False):
        return MachineModel.classed(
            alu=args.fus, mul=max(1, args.fus // 2), mem=max(1, args.fus // 2),
            branch=1, alu_regs=args.regs,
        )
    return MachineModel.homogeneous(args.fus, args.regs)


def _parse_memory(entries: Optional[Sequence[str]]) -> Dict[Tuple[str, int], int]:
    memory: Dict[Tuple[str, int], int] = {}
    for entry in entries or ():
        try:
            cell, value = entry.split("=", 1)
            if "+" in cell:
                base, offset = cell.split("+", 1)
                memory[(base, int(offset))] = int(value)
            else:
                memory[(cell, 0)] = int(value)
        except ValueError:
            raise SystemExit(f"bad --mem entry {entry!r}; use base[+off]=value")
    return memory


def _load_trace(args: argparse.Namespace):
    if args.kernel is not None:
        return kernel(args.kernel)
    if args.source is None:
        raise SystemExit("give a source file or --kernel <name>")
    return parse_trace(Path(args.source).read_text())


def _add_common(parser: argparse.ArgumentParser, kernels: bool = True) -> None:
    parser.add_argument("source", nargs="?", help="ursa-lang source file")
    if kernels:
        parser.add_argument(
            "--kernel", choices=sorted(KERNELS), help="built-in kernel instead"
        )
    parser.add_argument("--fus", type=int, default=4, help="functional units")
    parser.add_argument("--regs", type=int, default=8, help="registers")
    parser.add_argument(
        "--classed", action="store_true",
        help="use a classed machine (alu/mul/mem/branch) instead of homogeneous",
    )
    _add_observability(parser)


def _add_observability(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH",
        help="write a JSONL observability trace (see docs/observability.md)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print a per-pass time/counter table on stderr",
    )


# ======================================================================
# Subcommands.
# ======================================================================
def cmd_measure(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    machine = _machine_from_args(args)
    dag = DependenceDAG.from_trace(trace)
    print(f"machine: {machine.describe()}")
    for requirement in measure_all(dag, machine):
        print(f"  {requirement.describe()}")
        for ecs in find_excessive_sets(dag, requirement):
            chains = " | ".join(
                ",".join(str(e) for e in chain) for chain in ecs.chains
            )
            print(f"    excessive set (excess {ecs.excess}): {chains}")
    if args.dot:
        print(dag_to_dot(dag))
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    machine = _machine_from_args(args)
    memory = _parse_memory(args.mem)
    deadline = None
    if args.deadline_ms is not None:
        from repro.resilience import Deadline

        deadline = Deadline(seconds=args.deadline_ms / 1000.0)
    result = compile_trace(
        trace, machine, method=args.method,
        memory=memory or None,
        verify_each=args.verify_each,
        resilient=args.resilient,
        deadline=deadline,
    )
    print(f"machine: {machine.describe()}   method: {args.method}")
    if args.show_source:
        print(format_trace(trace))
        print()
    print(result.program)
    if args.gantt:
        print()
        print(schedule_gantt(result.schedule))
    print(
        f"\ncycles={result.stats.cycles} spills={result.stats.spill_ops} "
        f"utilization={result.stats.utilization:.2f} verified={result.verified}"
    )
    if result.allocation is not None:
        for record in result.allocation.records:
            print(f"  [{record.kind}] {record.description}")
    if result.degradation is not None:
        print()
        if getattr(args, "json", False):
            import json as _json

            print(_json.dumps({"degradation": result.degradation.to_dict()}))
        else:
            print(result.degradation.render())
    if args.report:
        from repro.analysis.reporting import compilation_report

        Path(args.report).write_text(
            compilation_report(result, title=f"{args.method} compilation")
        )
        print(f"report written to {args.report}")
    if args.verify:
        from repro.verify import verify_compilation

        report = verify_compilation(result, remeasure=True)
        print()
        print(report.render())
        return 0 if report.ok else 1
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analyze import analyze_program, analyze_source

    machine = _machine_from_args(args)
    if args.kernel is not None:
        from repro.ir.program import straightline_program

        report = analyze_program(
            straightline_program(list(kernel(args.kernel))),
            machine=machine,
            filename=f"<kernel:{args.kernel}>",
            bounds=not args.no_bounds,
        )
    else:
        if args.source is None:
            raise SystemExit("give a source file or --kernel <name>")
        path = Path(args.source)
        report = analyze_source(
            path.read_text(),
            machine=machine,
            filename=str(path),
            bounds=not args.no_bounds,
        )
    if getattr(args, "json", False):
        print(report.to_json(indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    machine = _machine_from_args(args)
    from repro.verify import verify_source

    report = verify_source(
        trace, machine, method=args.method, lint=not args.no_lint
    )
    if getattr(args, "json", False):
        args.format = "json"
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    trace = _load_trace(args)
    machine = _machine_from_args(args)
    methods = list(args.methods or default_compare_methods())
    results = compare_methods(trace, machine, methods=methods)
    if getattr(args, "json", False):
        import json as _json

        payload: Dict[str, object] = {
            "machine": machine.describe(),
            "methods": [],
        }
        for method in methods:
            result = results[method]
            entry: Dict[str, object] = {
                "method": method,
                "stats": dict(zip(STATS_HEADERS, result.stats.row())),
                "capabilities": resolve(method).capabilities(),
                "verified": result.verified,
            }
            if result.backend_report is not None:
                entry["backend_report"] = result.backend_report
                if result.backend_report.get("backend") == "portfolio":
                    entry["winner"] = result.backend_report.get("winner")
            payload["methods"].append(entry)
        print(_json.dumps(payload, indent=2))
        return 0
    rows = [results[m].stats.row() for m in methods]
    print(format_table(STATS_HEADERS, rows, title=machine.describe()))
    return 0


def cmd_program(args: argparse.Namespace) -> int:
    if args.source is None:
        raise SystemExit("program command needs a source file")
    program = parse_program(Path(args.source).read_text())
    machine = _machine_from_args(args)
    memory = _parse_memory(args.mem)
    cache: object = args.cache_dir if args.cache_dir else bool(args.cache)
    compiled = compile_program(
        program, machine, method=args.method,
        jobs=args.jobs, cache=cache,
        deadline_ms=args.deadline_ms, resilient=args.resilient,
    )
    run, ok = verify_compiled_program(compiled, memory)
    print(f"machine: {machine.describe()}   method: {args.method}")
    print(f"traces: {sorted(compiled.traces)}")
    if args.cache or args.cache_dir:
        print(
            f"cache: {compiled.cache_hits} hits, "
            f"{compiled.cache_misses} misses"
        )
    print(f"dynamic cycles: {run.cycles}")
    print(f"dispatch path: {' -> '.join(run.trace_path)}")
    print("final user memory:")
    for cell, value in sorted(run.user_memory().items()):
        print(f"  [{cell[0]}+{cell[1]}] = {value}")
    print(f"verified: {ok}")
    return 0 if ok else 1


def cmd_pipeline(args: argparse.Namespace) -> int:
    spec = LOOPS[args.loop]()
    machine = _machine_from_args(args)
    factors = [int(f) for f in args.factors.split(",")]
    mii, res, rec = min_initiation_interval(spec, machine)
    results = pipeline_sweep(spec, machine, factors=factors, method=args.method)
    print(
        format_table(
            ("unroll", "cycles", "cyc/iter", "spills", "FU need",
             "Reg need", "verified"),
            [r.row() for r in results],
            title=(
                f"{args.loop} on {machine.describe()} — "
                f"MII {mii:.2f} (res {res:.2f}, rec {rec})"
            ),
        )
    )
    return 0


def cmd_passes(args: argparse.Namespace) -> int:
    from repro.pipeline import PHASES

    if args.json:
        import json as _json

        payload: Dict[str, object] = {
            "passes": [
                {"name": name, "description": description}
                for name, description in PHASES
            ],
        }
        print(_json.dumps(payload, indent=2))
        return 0

    print("passes (pipeline order):")
    for name, description in PHASES:
        print(f"  {name:<14} {description}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import serve_forever

    cache: object = args.cache_dir if args.cache_dir else not args.no_cache
    serve_forever(
        host=args.host,
        port=args.port,
        cache=cache,
        deadline_ms=args.deadline_ms,
        max_batch=args.max_batch,
        quiet=not args.verbose,
        workers=args.workers,
        queue_depth=args.queue_depth,
        drain_timeout_s=args.drain_timeout,
    )
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.serve.cache import CompileCache

    cache = CompileCache(args.cache_dir) if args.cache_dir else CompileCache()
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            import json as _json

            print(_json.dumps(stats, indent=2))
        else:
            print(f"cache root: {stats['root']}")
            print(f"entries:    {stats['entries']}")
            print(f"bytes:      {stats['bytes']}")
        return 0
    if args.action == "gc":
        if args.max_bytes is None and args.max_age_days is None:
            raise SystemExit("cache gc needs --max-bytes and/or --max-age-days")
        outcome = cache.gc(
            max_bytes=args.max_bytes, max_age_days=args.max_age_days
        )
        if args.json:
            import json as _json

            print(_json.dumps(outcome))
        else:
            print(
                f"gc: removed {outcome['removed']} "
                f"({outcome['removed_bytes']} bytes), "
                f"remaining {outcome['remaining']}"
            )
        return 0
    removed = cache.clear()
    print(f"clear: removed {removed} entries from {cache.root}")
    return 0


# ======================================================================
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="URSA (PACT 1993) reproduction — VLIW unified resource allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="measure worst-case requirements")
    _add_common(p)
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("compile", help="compile one trace")
    _add_common(p)
    p.add_argument("--method", choices=METHODS, default="ursa")
    p.add_argument("--mem", action="append", help="base[+off]=value")
    p.add_argument("--gantt", action="store_true", help="ASCII occupancy chart")
    p.add_argument("--show-source", action="store_true")
    p.add_argument("--report", metavar="PATH", help="write a Markdown report")
    p.add_argument(
        "--verify", action="store_true",
        help="print the full static verification report after compiling",
    )
    p.add_argument(
        "--verify-each", action="store_true",
        help="re-verify DAG invariants after each phase and in every URSA "
             "commit (a commit that breaks one is rolled back)",
    )
    p.add_argument(
        "--resilient", action="store_true",
        help="escalate down the fallback ladder instead of failing "
             "(see docs/resilience.md); prints a degradation report",
    )
    p.add_argument(
        "--deadline-ms", type=float, metavar="MS",
        help="compilation deadline; expiring searches degrade to "
             "heuristic answers",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable output: errors (and the degradation "
             "report) as single-line JSON",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "analyze",
        help="ahead-of-time static analysis: diagnostics + resource "
             "lower bounds (exit 1 on errors; docs/analysis.md)",
    )
    _add_common(p)
    p.add_argument(
        "--no-bounds", action="store_true",
        help="diagnostics only; skip the feasibility/lower-bound layer",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable report (schema in docs/analysis.md)",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "verify", help="static invariant/lint report (exit 1 on errors)"
    )
    _add_common(p)
    p.add_argument("--method", choices=METHODS, default="ursa")
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json follows docs/observability.md schema)",
    )
    p.add_argument(
        "--no-lint", action="store_true",
        help="suppress the warning/info lint pack; errors only",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable output: implies --format json; compile "
             "errors become single-line JSON diagnostics",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="compare methods on one trace")
    _add_common(p)
    p.add_argument("--methods", nargs="+", choices=METHODS)
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable comparison: per-backend stats, declared "
             "capabilities, and portfolio win attribution",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("program", help="compile and run a whole program")
    _add_common(p, kernels=False)
    p.add_argument("--method", choices=METHODS, default="ursa")
    p.add_argument("--mem", action="append", help="base[+off]=value")
    p.add_argument(
        "--jobs", type=int, metavar="N",
        help="shard traces over a pool of up to N worker processes "
             "(default: serial)",
    )
    p.add_argument(
        "--cache", action="store_true",
        help="reuse the persistent compile cache ($REPRO_CACHE_DIR)",
    )
    p.add_argument(
        "--cache-dir", metavar="PATH",
        help="use a compile cache rooted at PATH (implies --cache)",
    )
    p.add_argument(
        "--deadline-ms", type=float, metavar="MS",
        help="per-trace compilation deadline (disables caching)",
    )
    p.add_argument(
        "--resilient", action="store_true",
        help="per-trace fallback ladder instead of failing outright",
    )
    p.set_defaults(func=cmd_program)

    p = sub.add_parser("passes", help="list the compile pipeline's phases")
    p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p.set_defaults(func=cmd_passes)

    p = sub.add_parser(
        "serve", help="run the HTTP compilation service (docs/serving.md)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8377)
    p.add_argument(
        "--cache-dir", metavar="PATH",
        help="persistent cache root (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="disable the persistent cache"
    )
    p.add_argument(
        "--workers", type=int, metavar="N",
        help="persistent supervised worker pool: fork N workers once at "
             "start, keep them warm, restart on crash/hang/memory "
             "watermark (docs/serving.md)",
    )
    p.add_argument(
        "--queue-depth", type=int, default=32, metavar="N",
        help="admission watermark: concurrent requests beyond N are shed "
             "with 503 + Retry-After (default 32)",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="seconds to wait for in-flight requests on SIGTERM before "
             "flushing and exiting (default 10)",
    )
    p.add_argument(
        "--deadline-ms", type=float, metavar="MS",
        help="default per-trace deadline applied to every request",
    )
    p.add_argument(
        "--max-batch", type=int, default=64,
        help="largest accepted batch request (default 64)",
    )
    p.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "cache", help="inspect or prune the persistent compile cache"
    )
    p.add_argument("action", choices=("stats", "gc", "clear"))
    p.add_argument(
        "--cache-dir", metavar="PATH",
        help="cache root (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p.add_argument(
        "--max-bytes", type=int, metavar="N",
        help="gc: shrink the store to at most N bytes (oldest evicted first)",
    )
    p.add_argument(
        "--max-age-days", type=float, metavar="D",
        help="gc: evict objects older than D days",
    )
    p.add_argument("--json", action="store_true", help="machine-readable stats")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("pipeline", help="software-pipelining unroll sweep")
    p.add_argument("loop", choices=sorted(LOOPS))
    p.add_argument("--fus", type=int, default=4)
    p.add_argument("--regs", type=int, default=8)
    p.add_argument("--classed", action="store_true")
    p.add_argument("--method", choices=METHODS, default="ursa")
    p.add_argument("--factors", default="1,2,4,8")
    _add_observability(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def _compiler_errors() -> tuple:
    """Failure types mapped to structured exit code 2 (vs. tracebacks)."""
    from repro.core.allocator import AllocationError
    from repro.ir.program import IRError
    from repro.pipeline import PipelineError
    from repro.scheduling.list_scheduler import ScheduleError
    from repro.scheduling.regalloc import RegAllocError
    from repro.verify import VerifyError

    return (AllocationError, PipelineError, ScheduleError, RegAllocError,
            VerifyError, IRError)


def _structured_failure(args: argparse.Namespace, exc: Exception) -> int:
    """One-line machine-readable diagnostic; JSON under ``--json``."""
    message = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
    if getattr(args, "json", False):
        import json as _json

        print(_json.dumps({
            "error": {
                "type": type(exc).__name__,
                "command": args.command,
                "message": message,
            }
        }))
    else:
        print(
            f"repro {args.command}: error: {type(exc).__name__}: {message}",
            file=sys.stderr,
        )
    return 2


def _dispatch(args: argparse.Namespace) -> int:
    from repro.ir.parser import ParseError

    try:
        return args.func(args)
    except ParseError as exc:
        # Bad source is a user error, not a crash: render the offending
        # line with a caret (docs/analysis.md), then exit 2 with the
        # same one-line structured message other compiler errors use.
        if not getattr(args, "json", False):
            from repro.analyze import render_parse_error

            source_path = getattr(args, "source", None)
            source_text = None
            if source_path is not None:
                try:
                    source_text = Path(source_path).read_text()
                except OSError:
                    source_text = None
            print(
                render_parse_error(exc, source_text, source_path),
                file=sys.stderr,
            )
        return _structured_failure(args, exc)
    except _compiler_errors() as exc:
        return _structured_failure(args, exc)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # `--kernel` only exists on some subcommands.
    if not hasattr(args, "kernel"):
        args.kernel = None

    trace_path = getattr(args, "trace", None)
    profile = getattr(args, "profile", False)
    if not trace_path and not profile:
        return _dispatch(args)

    from repro import obs
    from repro.analysis.reporting import trace_summary

    if trace_path and not Path(trace_path).parent.is_dir():
        raise SystemExit(f"--trace: directory of {trace_path!r} does not exist")

    with obs.capture() as observer:
        code = _dispatch(args)
    if trace_path:
        observer.write_jsonl(trace_path)
        print(f"trace written to {trace_path}", file=sys.stderr)
    if profile:
        print(trace_summary(observer, title=args.command), file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
