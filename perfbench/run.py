"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload compile-tight --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed; ``--trace 1`` is the separate traced run that records the
per-layer ledger.  Human-readable tables go to stdout first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the metric names and units are the ones
declared in ``BENCHMARK.json``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile-tight", "compile-roomy", "serve-mix")


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no compiler sources at {src}; run from a full checkout")
    sys.path[:0] = [str(HERE), str(src)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path} is missing")
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    declared = _declared()
    _use_checkout_sources()
    import compile_runner
    import serve_runner

    if args.setup_probe:
        compile_runner.setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    if args.workload == "serve-mix":
        outcome = serve_runner.run(args.seed, args.seconds, bool(args.trace))
    else:
        outcome = compile_runner.run(args.workload, args.seed, args.seconds, bool(args.trace))

    metrics = {}
    if args.trace:
        values = outcome["layer_values"]
        for spec in declared["per_layer"]:
            # A layer the workload never enters reads 0 (e.g. serve.* on
            # the compile workloads); see README's layer table.
            metrics[spec["name"]] = {"value": float(values.get(spec["name"], 0.0)),
                                     "unit": spec["unit"]}
        unknown = sorted(set(values) - set(metrics))
        if unknown:
            raise RuntimeError(f"undeclared per-layer metrics: {unknown}")
        print(f"per-layer ({args.workload}, seed {args.seed}):")
        for spec in declared["per_layer"]:
            value = metrics[spec["name"]]["value"]
            print(f"  {spec['name']:<34} {value:>14.6g} {spec['unit']:<8} {spec['better']}")
    else:
        measured = outcome["metrics"]
        for spec in declared["end_to_end"]:
            value, unit = measured[spec["name"]]
            if unit != spec["unit"]:
                raise RuntimeError(f"{spec['name']}: unit {unit} != declared {spec['unit']}")
            metrics[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
