#!/usr/bin/env python
"""Print the chaos sweep's injection logs, one line per injection.

Runs the 25-seed figure-2 sweep of ``tests/test_resilience_chaos.py``
(every fault class at rate 0.4, resilient + deadline + verify-each
compiles on ``homogeneous(2, 4)``) and prints each seed's injections in
order as ``seed fault site decision``, without the process-global uids.
Every draw is keyed by ``(seed, fault, site)``, so the output must not
depend on ``PYTHONHASHSEED``; CI compares two runs::

    PYTHONHASHSEED=0 PYTHONPATH=src python tools/chaos_injection_log.py > a
    PYTHONHASHSEED=1 PYTHONPATH=src python tools/chaos_injection_log.py > b
    cmp a b
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.machine.model import MachineModel  # noqa: E402
from repro.pipeline import compile_trace  # noqa: E402
from repro.resilience import ChaosMonkey, Deadline, chaos_scope  # noqa: E402
from repro.resilience.chaos import FAULT_CLASSES  # noqa: E402
from repro.workloads.kernels import kernel  # noqa: E402

#: Injection fields that name process-global uids.
UID_FIELDS = ("edge", "killer_before", "killer_after")


def main() -> int:
    trace = kernel("figure2")
    machine = MachineModel.homogeneous(2, 4)
    for seed in range(25):
        monkey = ChaosMonkey(seed=seed, faults=FAULT_CLASSES, rate=0.4)
        with chaos_scope(monkey):
            result = compile_trace(
                trace, machine, method="ursa", resilient=True,
                deadline=Deadline(seconds=30.0), verify_each=True,
            )
        for entry in monkey.injections:
            decision = sorted(
                (key, value) for key, value in entry.items()
                if key not in ("fault", "site") + UID_FIELDS
            )
            print(seed, entry["fault"], entry["site"], decision)
        print(seed, "final", result.degradation.final_method,
              result.degradation.deadline_tripped)
    return 0


if __name__ == "__main__":
    sys.exit(main())
