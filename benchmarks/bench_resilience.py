"""Experiment R1: cost of the resilience armor on the compile pipeline.

Times the Figure 2 compile on a constrained machine (2 FUs / 4
registers, so the URSA loop actually commits transforms):

* ``bare``     — plain ``compile_trace``, no resilience options (every
  commit still passes the allocator's commit gate);
* ``deadline`` — a generous wall-clock deadline installed, so every
  budgeted path (kill cover, matching, allocator loop, candidate
  enumeration) pays its periodic deadline checks but never trips.

The documented target (docs/resilience.md) is under 10% overhead over
the bare compile for the deadline, and the spill-everywhere baseline is
timed alongside for scale.
"""

import statistics
import time

from _common import emit_table, overhead_pct
from repro.machine.model import MachineModel
from repro.pipeline import compile_trace
from repro.resilience import Deadline
from repro.workloads.kernels import paper_figure2

MACHINE = MachineModel.homogeneous(2, 4)


def _interleaved_medians(configs, rounds, warmup):
    """Per-config median over round-robin samples.

    The configurations differ by a few percent while background load
    drifts by more than that over a multi-second block; interleaving
    puts every configuration in every load regime so the drift cancels
    instead of landing on whichever config ran last.
    """
    for _, fn in configs:
        for _ in range(warmup):
            fn()
    samples = {name: [] for name, _ in configs}
    for _ in range(rounds):
        for name, fn in configs:
            start = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - start)
    return {name: statistics.median(times) for name, times in samples.items()}


def _compile(**kwargs):
    return compile_trace(
        paper_figure2(), MACHINE, method="ursa", verify=False, **kwargs
    )


def test_resilience_overhead():
    configs = [
        ("bare", lambda: _compile()),
        ("deadline", lambda: _compile(deadline=Deadline(seconds=60.0))),
        (
            "spill-everywhere",
            lambda: compile_trace(
                paper_figure2(),
                MACHINE,
                method="spill-everywhere",
                verify=False,
            ),
        ),
    ]

    timings = _interleaved_medians(configs, rounds=21, warmup=3)
    base = timings["bare"]
    rows = [
        (
            name,
            f"{seconds * 1e3:.2f}",
            "-" if name == "bare" else f"{overhead_pct(base, seconds):+.1f}%",
        )
        for name, seconds in timings.items()
    ]
    emit_table(
        "resilience_overhead",
        ("configuration", "median ms", "vs bare"),
        rows,
        title="figure2 on 2 FUs / 4 regs — resilience armor cost",
    )

    # The armor must be cheap enough to leave on in production.
    assert overhead_pct(base, timings["deadline"]) < 10.0
