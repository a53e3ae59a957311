"""Seeded inputs for the three workloads.

Everything here is a pure function of ``--seed`` (and of the checked-in
kernels and example traces), so the same seed always gives the same
corpus and the same request sequence.  The program under test only
ever sees the generated text.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_TRACES = ROOT / "examples" / "traces"

#: compile-tight: machines too small for the first measurement, so the
#: reduction loop runs.  ``cydra`` is multi-class with pipelined
#: latencies, ``dsp`` has two register classes.
TIGHT_MACHINES = ("h2x6", "narrow", "cydra", "dsp")
#: compile-roomy: one machine wide enough that URSA's first measurement
#: already fits every trace of the corpus (up to 384 ops, width 10).
ROOMY_MACHINE = "h128x512"

TIGHT_RANDOM = 24          # random traces, 24..64 ops, width 4..10
ROOMY_RANDOM = 80          # random traces, 128..384 ops, width 6..10

#: More kernel shapes for compile-tight (seed-independent, so the seeded
#: random traces move the latency percentiles less): (name, kwargs).
TIGHT_VARIANTS: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("dot-product", {"unroll": 2}),
    ("dot-product", {"unroll": 6}),
    ("fir", {"taps": 3, "outputs": 2}),
    ("matvec", {"rows": 2, "cols": 2}),
    ("matvec", {"rows": 2, "cols": 4}),
    ("fft-butterfly", {"pairs": 1}),
    ("horner", {"degree": 4}),
    ("horner", {"degree": 10}),
    ("estrin", {"degree": 4}),
    ("stencil5", {"points": 2}),
    ("hydro", {"unroll": 2}),
    ("saxpy", {"unroll": 2}),
    ("saxpy", {"unroll": 6}),
    ("tridiag", {"unroll": 2}),
    ("tridiag", {"unroll": 5}),
)

#: Unrolled kernels for compile-roomy: (name, kwargs).
ROOMY_KERNELS: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("matmul", {"n": 3}),
    ("fir", {"taps": 8, "outputs": 6}),
    ("dot-product", {"unroll": 16}),
    ("hydro", {"unroll": 12}),
    ("saxpy", {"unroll": 16}),
    ("stencil5", {"points": 12}),
    ("horner", {"degree": 24}),
    ("matvec", {"rows": 6, "cols": 6}),
    ("tridiag", {"unroll": 12}),
    ("fft-butterfly", {"pairs": 8}),
    ("bitonic", {"width": 16}),
    ("estrin", {"degree": 31}),
    ("matmul", {"n": 4}),
    ("fir", {"taps": 12, "outputs": 8}),
    ("dot-product", {"unroll": 32}),
    ("hydro", {"unroll": 24}),
    ("saxpy", {"unroll": 32}),
    ("stencil5", {"points": 24}),
    ("horner", {"degree": 48}),
    ("matvec", {"rows": 8, "cols": 8}),
    ("tridiag", {"unroll": 24}),
    ("fft-butterfly", {"pairs": 16}),
)

# serve-mix.
HOT_POOL = 16              # every kernel and example trace
#: Mid-size kernels served with ``deadline_ms`` (always in the hot pool,
#: so their plain outputs are warmed and can be compared).
DEADLINE_KERNELS = ("matmul", "stencil5", "matvec")
DEADLINE_MS = 10000
SERVE_MACHINE = {"preset": "research"}
#: Request classes and their shares of every block of ``BLOCK`` requests.
MIX = (("hot", 0.60), ("deadline", 0.15), ("program", 0.25))
BLOCK = 20


def machine(name: str):
    """The machine model behind a corpus machine name."""
    from repro.machine.model import MachineModel
    from repro.machine.presets import PRESETS

    if name == "h2x6":
        return MachineModel.homogeneous(2, 6)
    if name == "h128x512":
        return MachineModel.homogeneous(128, 512)
    return PRESETS[name]()


def render(instructions) -> str:
    """ursa-lang text of a straight-line trace (what the parser reads)."""
    return "\n".join(str(inst) for inst in instructions) + "\n"


def ir_op_count(source: str) -> int:
    """IR instructions in a trace or program text (labels excluded)."""
    count = 0
    for line in source.splitlines():
        line = line.split("#", 1)[0].strip()
        if line and not line.endswith(":"):
            count += 1
    return count


def derive(seed: int, *parts: object) -> int:
    """A stable 31-bit sub-seed (independent of PYTHONHASHSEED)."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass(frozen=True)
class Job:
    """One compile of the corpus: a trace text on a machine."""

    name: str
    machine: str
    source: str
    ops: int


def fixed_traces() -> List[Tuple[str, str]]:
    """Every ``KERNELS`` entry, then every example trace that is not a
    copy of one (``figure2.ursa`` is the ``figure2`` kernel)."""
    from repro.ir.parser import parse_trace
    from repro.workloads import KERNELS

    traces = [(name, render(factory())) for name, factory in KERNELS.items()]
    seen = {source for _, source in traces}
    for path in sorted(EXAMPLE_TRACES.glob("*.ursa")):
        source = path.read_text()
        if render(parse_trace(source)) not in seen:
            traces.append((f"example-{path.stem}", source))
    return traces


def _variant(name: str, kwargs: Dict[str, int]) -> Tuple[str, str]:
    from repro.workloads import KERNELS

    label = name + "".join(f"-{k}{v}" for k, v in kwargs.items())
    return label, render(KERNELS[name](**kwargs))


def _stratified(count: int, lo: int, hi: int) -> List[int]:
    """``count`` sizes spread evenly over [lo, hi] (seed-independent)."""
    return [lo + round((hi - lo) * i / (count - 1)) for i in range(count)]


def compile_corpus(workload: str, seed: int) -> List[Job]:
    """The seeded corpus of ``compile-tight`` or ``compile-roomy``.

    Sizes and widths are stratified and fixed; the seed draws the random
    graphs.  This keeps corpus cost steady across seeds while every seed
    still compiles different traces.
    """
    from repro.workloads import random_layered_trace

    jobs: List[Job] = []

    def add(name: str, machine_name: str, source: str) -> None:
        jobs.append(Job(name, machine_name, source, ir_op_count(source)))

    if workload == "compile-tight":
        fixed = fixed_traces() + [_variant(n, kw) for n, kw in TIGHT_VARIANTS]
        for name, source in fixed:
            for machine_name in TIGHT_MACHINES:
                add(name, machine_name, source)
        sizes = _stratified(TIGHT_RANDOM, 24, 64)
        for i, n_ops in enumerate(sizes):
            width = 4 + i % 7
            trace = random_layered_trace(
                n_ops, width, seed=derive(seed, workload, i)
            )
            add(f"random{n_ops}w{width}", TIGHT_MACHINES[i % 4], render(trace))
    elif workload == "compile-roomy":
        for name, kwargs in ROOMY_KERNELS:
            label, source = _variant(name, kwargs)
            add(label, ROOMY_MACHINE, source)
        sizes = _stratified(ROOMY_RANDOM, 128, 384)
        for i, n_ops in enumerate(sizes):
            width = 6 + i % 5
            trace = random_layered_trace(
                n_ops, width, seed=derive(seed, workload, i)
            )
            add(f"random{n_ops}w{width}", ROOMY_MACHINE, render(trace))
    else:
        raise ValueError(f"not a compile workload: {workload!r}")
    # A seeded order, so no machine or size class sits at the end of
    # every pass.
    random.Random(derive(seed, workload, "order")).shuffle(jobs)
    return jobs


# ======================================================================
# serve-mix.
# ======================================================================
@dataclass(frozen=True)
class ServeSet:
    """The trace sets serve-mix draws from (the seed draws the requests)."""

    hot: Tuple[Tuple[str, str], ...]        # (name, source)
    deadline: Tuple[Tuple[str, str], ...]   # subset of ``hot``


def serve_set() -> ServeSet:
    hot = fixed_traces()
    if len(hot) != HOT_POOL:
        raise RuntimeError(f"expected {HOT_POOL} hot traces, found {len(hot)}")
    deadline = [item for item in hot if item[0] in DEADLINE_KERNELS]
    return ServeSet(hot=tuple(hot), deadline=tuple(deadline))


@dataclass(frozen=True)
class Request:
    index: int
    cls: str
    name: str
    body: Dict[str, object]
    ops: int


def request(seed: int, sets: ServeSet, index: int) -> Request:
    """The ``index``-th request of the seeded closed-loop sequence.

    The sequence is cut into blocks of ``BLOCK`` requests that hold the
    ``MIX`` shares exactly, in a seeded order, and use every deadline
    kernel equally often.  A run's mix then does not drift with how many
    requests it completes, so its cost per request does not either.
    """
    block, pos = divmod(index, BLOCK)
    block_rng = random.Random(derive(seed, "serve", "block", block))
    classes = [name for name, share in MIX for _ in range(round(share * BLOCK))]
    block_rng.shuffle(classes)
    kernels = block_rng.sample(range(len(sets.deadline)), len(sets.deadline))
    cls = classes[pos]
    rng = random.Random(derive(seed, "serve", "request", index))
    options: Dict[str, object] = {"verify": True}
    if cls == "program":
        from repro.workloads import random_structured_program

        program_seed = derive(seed, "serve", "program", index)
        source = str(random_structured_program(seed=program_seed))
        name = f"program{program_seed}"
        kind = "program"
    elif cls == "deadline":
        slot = classes[:pos].count("deadline") % len(kernels)
        name, source = sets.deadline[kernels[slot]]
        kind = "trace"
        options["deadline_ms"] = DEADLINE_MS
    else:
        name, source = sets.hot[rng.randrange(len(sets.hot))]
        kind = "trace"
    body = {
        "id": index, "kind": kind, "source": source,
        "machine": SERVE_MACHINE, "method": "ursa", "options": options,
    }
    return Request(index, cls, name, body, ir_op_count(source))


def warm_requests(sets: ServeSet) -> List[Request]:
    """Plain requests that fill the cache with every hot trace."""
    return [
        Request(
            -1 - i, "warm", name,
            {"id": -1 - i, "kind": "trace", "source": source,
             "machine": SERVE_MACHINE, "method": "ursa",
             "options": {"verify": True}},
            ir_op_count(source),
        )
        for i, (name, source) in enumerate(sets.hot)
    ]
