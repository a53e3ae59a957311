"""A fixed pure-Python reference workload that measures host speed.

On a shared 2-vCPU virtual machine, host speed changes by a quarter or
more from one minute to the next, for every Python workload alike.
Timing this fixed routine in the same run gives the run's host speed.
Dividing a measured time by it cancels most of that drift.  The routine
imports nothing from ``repro``, so no change to the program can move it.
It does the kind of work the compiler does: dict and set traffic,
integer bitset closures, and augmenting-path matching on a fixed graph.
"""

from __future__ import annotations

import json
import random
import sys
import time
from typing import Dict, List, Set

NODES = 160


def _graph() -> List[Set[int]]:
    rng = random.Random(20261017)
    succ: List[Set[int]] = [set() for _ in range(NODES)]
    for v in range(NODES - 1):
        for _ in range(3):
            succ[v].add(rng.randrange(v + 1, min(NODES, v + 12)))
    return succ


def reference_work() -> int:
    """One unit of reference work (a few milliseconds); returns a checksum."""
    succ = _graph()
    reach = [0] * NODES
    for v in reversed(range(NODES)):
        mask = 0
        for u in succ[v]:
            mask |= (1 << u) | reach[u]
        reach[v] = mask
    # Maximum matching on the comparability graph (Kuhn's algorithm).
    match: Dict[int, int] = {}

    def augment(v: int, seen: Set[int]) -> bool:
        mask = reach[v]
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            mask ^= low
            if u in seen:
                continue
            seen.add(u)
            if u not in match or augment(match[u], seen):
                match[u] = v
                return True
        return False

    size = sum(1 for v in range(NODES) if augment(v, set()))
    return size + sum(bin(m).count("1") for m in reach)


class HostSpeed:
    """Samples ``reference_work`` between measured operations.

    A sample is the CPU time the routine takes, so time slices lost to
    the benchmark's other processes do not count, while a slower host
    does.
    """

    def __init__(self, every_s: float = 0.5) -> None:
        self.every_s = every_s
        self.samples_ms: List[float] = []
        self._next = 0.0

    def sample(self) -> None:
        start = time.thread_time()
        reference_work()
        self.samples_ms.append((time.thread_time() - start) * 1e3)
        self._next = time.perf_counter() + self.every_s

    def maybe_sample(self) -> None:
        """Take a sample if ``every_s`` has passed since the last one."""
        if time.perf_counter() >= self._next:
            self.sample()


def main(argv: List[str]) -> int:
    """``reference.py SECONDS``: sample every 0.5 s for SECONDS, then
    print the samples (ms) as one JSON list."""
    speed = HostSpeed()
    stop = time.perf_counter() + float(argv[0])
    while time.perf_counter() < stop:
        speed.maybe_sample()
        time.sleep(0.01)
    print(json.dumps(speed.samples_ms), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
