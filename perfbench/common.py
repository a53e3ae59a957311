"""Statistics, memory readings and the run record shared by the runners."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run leaves behind lives here (ignored by git).
OUT_DIR = ROOT / ".perfbench_out"


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean: every job weighs the same whatever its size."""
    if not values:
        raise ValueError("geometric mean of no samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)."""
    path = Path(f"/proc/{pid if pid is not None else 'self'}/status")
    for line in path.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def digest(texts: Iterable[str]) -> str:
    sha = hashlib.sha256()
    for text in texts:
        sha.update(hashlib.sha256(text.encode()).digest())
    return sha.hexdigest()[:16]


def tree_hash() -> str:
    """Content hash of the compiler sources and of this benchmark.

    Keys the cross-run determinism record: two runs of one seed on the
    same tree must produce identical outputs.
    """
    sha = hashlib.sha256()
    for base in (ROOT / "src" / "repro", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            sha.update(str(path.relative_to(ROOT)).encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def check_repeat(workload: str, seed: int, record: Dict[str, object]) -> List[str]:
    """Compare ``record`` with an earlier run of the same seed and tree.

    The first run of a (workload, seed, tree) writes the record; every
    later run must match it exactly.  Returns the mismatching keys.
    """
    folder = OUT_DIR / "repeat"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{workload}-{seed}-{tree_hash()}.json"
    if not path.exists():
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, sort_keys=True))
        tmp.replace(path)
        return []
    earlier = json.loads(path.read_text())
    return sorted(key for key in record if earlier.get(key) != record[key])


def emit_table(rows: Sequence[Sequence[object]]) -> None:
    """Print metric rows ``(name, value, unit, direction, note)``."""
    for name, value, unit, direction, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {shown:>14} {unit:<8} {direction:<7} {note}")
