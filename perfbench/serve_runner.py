"""``serve-mix``: a closed loop of 2 clients against ``repro serve``.

Untraced runs start a real ``repro serve --workers 2`` subprocess with a
fresh, empty cache directory and drive it over HTTP.  Traced runs host
``make_server`` and its 2-worker pool inside this process, so the
ledger's wrappers see the parent-side calls; the pool's workers are
forked before any wrapper is installed and stay untraced.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import corpus
from common import (
    OUT_DIR, ROOT, check_repeat, digest, emit_table, geomean, median,
    percentile,
    vm_hwm_mb,
)

CLIENTS = 2
WORKERS = 2
SETUPS = 3
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


# ======================================================================
# HTTP.
# ======================================================================
def post(port: int, body: bytes) -> Tuple[int, Dict[str, Any]]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", "/v1/compile", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        status = response.status
    finally:
        conn.close()
    try:
        return status, json.loads(data) if data else {}
    except json.JSONDecodeError:
        return status, {}


def get(port: int, path: str) -> Tuple[int, Dict[str, Any]]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def _fresh_dir(name: str):
    path = OUT_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class ServerProcess:
    """``repro serve`` as a child process, stopped by SIGTERM (drain)."""

    def __init__(self, cache_dir, log_path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", str(WORKERS), "--cache-dir", str(cache_dir)],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=self.log,
            text=True,
        )
        self.worker_pids: List[int] = []
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self) -> None:
        stop = time.perf_counter() + BOOT_TIMEOUT_S
        while time.perf_counter() < stop:
            try:
                status, body = get(self.port, "/healthz")
                if status == 200 and body.get("status") == "ok":
                    self.worker_pids = [w["pid"] for w in body["workers"]["workers"]]
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("repro serve never reported healthy")

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server plus its workers."""
        total = 0
        for pid in [self.proc.pid] + self.worker_pids:
            stat = Path(f"/proc/{pid}/stat").read_text()
            fields = stat.rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        return total / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus its workers."""
        return sum(vm_hwm_mb(pid) for pid in [self.proc.pid] + self.worker_pids)

    def stop(self) -> None:
        """SIGTERM drains the server, which shuts its pool down.  Only a
        server that does not exit in time is killed, with its workers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
                for pid in self.worker_pids:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


# ======================================================================
# The closed loop.
# ======================================================================
@dataclass
class Reply:
    index: int
    cls: str
    name: str
    ops: int
    ms: float
    status: int
    body: Dict[str, Any]

    @property
    def ok(self) -> bool:
        result = self.body.get("result") or {}
        return (
            self.status == 200 and self.body.get("ok") is True
            and result.get("verified") is True
        )


def warm(port: int, sets: corpus.ServeSet, on_request=None) -> Dict[str, Reply]:
    """Compile every hot trace once (cache misses, written to the cache)."""
    out = {}
    for req in corpus.warm_requests(sets):
        if on_request is not None:
            on_request(req)
        start = time.perf_counter()
        status, body = post(port, json.dumps(req.body).encode())
        out[req.name] = Reply(req.index, req.cls, req.name, req.ops,
                              (time.perf_counter() - start) * 1e3, status, body)
    return out


def closed_loop(port: int, seed: int, sets: corpus.ServeSet, seconds: float,
                first_index: int = 0) -> Tuple[List[Reply], float, int]:
    """``CLIENTS`` threads, each sending its next request on a reply.

    Requests are taken in index order from the seeded sequence, so the
    mix is a function of the seed alone.  Returns (replies, wall s,
    next unused index).
    """
    lock = threading.Lock()
    state = {"next": first_index}
    replies: List[Reply] = []
    stop = time.perf_counter() + seconds
    errors: List[BaseException] = []

    def client() -> None:
        try:
            while True:
                with lock:
                    if time.perf_counter() >= stop:
                        return
                    index = state["next"]
                    state["next"] += 1
                req = corpus.request(seed, sets, index)
                body = json.dumps(req.body).encode()
                start = time.perf_counter()
                try:
                    status, data = post(port, body)
                except OSError as exc:
                    status, data = 0, {"error": str(exc)}
                ms = (time.perf_counter() - start) * 1e3
                replies.append(Reply(index, req.cls, req.name, req.ops, ms, status, data))
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    start = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish")
    replies.sort(key=lambda r: r.index)
    return replies, wall, state["next"]


def _result(reply: Reply) -> Dict[str, Any]:
    return reply.body.get("result") or {}


def evaluate(replies: List[Reply], warmed: Dict[str, Reply]) -> Dict[str, Any]:
    """Failures, class latencies and the workload-property checks."""
    failed = [r for r in replies if not r.ok]
    ok = [r for r in replies if r.ok]
    by_cls: Dict[str, List[float]] = {"hot": [], "deadline": [], "program": []}
    for r in ok:
        by_cls[r.cls].append(r.ms)
    hot_misses = sum(1 for r in ok if r.cls == "hot" and not _result(r)["cache"]["hit"])
    degraded = sum(
        1 for r in ok if r.cls == "deadline"
        and (_result(r).get("degradation") or {}).get("degraded")
    )
    compared = [r for r in ok if r.cls in ("hot", "deadline")]
    mismatched = [
        r for r in compared
        if _result(r).get("program") != _result(warmed[r.name]).get("program")
    ]
    shed = sum(1 for r in replies if r.status == 503)
    return {
        "failed": failed, "ok": ok, "by_cls": by_cls, "hot_misses": hot_misses,
        "degraded": degraded, "shed": shed,
        "mismatched": sorted({f"{r.cls}:{r.name}" for r in mismatched}),
        "stable_rate": 1.0 - len(mismatched) / len(compared) if compared else 1.0,
    }


def _warm_summary(warmed: Dict[str, Reply]) -> Dict[str, Any]:
    results = [_result(r) for _, r in sorted(warmed.items())]
    return {
        "cycles_total": sum(r.get("cycles_estimate", 0) for r in results),
        "code_ops_total": sum(r.get("op_count", 0) for r in results),
        "spill_ops_total": sum(r.get("spill_ops", 0) for r in results),
        "digest": digest(r.get("program", "<failed>") for r in results),
    }


def _p(values: List[float], q: float) -> float:
    return percentile(values, q) if values else float("nan")


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    if trace:
        return _run_traced(seed, seconds)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    setup_times: List[float] = []
    server: Optional[ServerProcess] = None
    try:
        for k in range(SETUPS):
            start = time.perf_counter()
            sets = corpus.serve_set()
            candidate = ServerProcess(
                _fresh_dir(f"serve-cache-{k}"), OUT_DIR / f"serve-{k}.log"
            )
            try:
                warmed = warm(candidate.port, sets)
            except BaseException:
                candidate.stop()
                raise
            setup_times.append(time.perf_counter() - start)
            if k < SETUPS - 1:
                candidate.stop()
            else:
                server = candidate
        # Host speed is sampled by a separate process during the loop,
        # so the client's interpreter lock stays free for the clients.
        sampler = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "reference.py"), str(seconds)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            cpu_before = server.cpu_seconds()
            replies, wall, _ = closed_loop(server.port, seed, sets, seconds)
            server_cpu = server.cpu_seconds() - cpu_before
        finally:
            out, _ = sampler.communicate(timeout=60)
        ref_samples = json.loads(out)
        _, stats = get(server.port, "/v1/stats")
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        for k in range(SETUPS):
            shutil.rmtree(OUT_DIR / f"serve-cache-{k}", ignore_errors=True)

    ev = evaluate(replies, warmed)
    summary = _warm_summary(warmed)
    warm_failed = [name for name, r in warmed.items() if not r.ok]
    attempted = len(replies) + len(warmed)
    failed = len(ev["failed"]) + len(warm_failed)
    lat = [r.ms for r in ev["ok"]]
    ref_ms = median(ref_samples)
    ops_ok = sum(r.ops for r in ev["ok"])
    cpu_ref = server_cpu * 1e3 / ref_ms
    repeat = check_repeat("serve-mix", seed, summary)
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "ops_per_ref": (ops_ok / cpu_ref, "ops/ref"),
        "cpu_ref_per_job": (cpu_ref / len(replies), "ref"),
        "cycles_total": (summary["cycles_total"], "cycles"),
        "code_ops_total": (summary["code_ops_total"], "count"),
        "peak_rss_mb": (rss, "MB"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
        "stable_rate": (ev["stable_rate"], "ratio"),
    }
    by_cls = ev["by_cls"]
    restarts = (stats.get("pool") or {}).get("restarts")
    print(f"serve-mix seed={seed}: {len(replies)} timed requests over {CLIENTS} "
          f"connections in {wall:.2f}s ({', '.join(f'{c}={len(v)}' for c, v in by_cls.items())}); "
          "setups " + ", ".join(f"{t:.3f}s" for t in setup_times))
    emit_table([
        ("setup_s", metrics["setup_s"][0], "s", "lower", f"median of {len(setup_times)} boots+warms"),
        ("ref_ms", ref_ms, "ms", "-", f"host speed: median of {len(ref_samples)} reference samples"),
        ("ops_per_ref", metrics["ops_per_ref"][0], "ops/ref", "higher",
         "IR instructions in ok requests per ref of server + worker CPU"),
        ("cpu_ref_per_job", metrics["cpu_ref_per_job"][0], "ref", "lower",
         "server + worker CPU per request, over ref_ms"),
        ("ops_per_s", ops_ok / wall, "ops/s", "higher", "IR instructions served per second"),
        ("req_per_s", len(ev["ok"]) / wall, "1/s", "higher", "ok requests per second"),
        ("job_ms_geomean", geomean(lat), "ms", "lower", f"{len(lat)} requests"),
        ("req_ms_p50", _p(lat, 50), "ms", "lower", f"{len(lat)} requests"),
        ("req_ms_p90", _p(lat, 90), "ms", "lower", f"{len(lat)} requests"),
        ("req_ms_p95", _p(lat, 95), "ms", "lower", f"{len(lat)} requests"),
        ("hot_ms_p50", _p(by_cls["hot"], 50), "ms", "lower", f"{len(by_cls['hot'])} requests"),
        ("deadline_req_ms_p50", _p(by_cls["deadline"], 50), "ms", "lower", f"{len(by_cls['deadline'])} requests"),
        ("program_ms_p50", _p(by_cls["program"], 50), "ms", "lower", f"{len(by_cls['program'])} requests"),
        ("cycles_total", summary["cycles_total"], "cycles", "lower", "warmed hot pool"),
        ("code_ops_total", summary["code_ops_total"], "count", "lower", "warmed hot pool"),
        ("spill_ops_total", summary["spill_ops_total"], "count", "lower", "warmed hot pool"),
        ("peak_rss_mb", rss, "MB", "lower", f"VmHWM of server + {WORKERS} workers"),
        ("fail_rate", failed / attempted, "ratio", "lower", f"{failed}/{attempted}"),
        ("ok_rate", metrics["ok_rate"][0], "ratio", "higher", "1 - fail_rate"),
        ("stable_rate", ev["stable_rate"], "ratio", "higher",
         "hot+deadline replies equal to the warmed plain compile"),
    ])
    print(f"  signature digest {summary['digest']}; pool restarts {restarts}")
    _print_properties(ev, warm_failed, repeat)
    correct = failed == 0
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _print_properties(ev, warm_failed, repeat) -> None:
    checks = [
        ("every timed hot request is a cache hit", ev["hot_misses"] == 0,
         f"{ev['hot_misses']} misses"),
        ("no deadline request comes back degraded", ev["degraded"] == 0,
         f"{ev['degraded']} degraded"),
        (f"{CLIENTS} connections cause no 503 shedding", ev["shed"] == 0,
         f"{ev['shed']} shed"),
        ("hot and deadline outputs match the plain compile (determinism)",
         not ev["mismatched"], ", ".join(ev["mismatched"][:5]) or "all match"),
    ]
    for name, ok, note in checks:
        print(f"  property: {name}: {'ok' if ok else 'BROKEN'} ({note})")
    for r in ev["failed"][:5]:
        print(f"  failure: #{r.index} {r.cls} {r.name}: HTTP {r.status} "
              f"{json.dumps(r.body.get('error'))[:200]}")
    for name in warm_failed[:5]:
        print(f"  failure: warm {name}")
    if repeat:
        print(f"  repeat of seed: BROKEN: {repeat} differ from an earlier run "
              "of this seed on this tree")


# ======================================================================
# Traced run: the server inside this process.
# ======================================================================
def _run_traced(seed: int, seconds: float) -> Dict[str, Any]:
    import ledger
    from repro.serve.server import make_server

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    sets = corpus.serve_set()
    deadline_names = {name for name, _ in sets.deadline}
    cache_dir = _fresh_dir("serve-cache-traced")
    server = make_server("127.0.0.1", 0, cache=str(cache_dir), workers=WORKERS, quiet=True)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    app = server.app
    tracer = ledger.Tracer(ledger.SERVE_LAYERS)
    try:
        def phase_of(req) -> None:
            tracer.phase = "warm.deadline_set" if req.name in deadline_names else "warm"

        tracer.install()
        try:
            warmed = warm(port, sets, on_request=phase_of)
        finally:
            tracer.restore()
        half = seconds / 2.0
        base, base_wall, next_index = closed_loop(port, seed, sets, half)
        tracer.phase = "timed"
        counters_before = dict(app.observer.counters)
        tracer.install()
        try:
            replies, wall, _ = closed_loop(port, seed, sets, half, first_index=next_index)
        finally:
            tracer.restore()
        counters = {
            k: v - counters_before.get(k, 0) for k, v in app.observer.counters.items()
        }
        stats = app.stats()
    finally:
        server.shutdown()
        server.server_close()
        app.close()
        thread.join(timeout=30)
        shutil.rmtree(cache_dir, ignore_errors=True)

    spans_path = OUT_DIR / f"spans-serve-mix-{seed}.jsonl"
    tracer.write_jsonl(spans_path)
    values = serve_layer_values(tracer.spans, replies, counters)
    values["serve.pool.restarts"] = float((stats.get("pool") or {}).get("restarts", 0))
    base_ok = [r.ms for r in base if r.ok]
    traced_ok = [r.ms for r in replies if r.ok]
    base_mean, traced_mean = geomean(base_ok), geomean(traced_ok)
    values["trace.base_job_ms_geomean"] = base_mean
    values["trace.job_ms_geomean"] = traced_mean
    values["trace.overhead_pct"] = 100.0 * (traced_mean - base_mean) / base_mean

    ev = evaluate(base + replies, warmed)
    warm_failed = [name for name, r in warmed.items() if not r.ok]
    attempted = len(base) + len(replies) + len(warmed)
    failed = len(ev["failed"]) + len(warm_failed)
    print(f"serve-mix seed={seed} traced: {len(base)} untraced then {len(replies)} "
          f"traced requests ({base_wall:.2f}s + {wall:.2f}s); spans -> "
          f"{spans_path.relative_to(ROOT)}")
    print(f"  ledger: route layers {values['ledger.layers_ms']:.3f} ms + unattributed "
          f"{values['pipeline.unattributed_ms']:.3f} ms = route wall "
          f"{values['ledger.root_ms']:.3f} ms per request")
    print(f"  tracing overhead on job_ms_geomean: untraced {base_mean:.3f} ms, traced "
          f"{traced_mean:.3f} ms, traced - untraced {traced_mean - base_mean:+.3f} ms")
    _print_properties(ev, warm_failed, [])
    residual = abs(values.pop("ledger.layers_ms") + values["pipeline.unattributed_ms"]
                   - values["ledger.root_ms"])
    return {"correct": failed == 0 and residual < 1e-6, "attempted": attempted,
            "failed": failed, "layer_values": values}


def serve_layer_values(spans, replies: List[Reply], counters: Dict[str, float]) -> Dict[str, float]:
    """Per-request layer metrics of the timed, traced phase."""
    import ledger

    n = max(1, len(replies))
    timed = [s for s in spans if s.phase == "timed"]
    routes = [s for s in timed if s.name == "serve.route"]
    in_route = ledger.subtree(timed, [s.id for s in routes])
    ms, calls = ledger.layer_totals(in_route)
    route_wall = sum(s.duration for s in routes) / 1e6
    unattributed = ms.pop("serve.route", 0.0) + ms.pop("serve.parent_compile", 0.0)
    # Admission and release run on the handler thread outside the route.
    admit_ms = sum(s.duration for s in timed if s.name == "serve.admit") / 1e6
    server_ms = route_wall + admit_ms
    client_ms = sum(r.ms for r in replies)
    gets = [s for s in in_route if s.name == "serve.cache_get"]
    hits = sum(1 for s in gets if s.tag == "hit")
    maps = [s for s in in_route if s.name == "serve.pool.map"]

    def compile_mean(phase: str, tag: str) -> float:
        rows = [s.duration for s in spans if s.name == "serve.parent_compile"
                and s.phase == phase and s.tag == tag]
        return sum(rows) / len(rows) / 1e6 if rows else 0.0

    pm_hits, pm_misses = counters.get("pm.cache_hit", 0), counters.get("pm.cache_miss", 0)
    return {
        "ledger.root_ms": route_wall / n,
        "ledger.layers_ms": sum(ms.values()) / n,
        "pipeline.unattributed_ms": unattributed / n,
        **ledger.per_job(ms, calls, n),
        "core.candidates": counters.get("allocate.candidates", 0) / n,
        "pm.analysis_hit_rate": pm_hits / (pm_hits + pm_misses) if pm_hits + pm_misses else 0.0,
        "serve.transport_ms": (client_ms - server_ms) / n,
        "serve.admit_ms": admit_ms / n,
        "serve.cache_hit_rate": hits / len(gets) if gets else 0.0,
        "serve.parent_compile_ms.plain": compile_mean("warm.deadline_set", "plain"),
        "serve.parent_compile_ms.deadline": compile_mean("timed", "deadline"),
        "serve.pool.shards": sum(s.tag or 0 for s in maps) / n,
    }
