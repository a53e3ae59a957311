"""Span timers, monotonic counters, and structured trace events.

Design constraints (see ``docs/observability.md``):

* **Disabled by default, near-zero overhead.**  No observer is active
  unless a :class:`capture` block is open; every instrumentation call
  then reduces to one global read and a ``None`` check, and allocates
  nothing.
* **Flat, ordered records.**  Spans are recorded when they *close*
  (inner spans therefore precede their parent in the stream); their
  ``depth`` field reconstructs the nesting.  Counters and peaks are
  aggregated in memory and written once, when the capture finishes.
* **Streaming-friendly.**  An observer can mirror every record to a
  file sink as JSON Lines while also keeping the in-memory list.

The instrumented modules call the *module-level* functions
(:func:`span`, :func:`count`, :func:`peak`, :func:`event`), which
dispatch to the innermost active capture, so library code never holds
an observer reference.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional, Union

from repro.obs.schema import RESERVED_KEYS, SCHEMA_VERSION


class ObserverError(Exception):
    """Misuse of the observation API (bad field names, closed capture)."""


class _NullSpan:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """A timed region; records one ``span`` event when it exits."""

    __slots__ = ("_observer", "name", "fields", "_start", "_depth")

    def __init__(self, observer: "Observer", name: str, fields: Dict[str, Any]):
        self._observer = observer
        self.name = name
        self.fields = fields

    def __enter__(self) -> "Span":
        observer = self._observer
        self._depth = observer._depth
        observer._depth += 1
        self._start = observer._clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        observer = self._observer
        end = observer._clock()
        observer._depth -= 1
        record = {
            "type": "span",
            "name": self.name,
            "t": self._start - observer._epoch,
            "dur": end - self._start,
            "depth": self._depth,
        }
        if self.fields:
            record.update(self.fields)
        observer._emit(record)
        return False


class Observer:
    """Collects one trace: spans, events, counters, and peak gauges.

    Args:
        sink: optional text stream; every record is also written there
            as one JSON line, as soon as it is produced.
        clock: monotonic time source (injectable for deterministic
            tests); defaults to :func:`time.perf_counter`.
    """

    def __init__(
        self,
        sink: Optional[IO[str]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._clock = clock
        self._epoch = clock()
        self._depth = 0
        self._sink = sink
        self._finished = False
        self.events: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = {}
        self.peaks: Dict[str, float] = {}
        self._emit({"type": "meta", "name": "obs", "t": 0.0, "schema": SCHEMA_VERSION})

    # ------------------------------------------------------------------
    def span(self, name: str, **fields: Any) -> Span:
        self._check_fields(fields)
        return Span(self, name, fields)

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name: str, value: Union[int, float]) -> None:
        current = self.peaks.get(name)
        if current is None or value > current:
            self.peaks[name] = value

    def event(self, name: str, **fields: Any) -> None:
        self._check_fields(fields)
        record = {
            "type": "event",
            "name": name,
            "t": self._clock() - self._epoch,
            "depth": self._depth,
        }
        if fields:
            record.update(fields)
        self._emit(record)

    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Append counter/peak totals; further records are an error."""
        if self._finished:
            return
        now = self._clock() - self._epoch
        for name in sorted(self.counters):
            self._emit(
                {"type": "counter", "name": name, "t": now,
                 "total": self.counters[name]}
            )
        for name in sorted(self.peaks):
            self._emit(
                {"type": "peak", "name": name, "t": now,
                 "total": self.peaks[name]}
            )
        self._finished = True
        if self._sink is not None:
            self._sink.flush()

    def write_jsonl(self, path: Union[str, Path]) -> None:
        """Write the whole in-memory trace to ``path`` as JSON Lines."""
        with Path(path).open("w") as handle:
            for record in self.events:
                handle.write(json.dumps(record, default=str) + "\n")

    # ------------------------------------------------------------------
    def _emit(self, record: Dict[str, Any]) -> None:
        if self._finished:
            raise ObserverError("capture already finished")
        self.events.append(record)
        if self._sink is not None:
            self._sink.write(json.dumps(record, default=str) + "\n")

    @staticmethod
    def _check_fields(fields: Dict[str, Any]) -> None:
        bad = RESERVED_KEYS.intersection(fields)
        if bad:
            raise ObserverError(f"reserved field names: {sorted(bad)}")


# ======================================================================
# The active-capture stack and the module-level dispatch API.
# ======================================================================
_stack: List[Observer] = []


def active() -> Optional[Observer]:
    """The innermost active observer, or None when observation is off."""
    return _stack[-1] if _stack else None


class capture:
    """Context manager opening an observation window::

        with obs.capture() as trace:
            compile_trace(...)
        print(trace.counters["matching.augmenting_paths"])

    Captures nest: the innermost one receives the records.  On exit the
    observer is finished (counter/peak totals appended) and popped.
    """

    def __init__(
        self,
        sink: Optional[IO[str]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._sink = sink
        self._clock = clock
        self._observer: Optional[Observer] = None

    def __enter__(self) -> Observer:
        self._observer = Observer(sink=self._sink, clock=self._clock)
        _stack.append(self._observer)
        return self._observer

    def __exit__(self, *exc: object) -> bool:
        observer = self._observer
        if observer is not None and observer in _stack:
            _stack.remove(observer)
        if observer is not None:
            observer.finish()
        return False


def span(name: str, **fields: Any):
    """Time a region on the active observer (no-op when disabled)."""
    observer = active()
    if observer is None:
        return _NULL_SPAN
    return observer.span(name, **fields)


def count(name: str, n: Union[int, float] = 1) -> None:
    """Bump a monotonic counter on the active observer."""
    observer = active()
    if observer is not None:
        observer.count(name, n)


def peak(name: str, value: Union[int, float]) -> None:
    """Raise a high-water-mark gauge on the active observer."""
    observer = active()
    if observer is not None:
        observer.peak(name, value)


def event(name: str, **fields: Any) -> None:
    """Record a point-in-time event on the active observer."""
    observer = active()
    if observer is not None:
        observer.event(name, **fields)
