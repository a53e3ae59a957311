"""Deadlines and work budgets for the NP-hard/exponential paths.

URSA's measurement loop leans on several searches with no polynomial
bound: ``Kill()`` selection (minimum cover, NP-complete per Theorem 2),
the exact bitmask scheduler, bipartite augmentation, and the allocator's
tentative-apply loop itself.  A production service must never hang in
any of them, so every such path periodically consults the *active
deadline* and, on expiry, returns its best-so-far or heuristic answer
tagged as degraded instead of running unbounded.

A :class:`Deadline` can bound wall-clock time (``seconds``), abstract
work units (``work``, counted via :meth:`Deadline.tick`), or both.
Deadlines are installed with :func:`deadline_scope` and discovered with
:func:`active_deadline` — the same innermost-wins stack discipline as
``repro.obs.capture``.  Code that finds no active deadline pays one
attribute read and a ``None`` check, nothing more.

Expiry is *sticky*: once a deadline trips it stays expired (the trip
reason is kept in :attr:`Deadline.tripped`), so an escalation ladder
that shares one deadline across rungs sees every later rung expired
immediately and can jump straight to its cheapest fallback.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, List, Optional

from repro import obs


class DeadlineExpired(Exception):
    """A budgeted computation ran out of time or work.

    Raised only by :meth:`Deadline.check`; paths that can degrade
    in place consult :meth:`Deadline.expired` instead and return their
    best-so-far answer.
    """

    def __init__(self, site: str, deadline: Optional["Deadline"] = None):
        super().__init__(site)
        self.site = site
        self.deadline = deadline


class Deadline:
    """A sticky time/work budget shared by one compilation."""

    __slots__ = ("seconds", "work", "_clock", "_start", "_ticks", "_tripped")

    def __init__(
        self,
        seconds: Optional[float] = None,
        work: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.seconds = seconds
        self.work = work
        self._clock = clock
        self._start = clock()
        self._ticks = 0
        self._tripped: Optional[str] = None

    @property
    def tripped(self) -> Optional[str]:
        """Why the deadline expired (``time``/``work``/``chaos``), or None."""
        return self._tripped

    @property
    def ticks(self) -> int:
        return self._ticks

    def elapsed(self) -> float:
        return self._clock() - self._start

    def tick(self, n: int = 1) -> bool:
        """Consume ``n`` work units; True when the budget is exhausted.

        Wall-clock expiry is only consulted every 32nd tick: hot loops
        tick per element, and an unconditional ``time.monotonic`` per
        tick costs more than the work being budgeted.  Work-budget
        expiry is exact, and a direct :meth:`expired` call always checks
        everything.  Nothing else is keyed to ticks: the chaos
        ``deadline`` fault trips at allocator iterations, not here.
        """
        self._ticks += n
        if self._tripped is not None:
            return True
        if self.work is not None and self._ticks > self.work:
            self.trip("work")
            return True
        if self._ticks % 32 < n:
            return self.expired()
        return False

    def expired(self) -> bool:
        if self._tripped is not None:
            return True
        if self.work is not None and self._ticks > self.work:
            self.trip("work")
        elif self.seconds is not None and self.elapsed() > self.seconds:
            self.trip("time")
        return self._tripped is not None

    def check(self, site: str = "deadline") -> None:
        """Raise :class:`DeadlineExpired` when the budget is gone."""
        if self.expired():
            raise DeadlineExpired(site, self)

    def trip(self, reason: str) -> None:
        """Expire now, for ``reason`` (sticky, like every expiry)."""
        self._tripped = reason
        obs.count("resilience.deadline_expired")
        obs.event(
            "resilience.deadline",
            reason=reason,
            elapsed=round(self.elapsed(), 6),
            ticks=self._ticks,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limits = []
        if self.seconds is not None:
            limits.append(f"seconds={self.seconds}")
        if self.work is not None:
            limits.append(f"work={self.work}")
        state = f"tripped={self._tripped!r}" if self._tripped else "live"
        return f"Deadline({', '.join(limits) or 'unlimited'}, {state})"


_STACK: List[Deadline] = []


def active_deadline() -> Optional[Deadline]:
    """The innermost deadline in scope, or None (the fast path)."""
    return _STACK[-1] if _STACK else None


@contextmanager
def deadline_scope(deadline: Optional[Deadline]):
    """Install ``deadline`` for the duration of the block.

    ``None`` is accepted and means "no new budget" so callers can write
    ``with deadline_scope(maybe_deadline):`` unconditionally.
    """
    if deadline is None:
        yield None
        return
    _STACK.append(deadline)
    try:
        yield deadline
    finally:
        _STACK.pop()
