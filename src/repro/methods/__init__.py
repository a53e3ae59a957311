"""``repro.methods`` — the declarative compilation-backend registry.

Every compilation method the system knows is a :class:`Backend` object
registered here, declaring in one place everything the five dispatch
layers used to hard-code separately:

* **pipeline** — ``repro.pipeline`` resolves a backend and runs either
  its URSA :attr:`Backend.policy` (the allocate + assign phases) or its
  :attr:`Backend.schedule_pass` (baselines, the exact solver, the
  portfolio racer), which returns a :class:`ScheduleOutcome`;
* **fallback** — ``repro.resilience.fallback`` derives its escalation
  ladder from each backend's declared :attr:`Backend.fallback`
  successor instead of a hard-coded tuple;
* **cli** — every ``--method`` choice list is :func:`method_names`;
* **serve** — the wire protocol validates methods against the registry
  and publishes :func:`catalogue` under ``/v1/stats``;
* **analyze** — doomed-rung prediction reasons over capability flags
  (:attr:`Backend.can_spill`, :attr:`Backend.always_feasible`) instead
  of matching method names.

Adding a backend is one :func:`register` call; nothing else in the
tree needs to change (``docs/backends.md`` walks through it).

Capability flags
----------------

``exact``            the backend proves optimality when it terminates;
``always_feasible``  the backend succeeds on any trace whose pinned
                     live-in/live-out sets fit the register file (the
                     ladder's terminal rung must set this);
``anytime``          under an expiring :class:`~repro.resilience.Deadline`
                     the backend returns its best-so-far answer instead
                     of raising;
``can_spill``        the backend may insert spill code.  Backends with
                     ``can_spill=False`` are provably doomed whenever
                     the static register-pressure floor exceeds the
                     register file (``repro.analyze.bounds``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)


class UnknownMethodError(LookupError):
    """A method name the registry has never heard of.

    Raised at registry-resolution time; carries the offending name and
    the known-method list so every layer (CLI exit 2, serve
    ``bad_request``, pipeline :class:`~repro.pipeline.PipelineError`)
    can render the same structured diagnostic.
    """

    def __init__(self, method: str, known: Sequence[str]) -> None:
        self.method = method
        self.known = tuple(known)
        super().__init__(
            f"unknown method {method!r}; known methods: "
            + ", ".join(self.known)
        )

    def __str__(self) -> str:  # LookupError would repr() the args tuple
        return self.args[0]


class ScheduleOutcome(NamedTuple):
    """What a backend's schedule pass returns to the pipeline."""

    schedule: Any
    #: the DAG the schedule was built from (the input DAG unless the
    #: backend rewrote it).
    final_dag: Any
    #: the URSA allocation behind the schedule, if any.
    allocation: Any = None
    #: backend-specific attribution (exact-search certificate,
    #: portfolio win report), surfaced as ``backend_report``.
    backend_report: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class Backend:
    """One compilation method: capabilities, ladder position, entrypoint.

    Exactly one of :attr:`policy` (URSA allocator methods) or
    :attr:`schedule_pass` (every other method) must be set; the
    pipeline dispatches on which.
    """

    name: str
    summary: str
    # -- capabilities ---------------------------------------------------
    exact: bool = False
    always_feasible: bool = False
    anytime: bool = False
    can_spill: bool = True
    # -- registry tags --------------------------------------------------
    #: member of the default ``compare_methods`` / ``repro compare`` set.
    default_compare: bool = False
    #: next rung of the escalation ladder (None terminates it).
    fallback: Optional[str] = None
    #: relative expected cost (lower = cheaper); orders the portfolio's
    #: serial degradation path and breaks winner ties deterministically.
    cost_hint: int = 100
    # -- entrypoints ----------------------------------------------------
    #: URSA allocator policy (``repro.core.allocator.Policy``) or None.
    policy: Optional[object] = None
    #: pipeline schedule pass: ``(dag, machine, backend_options) ->``
    #: :class:`ScheduleOutcome`.
    schedule_pass: Optional[
        Callable[[Any, Any, Dict[str, Any]], ScheduleOutcome]
    ] = None

    def __post_init__(self) -> None:
        if (self.policy is None) == (self.schedule_pass is None):
            raise ValueError(
                f"backend {self.name!r} must set exactly one of "
                "policy / schedule_pass"
            )

    # ------------------------------------------------------------------
    def ladder(self) -> Tuple[str, ...]:
        """This backend's escalation ladder: itself, then the declared
        fallback successors down to the always-feasible terminal rung."""
        rungs: List[str] = [self.name]
        cursor = self.fallback
        while cursor is not None:
            if cursor in rungs:
                raise ValueError(
                    f"fallback cycle through {cursor!r} in backend "
                    f"{self.name!r}"
                )
            rungs.append(cursor)
            cursor = resolve(cursor).fallback
        return tuple(rungs)

    def capabilities(self) -> Dict[str, bool]:
        return {
            "exact": self.exact,
            "always_feasible": self.always_feasible,
            "anytime": self.anytime,
            "can_spill": self.can_spill,
        }

    def to_dict(self) -> Dict[str, Any]:
        """The catalogue entry served under ``/v1/stats`` and emitted by
        ``repro compare --json``."""
        return {
            "name": self.name,
            "summary": self.summary,
            "capabilities": self.capabilities(),
            "default_compare": self.default_compare,
            "fallback": self.fallback,
            "ladder": list(self.ladder()),
            "cost_hint": self.cost_hint,
        }


# ======================================================================
# The registry.
# ======================================================================
_REGISTRY: Dict[str, Backend] = {}
_ORDER: List[str] = []


def register(backend: Backend) -> Backend:
    """Add ``backend`` to the registry (import-time; duplicate = bug)."""
    if backend.name in _REGISTRY:
        raise ValueError(f"backend {backend.name!r} registered twice")
    _REGISTRY[backend.name] = backend
    _ORDER.append(backend.name)
    return backend


def resolve(method: str) -> Backend:
    """The backend registered under ``method``.

    Raises :class:`UnknownMethodError` (with the known-method list) for
    names the registry has never seen — the structured diagnostic every
    dispatch layer renders.
    """
    try:
        return _REGISTRY[method]
    except KeyError:
        raise UnknownMethodError(method, _ORDER) from None


def backends() -> Tuple[Backend, ...]:
    """Every registered backend, in registration order."""
    return tuple(_REGISTRY[name] for name in _ORDER)


def method_names() -> Tuple[str, ...]:
    """Every registered method name, in registration order.

    This is the single source for ``repro.pipeline.METHODS`` and every
    CLI ``--method`` choice list.
    """
    return tuple(_ORDER)


def default_compare_methods() -> Tuple[str, ...]:
    """Methods tagged ``default_compare=True`` — the default set for
    ``compare_methods`` and ``repro compare``."""
    return tuple(
        name for name in _ORDER if _REGISTRY[name].default_compare
    )


def ladder_for(method: str) -> Tuple[str, ...]:
    """The escalation-ladder rung sequence for a requested method.

    Derived from each backend's declared :attr:`Backend.fallback`
    successor; unknown methods raise :class:`UnknownMethodError`
    instead of silently degrading to ``(method, "spill-everywhere")``.
    """
    return resolve(method).ladder()


def catalogue() -> List[Dict[str, Any]]:
    """Machine-readable registry dump (``/v1/stats``, ``compare --json``)."""
    return [backend.to_dict() for backend in backends()]


__all__ = [
    "Backend",
    "ScheduleOutcome",
    "UnknownMethodError",
    "backends",
    "catalogue",
    "default_compare_methods",
    "ladder_for",
    "method_names",
    "register",
    "resolve",
]

# Built-in backends register themselves on import: the legacy nine, the
# exact branch-and-bound solver, and the portfolio racer.
from repro.methods import builtin as _builtin  # noqa: E402,F401
