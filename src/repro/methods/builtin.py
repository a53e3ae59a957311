"""Built-in backend declarations.

The nine legacy methods (URSA policies + baselines), the exact
branch-and-bound solver, and the portfolio racer, each declared once
and registered into :mod:`repro.methods`.  Registration order here is
the public method order (``repro.pipeline.METHODS``, CLI choice lists,
the ``/v1/stats`` catalogue).

Schedule passes late-import their scheduler modules so importing the
registry stays cheap and cycle-free (``repro.pipeline`` itself imports
this package).
"""

from __future__ import annotations

from repro.core.allocator import Policy
from repro.methods import Backend, ScheduleOutcome, register


# ----------------------------------------------------------------------
# Baseline schedule passes: (dag, machine, backend_options) ->
# ScheduleOutcome; none of them rewrites the DAG.
# ----------------------------------------------------------------------
def _schedule_prepass(dag, machine, options) -> ScheduleOutcome:
    from repro.scheduling.prepass import compile_prepass

    return ScheduleOutcome(compile_prepass(dag, machine), dag)


def _schedule_postpass(dag, machine, options) -> ScheduleOutcome:
    from repro.scheduling.postpass import compile_postpass

    return ScheduleOutcome(compile_postpass(dag, machine), dag)


def _schedule_goodman_hsu(dag, machine, options) -> ScheduleOutcome:
    from repro.scheduling.goodman_hsu import compile_goodman_hsu

    return ScheduleOutcome(compile_goodman_hsu(dag, machine), dag)


def _schedule_naive(dag, machine, options) -> ScheduleOutcome:
    # Allocate on source order, pack without reordering.
    from repro.scheduling.packer import pack_in_order
    from repro.scheduling.regalloc import LinearScanAllocator

    order = dag.source_order or sorted(dag.op_nodes())
    source_insts = [dag.instruction(uid) for uid in order]
    live_ins = sorted(
        name for name, d in dag.value_defs.items() if d == dag.entry
    )
    outcome = LinearScanAllocator(machine).run(
        source_insts, live_ins=live_ins, live_outs=sorted(dag.live_out)
    )
    return ScheduleOutcome(
        pack_in_order(outcome.instructions, machine, outcome), dag
    )


def _schedule_spill_everywhere(dag, machine, options) -> ScheduleOutcome:
    from repro.resilience.fallback import spill_everywhere_schedule

    return ScheduleOutcome(spill_everywhere_schedule(dag, machine), dag)


def _schedule_bnb(dag, machine, options) -> ScheduleOutcome:
    from repro.methods.bnb import run_bnb_pass

    return run_bnb_pass(dag, machine, options)


def _schedule_portfolio(dag, machine, options) -> ScheduleOutcome:
    from repro.methods.portfolio import run_portfolio_pass

    return run_portfolio_pass(dag, machine, options)


# ----------------------------------------------------------------------
# URSA allocator family.  Ladders are byte-equal to the pre-registry
# `_LADDER` tuples in repro.resilience.fallback.
# ----------------------------------------------------------------------
register(Backend(
    name="ursa",
    summary="URSA integrated register+FU measurement/reduction allocator",
    anytime=True,
    default_compare=True,
    fallback="ursa-phased",
    cost_hint=80,
    policy=Policy.INTEGRATED,
))
register(Backend(
    name="ursa-phased",
    summary="URSA with registers reduced to feasibility before FUs",
    anytime=True,
    fallback="ursa-spill",
    cost_hint=70,
    policy=Policy.PHASED,
))
register(Backend(
    name="ursa-seq",
    summary="URSA restricted to sequentialization transforms (no spills)",
    anytime=True,
    can_spill=False,
    fallback="ursa-spill",
    cost_hint=60,
    policy=Policy.SEQ_ONLY,
))
register(Backend(
    name="ursa-spill",
    summary="URSA restricted to spill transforms",
    anytime=True,
    fallback="spill-everywhere",
    cost_hint=60,
    policy=Policy.SPILL_ONLY,
))

# ----------------------------------------------------------------------
# Baselines.
# ----------------------------------------------------------------------
register(Backend(
    name="prepass",
    summary="schedule first (list scheduler), then allocate registers",
    default_compare=True,
    fallback="spill-everywhere",
    cost_hint=30,
    schedule_pass=_schedule_prepass,
))
register(Backend(
    name="postpass",
    summary="allocate registers first, then schedule under the bindings",
    default_compare=True,
    fallback="spill-everywhere",
    cost_hint=40,
    schedule_pass=_schedule_postpass,
))
register(Backend(
    name="goodman-hsu",
    summary="Goodman-Hsu integrated DAG scheduling/allocation baseline",
    default_compare=True,
    fallback="spill-everywhere",
    cost_hint=35,
    schedule_pass=_schedule_goodman_hsu,
))
register(Backend(
    name="naive",
    summary="source-order packing with linear-scan registers",
    fallback="spill-everywhere",
    cost_hint=20,
    schedule_pass=_schedule_naive,
))
register(Backend(
    name="spill-everywhere",
    summary="every value through memory; the always-feasible terminal rung",
    always_feasible=True,
    cost_hint=10,
    schedule_pass=_schedule_spill_everywhere,
))

# ----------------------------------------------------------------------
# Combinatorial backends (this PR; see docs/backends.md).
# ----------------------------------------------------------------------
register(Backend(
    name="bnb-exact",
    summary="branch-and-bound exact allocator+scheduler (proves "
    "optimality on small traces)",
    exact=True,
    anytime=True,
    can_spill=False,
    fallback="ursa",
    cost_hint=900,
    schedule_pass=_schedule_bnb,
))
register(Backend(
    name="portfolio",
    summary="run a backend set serially, cheapest first, under a shared "
    "deadline; fewest cycles wins",
    anytime=True,
    fallback="spill-everywhere",
    cost_hint=500,
    schedule_pass=_schedule_portfolio,
))
