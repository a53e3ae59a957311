"""Widths on demand: a measurement decides fit from two Dilworth bounds
and runs a matching only when a reader needs the exact number."""

import pickle
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs, reference
from repro.core.measure import ResourceKind, ResourceRequirement, measure_all
from repro.graph import bitset
from repro.graph.dag import DependenceDAG
from repro.graph.dilworth import (
    closure_from_dag_pairs,
    greedy_matching,
    width,
    width_bounds,
    width_matching,
)
from repro.ir.opcodes import Opcode
from repro.machine import preset
from repro.machine.model import MachineConfigError, MachineModel
from repro.machine.presets import PRESETS
from repro.pipeline import compile_trace
from repro.workloads.kernels import kernel
from repro.workloads.random_dags import (
    random_layered_trace,
    random_series_parallel,
    random_wide_trace,
)


def random_order(n, density, seed):
    rng = random.Random(seed)
    covers = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return closure_from_dag_pairs(range(n), covers)


def requirement_of(order, available):
    """A bare requirement over ``order``, as a measurement builds one."""
    return ResourceRequirement(
        kind=ResourceKind.FUNCTIONAL_UNIT,
        cls="any",
        available=available,
        order=order,
        element_node={e: e for e in order.elements},
    )


def _is_matching(masks, match_left):
    rights = [j for j in match_left if j >= 0]
    return len(rights) == len(set(rights)) and all(
        masks[i] >> j & 1 for i, j in enumerate(match_left) if j >= 0
    )


# ======================================================================
# (a) The bounds, and the excess they decide.
# ======================================================================
@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, 2**30),
    st.integers(0, 24),
    st.floats(0.0, 0.6),
)
def test_bounds_bracket_the_width(seed, n, density):
    order = random_order(n, density, seed)
    exact = width(order)
    lower, upper, greedy = width_bounds(order.masks)
    assert lower <= exact <= upper
    assert _is_matching(order.masks, greedy)
    assert n - greedy.count(-1) == n - upper
    # Kuhn warm-started from the greedy matching ends at a maximum one.
    warm, matching = width_matching(order.masks, greedy)
    assert warm == exact
    assert _is_matching(order.masks, matching)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 20), st.floats(0.0, 0.6))
def test_bound_decided_excess_is_exact(seed, n, density):
    order = random_order(n, density, seed)
    exact = width(order)
    for available in range(n + 2):
        expected = max(0, exact - available)
        fresh = requirement_of(order, available)
        assert fresh.excess == expected
        assert fresh.is_excessive == (expected > 0)
        # ``available`` rewritten after the measurement (chaos, the
        # transactional audit) is read anew, whether or not the exact
        # width has been computed meanwhile.
        for resolved in (False, True):
            req = requirement_of(order, available)
            if resolved:
                assert req.required == exact
            for rewritten in range(n + 2):
                req.available = rewritten
                assert req.excess == max(0, exact - rewritten)
                assert req.is_excessive == (exact > rewritten)


def test_greedy_extends_a_given_matching():
    order = random_order(12, 0.3, seed=4)
    start = [-1] * 12
    size, matching = greedy_matching(order.masks, start)
    assert (size, matching) == greedy_matching(order.masks)
    kept = [j if i % 2 else -1 for i, j in enumerate(matching)]
    extended_size, extended = greedy_matching(order.masks, kept)
    assert _is_matching(order.masks, extended)
    assert all(extended[i] == j for i, j in enumerate(kept) if j >= 0)
    assert extended_size == 12 - extended.count(-1)


# ======================================================================
# (b) A roomy compile runs no maximum matcher at all.
# ======================================================================
def test_roomy_compile_runs_no_matcher(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a fitting compile ran a maximum matching")

    monkeypatch.setattr(bitset.BitsetKuhn, "__init__", refuse)
    machine = MachineModel.homogeneous(128, 512)
    for source in (
        kernel("figure2"),
        random_layered_trace(n_ops=256, width=8, seed=5),
    ):
        with obs.capture() as trace:
            result = compile_trace(source, machine, method="ursa")
        assert result.verified is True
        assert not result.allocation.records
        counters = trace.counters
        assert counters["measure.bound_fit"] == 1 + len(machine.registers)
        assert "measure.width_matched" not in counters


# ======================================================================
# (c) An excessive class whose chains are read first matches once.
# ======================================================================
def test_chains_read_first_give_the_width(monkeypatch, fig2_dag):
    requirements = measure_all(fig2_dag, MachineModel.homogeneous(2, 3))
    widths = [width(r.order) for r in requirements]
    built = [0]
    init = bitset.BitsetKuhn.__init__

    def counting_init(matcher, n):
        built[0] += 1
        init(matcher, n)

    monkeypatch.setattr(bitset.BitsetKuhn, "__init__", counting_init)
    for requirement, exact in zip(requirements, widths):
        before = built[0]
        chains = requirement.decomposition.chains
        assert requirement.is_excessive
        assert requirement.required == len(chains) == exact
        assert requirement.excess == len(chains) - requirement.available
        matching = requirement.matching
        assert _is_matching(requirement.order.masks, matching)
        assert len(matching) - matching.count(-1) == (
            len(matching) - requirement.required
        )
        assert built[0] - before == 1


def test_allocator_reads_chains_before_widths(monkeypatch, fig2_dag):
    from repro.core.allocator import URSAAllocator

    built = [0]
    init = bitset.BitsetKuhn.__init__

    def counting_init(matcher, n):
        built[0] += 1
        init(matcher, n)

    monkeypatch.setattr(bitset.BitsetKuhn, "__init__", counting_init)
    allocator = URSAAllocator(MachineModel.homogeneous(2, 3))
    with obs.capture() as trace:
        requirements = allocator._measure(fig2_dag)
        excesses = [r.excess for r in requirements]
    assert excesses == [2, 2]
    fu, reg = requirements
    # The FU class straddles its bounds (1 <= 2 < 4): one width matching
    # decides it, then its chains are built.  The register class is
    # bound-excessive (4 > 3) and reads its width off its chains.
    assert (fu.lower, fu.upper, reg.lower) == (1, 4, 4)
    counters = trace.counters
    assert counters["measure.bound_excessive"] == 1
    assert counters["measure.width_matched"] == 1
    assert counters["dilworth.decompositions"] == 2
    assert built[0] == 3
    assert trace.peaks["measure.fu_width_peak"] == 4
    assert trace.peaks["measure.reg_width_peak"] == 5


# ======================================================================
# (d) ``required`` inside a trial transaction.
# ======================================================================
def test_required_inside_a_transaction(fig2_dag):
    from repro.core.measure import StaleMeasurementError

    requirements = measure_all(fig2_dag, MachineModel.homogeneous(2, 3))
    expected = [width(r.order) for r in requirements]
    order = fig2_dag.topological_order()
    txn = fig2_dag.begin_transaction()
    try:
        fig2_dag.add_sequence_edge(order[0], order[-1], reason="test")
        assert [r.required for r in requirements] == expected
        for requirement in requirements:
            with pytest.raises(StaleMeasurementError):
                requirement.decomposition
    finally:
        txn.rollback()


# ======================================================================
# (e) The reference oracle agrees on every class.
# ======================================================================
def _traces():
    for seed in range(6):
        yield random_layered_trace(n_ops=24, width=5, seed=seed)
    for seed in range(3):
        yield random_series_parallel(
            n_blocks=3, block_width=3, block_depth=2, seed=seed
        )
    for seed in range(3):
        yield random_wide_trace(n_chains=5, chain_length=3, seed=seed)


@pytest.mark.parametrize("machine_name", ["h2x6", "h8x16", "cydra", "dsp"])
def test_reference_agrees_on_every_class(machine_name):
    machine = {
        "h2x6": lambda: MachineModel.homogeneous(2, 6),
        "h8x16": lambda: MachineModel.homogeneous(8, 16),
        "cydra": lambda: preset("cydra"),
        "dsp": lambda: preset("dsp"),
    }[machine_name]()
    for index, trace in enumerate(_traces()):
        dag = DependenceDAG.from_trace(trace)
        production = measure_all(dag, machine)
        oracle = reference.measure_all(dag, machine)
        assert [(r.kind, r.cls, r.excess) for r in production] == [
            (r.kind, r.cls, r.excess) for r in oracle
        ], index
        assert [r.required for r in production] == [
            r.required for r in oracle
        ], index


# ======================================================================
# The per-opcode FU table.
# ======================================================================
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_fu_table_is_first_match_and_not_state(name):
    machine = preset(name)
    for op in Opcode:
        first = next(
            (fu for fu in machine.fu_classes if fu.executes(op)), None
        )
        if first is None:
            with pytest.raises(MachineConfigError):
                machine.fu_class_for(op)
        else:
            assert machine.fu_class_for(op) is first
    for fu in machine.fu_classes:
        assert machine.fu_class(fu.name) is fu
    dag = DependenceDAG.from_trace(kernel("figure2"))
    for uid in dag.nodes():
        inst = dag.instruction(uid)
        expected = 0 if inst.is_pseudo else machine.fu_class_for(inst.op).latency
        assert machine.latency_of(inst) == expected
    # The tables are not fields: equality, hashing and pickled state are
    # the fields', and an unpickled machine refills them.
    state = machine.__getstate__()
    assert list(state) == [f.name for f in fields(machine)]
    clone = pickle.loads(pickle.dumps(machine))
    assert clone == machine
    for op in Opcode:
        if any(fu.executes(op) for fu in machine.fu_classes):
            assert clone.fu_class_for(op) == machine.fu_class_for(op)
