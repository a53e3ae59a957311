"""Unit tests for the dependence DAG."""

import pytest

from repro.graph.dag import CycleError, DependenceDAG, EdgeKind
from repro.ir.instructions import Addr
from repro.ir.parser import parse_trace
from repro.verify import verify_dag


class TestConstruction:
    def test_data_edges_follow_values(self, fig2_dag, fig2_uid_of):
        a, b = fig2_uid_of["A"], fig2_uid_of["B"]
        data = fig2_dag.edge_data(a, b)
        assert data["kind"] is EdgeKind.DATA

    def test_single_root_and_leaf(self, fig2_dag):
        assert len(fig2_dag.preds(fig2_dag.entry)) == 0
        assert len(fig2_dag.succs(fig2_dag.exit)) == 0
        for uid in fig2_dag.op_nodes():
            assert len(fig2_dag.preds(uid)) > 0
            assert len(fig2_dag.succs(uid)) > 0

    def test_invariants_hold(self, fig2_dag):
        verify_dag(fig2_dag).raise_if_errors()

    def test_memory_edges_between_aliasing_stores(self):
        insts = parse_trace(
            "a = 1\nstore [m], a\nb = 2\nstore [m], b"
        )
        dag = DependenceDAG.from_trace(insts)
        stores = [u for u in dag.op_nodes() if dag.instruction(u).is_memory_write]
        assert dag.reaches(stores[0], stores[1])

    def test_no_memory_edges_between_disjoint_cells(self):
        insts = parse_trace("a = 1\nstore [m], a\nb = 2\nstore [m+4], b")
        dag = DependenceDAG.from_trace(insts)
        stores = [u for u in dag.op_nodes() if dag.instruction(u).is_memory_write]
        assert dag.independent(stores[0], stores[1])

    def test_store_load_ordering(self):
        insts = parse_trace("a = 1\nstore [m], a\nv = load [m]\nstore [z], v")
        dag = DependenceDAG.from_trace(insts)
        ops = dag.op_nodes()
        store = next(u for u in ops if str(dag.instruction(u)).startswith("store [m]"))
        load = next(u for u in ops if dag.instruction(u).is_memory_read)
        assert dag.reaches(store, load)

    def test_branches_pinned_in_order(self):
        insts = parse_trace(
            "c = 1\nd = 2\nif c goto L8\nif d goto L9"
        )
        dag = DependenceDAG.from_trace(insts)
        cbrs = [u for u in dag.op_nodes() if dag.instruction(u).op.value == "cbr"]
        assert dag.reaches(cbrs[0], cbrs[1])

    def test_stores_do_not_cross_branches(self):
        insts = parse_trace(
            "a = 1\nstore [m], a\nc = 1\nif c goto L9\nb = 2\nstore [n], b"
        )
        dag = DependenceDAG.from_trace(insts)
        ops = dag.op_nodes()
        branch = next(u for u in ops if dag.instruction(u).op.value == "cbr")
        store_m = next(u for u in ops if str(dag.instruction(u)) == "store [m], a")
        store_n = next(u for u in ops if str(dag.instruction(u)) == "store [n], b")
        assert dag.reaches(store_m, branch)
        assert dag.reaches(branch, store_n)

    def test_live_out_values_used_by_exit(self):
        insts = parse_trace("a = 1\nb = a + 1")
        dag = DependenceDAG.from_trace(insts, live_out=["b"])
        def_b = dag.value_defs["b"]
        assert dag.has_edge(def_b, dag.exit)
        assert dag.live_out == frozenset({"b"})

    def test_live_in_values_defined_by_entry(self):
        insts = parse_trace("b = a + 1\nstore [z], b")
        dag = DependenceDAG.from_trace(insts)
        assert dag.value_defs["a"] == dag.entry

    def test_non_single_assignment_rejected_without_rename(self):
        insts = parse_trace("a = 1\na = 2")
        with pytest.raises(ValueError):
            DependenceDAG.from_trace(insts, rename=False)


class TestQueries:
    def test_reaches_transitive(self, fig2_dag, fig2_uid_of):
        assert fig2_dag.reaches(fig2_uid_of["A"], fig2_uid_of["K"])

    def test_reaches_not_reflexive(self, fig2_dag, fig2_uid_of):
        assert not fig2_dag.reaches(fig2_uid_of["A"], fig2_uid_of["A"])

    def test_independent_nodes(self, fig2_dag, fig2_uid_of):
        assert fig2_dag.independent(fig2_uid_of["E"], fig2_uid_of["G"])
        assert not fig2_dag.independent(fig2_uid_of["D"], fig2_uid_of["G"])

    def test_ancestors_descendants_duality(self, fig2_dag, fig2_uid_of):
        g = fig2_uid_of["G"]
        assert fig2_uid_of["D"] in fig2_dag.ancestors(g)
        assert g in fig2_dag.descendants(fig2_uid_of["D"])

    def test_topological_order_valid(self, fig2_dag):
        order = fig2_dag.topological_order()
        position = {uid: i for i, uid in enumerate(order)}
        for u, v, _ in fig2_dag.edges():
            assert position[u] < position[v]

    def test_asap_alap_bounds(self, fig2_dag):
        asap = fig2_dag.asap()
        alap = fig2_dag.alap()
        for uid in fig2_dag.op_nodes():
            assert asap[uid] <= alap[uid]

    def test_critical_path_fig2(self, fig2_dag):
        # A -> B -> E -> I -> K -> store = 6 unit-latency ops.
        assert fig2_dag.critical_path_length() == 6


class TestMutation:
    def test_add_sequence_edge(self, fig2_dag, fig2_uid_of):
        g, h = fig2_uid_of["G"], fig2_uid_of["H"]
        assert fig2_dag.add_sequence_edge(g, h)
        assert fig2_dag.reaches(g, h)

    def test_cycle_rejected(self, fig2_dag, fig2_uid_of):
        with pytest.raises(CycleError):
            fig2_dag.add_sequence_edge(fig2_uid_of["K"], fig2_uid_of["A"])

    def test_self_edge_rejected(self, fig2_dag, fig2_uid_of):
        with pytest.raises(CycleError):
            fig2_dag.add_sequence_edge(fig2_uid_of["A"], fig2_uid_of["A"])

    def test_redundant_edge_returns_false(self, fig2_dag, fig2_uid_of):
        assert not fig2_dag.add_sequence_edge(
            fig2_uid_of["A"], fig2_uid_of["K"]
        )

    def test_copy_is_independent(self, fig2_dag, fig2_uid_of):
        clone = fig2_dag.copy()
        clone.add_sequence_edge(fig2_uid_of["G"], fig2_uid_of["H"])
        assert clone.reaches(fig2_uid_of["G"], fig2_uid_of["H"])
        assert fig2_dag.independent(fig2_uid_of["G"], fig2_uid_of["H"])

    def test_edge_upgrade_on_copy_leaves_original(self, fig2_dag):
        src, dst = next(
            (u, v) for u, v, d in fig2_dag.edges() if d["kind"] is EdgeKind.SEQ
        )
        original = dict(fig2_dag.edge_data(src, dst))
        clone = fig2_dag.copy()
        clone._add_edge(src, dst, EdgeKind.DATA, value="A")
        assert clone.edge_data(src, dst)["kind"] is EdgeKind.DATA
        assert fig2_dag.edge_data(src, dst) == original

    def test_insert_spill_rewires_uses(self, fig2_dag, fig2_uid_of):
        d = fig2_uid_of["D"]
        uses = [fig2_uid_of["G"], fig2_uid_of["H"]]
        spill, reload, new_name = fig2_dag.insert_spill(
            "D", uses, Addr("%spill", 0)
        )
        verify_dag(fig2_dag).raise_if_errors()
        assert fig2_dag.reaches(d, spill)
        assert fig2_dag.reaches(spill, reload)
        for use in uses:
            assert new_name in set(fig2_dag.instruction(use).uses())
            assert fig2_dag.has_edge(reload, use)

    def test_insert_spill_keeps_acyclic(self, fig2_dag, fig2_uid_of):
        fig2_dag.insert_spill(
            "D", [fig2_uid_of["G"], fig2_uid_of["H"]], Addr("%spill", 0)
        )
        fig2_dag.topological_order()  # raises on cycles

    def test_linearize_is_schedulable(self, fig2_dag):
        from repro.ir.interp import run_trace

        result = run_trace(fig2_dag.linearize(), {("v", 0): 6})
        assert result.stores_to("z") == {0: 25}


class TestVerifierSurfacedRegressions:
    """Fixes surfaced by running ``repro.verify`` over the seed code."""

    def test_repeated_operand_records_one_use(self):
        # `c = b * b` reads b twice but is a single user node; the old
        # from_trace appended the uid once per operand occurrence.
        dag = DependenceDAG.from_trace(
            parse_trace("b = load [x]\nc = b * b\nstore [y], c")
        )
        users = dag.value_uses["b"]
        assert len(users) == len(set(users)) == 1

    def test_repeated_operand_verifies_clean(self):
        dag = DependenceDAG.from_trace(
            parse_trace("b = load [x]\nc = b * b\nstore [y], c")
        )
        assert verify_dag(dag).ok

    def test_insert_spill_accepts_generator_and_duplicates(self):
        dag = DependenceDAG.from_trace(
            parse_trace("a = load [x]\nb = a + 1\nc = a + 2\nstore [y], b\nstore [y+4], c")
        )
        uses = (u for u in [dag.value_defs["b"], dag.value_defs["c"],
                            dag.value_defs["c"]])
        _, reload_uid, new_name = dag.insert_spill("a", uses, Addr("%t", 0))
        verify_dag(dag).raise_if_errors()
        # Duplicated uid in the input must not double-record the use.
        assert dag.value_uses[new_name].count(dag.value_defs["c"]) == 1

    def test_insert_remat_generator_retargets_live_out(self):
        dag = DependenceDAG.from_trace(
            parse_trace("k = 5\na = load [x]\nb = a + k\nstore [y], b"),
            live_out=("k",),
        )
        late = (u for u in [dag.exit])  # generator, consumed once
        new_uid, new_name = dag.insert_remat("k", late)
        verify_dag(dag).raise_if_errors()
        # The rematerialized value must take over the live-out role.
        assert new_name in dag.live_out and "k" not in dag.live_out
        assert dag.has_edge(new_uid, dag.exit)


# ======================================================================
# The version-keyed memo: the topological order is kept across an edge
# that points forward in it, and a rollback restores every entry.
# ======================================================================
def _asap_from_scratch(dag):
    """Latency-free ASAP depths by a DP over a fresh min-uid Kahn order."""
    start = {}
    for uid in dag._topological_order_uncached():
        start[uid] = max(
            (
                start[p] + (0 if dag.instruction(p).is_pseudo else 1)
                for p in dag.preds(uid)
            ),
            default=0,
        )
    return start


def _caches(dag):
    """Every memo entry, ``(version, value)``, by key."""
    return dict(dag._memo)


def _same_entries(memo, cached):
    """Equal entries, each the very object (and value) cached before."""
    return memo == cached and all(
        memo[key] is entry and memo[key][1] is entry[1]
        for key, entry in cached.items()
    )


class TestKeptTopologicalOrder:
    SEEDS = range(12)

    @staticmethod
    def _random_edges(dag, rng, count):
        """Up to ``count`` legal sequence edges, each checked right after
        it is added; returns (consistent, inconsistent, reordering)."""
        from repro.core.reuse import collect_values

        consistent = inconsistent = reordering = 0
        for _ in range(count * 4):
            if consistent + inconsistent >= count:
                break
            ops = dag.op_nodes()
            src, dst = rng.sample(ops, 2)
            if dag.would_cycle(src, dst) or dag.has_edge(src, dst):
                continue
            before = dag.topological_order()
            forward = before.index(src) < before.index(dst)
            dag.add_sequence_edge(src, dst)
            after = dag.topological_order()
            assert after == dag._topological_order_uncached(), (src, dst)
            assert dag.asap() == _asap_from_scratch(dag), (src, dst)
            collect_values(dag)  # warm the values cache too
            if forward:
                consistent += 1
                assert after == before
            else:
                inconsistent += 1
                reordering += after != before
        return consistent, inconsistent, reordering

    def test_order_and_depths_match_a_fresh_sort(self):
        import random

        from repro.core.reuse import collect_values
        from repro.core.transforms.spill import spill_slot_for
        from repro.workloads.random_dags import random_layered_trace

        totals = [0, 0, 0]
        for seed in self.SEEDS:
            rng = random.Random(seed)
            dag = DependenceDAG.from_trace(
                random_layered_trace(n_ops=16, width=5, seed=seed)
            )
            # Outside a transaction.
            for i, n in enumerate(self._random_edges(dag, rng, 4)):
                totals[i] += n
            # Inside a transaction, rolled back: every cache as before.
            dag.topological_order()
            dag.asap()
            collect_values(dag)
            cached = _caches(dag)
            version = dag.version
            txn = dag.begin_transaction()
            for i, n in enumerate(self._random_edges(dag, rng, 4)):
                totals[i] += n
            if seed % 2:
                # A node insertion, then more edges on the grown DAG.
                name, def_uid = next(
                    (n, u) for n, u in sorted(dag.value_defs.items())
                    if u != dag.entry and dag.value_uses.get(n)
                )
                dag.insert_spill(
                    name, dag.value_uses[name][-1:],
                    spill_slot_for(dag, def_uid),
                )
                assert dag.topological_order() == (
                    dag._topological_order_uncached()
                )
                for i, n in enumerate(self._random_edges(dag, rng, 3)):
                    totals[i] += n
            txn.rollback()
            assert dag.version == version
            assert _caches(dag) == cached, seed
            assert _same_entries(dag._memo, cached), seed
            assert dag.topological_order() == dag._topological_order_uncached()
            assert dag.asap() == _asap_from_scratch(dag)
        consistent, inconsistent, reordering = totals
        # Both kinds of edge ran, and some inconsistent edges really
        # moved the order (so keeping it for one would be caught).
        assert consistent >= 20 and inconsistent >= 20, totals
        assert reordering >= 5, totals

    def test_copy_carries_a_current_order_and_depths(self):
        from repro.workloads.random_dags import random_layered_trace

        dag = DependenceDAG.from_trace(
            random_layered_trace(n_ops=16, width=5, seed=3)
        )
        order, depths = dag.topological_order(), dag.asap()
        clone = dag.copy()
        assert clone.version != dag.version
        assert clone._memo["topo"][0] == clone.version
        assert clone._memo["asap"][0] == clone.version
        assert clone.topological_order() == order
        assert clone.topological_order() == clone._topological_order_uncached()
        assert clone.asap() == depths == _asap_from_scratch(clone)
        # A stale cache is not carried.
        src, dst = next(
            (a, b) for a in dag.op_nodes() for b in dag.op_nodes()
            if a != b and not dag.would_cycle(a, b) and not dag.reaches(a, b)
        )
        dag.add_sequence_edge(src, dst)
        dag._memo = {key: (-1, value) for key, (_, value) in dag._memo.items()}
        clone = dag.copy()
        assert "topo" not in clone._memo and "asap" not in clone._memo


# ======================================================================
# One memo for every analysis derived from a DAG version.
# ======================================================================
_PROBE = object()


def _aliasing_trace(seed):
    """A random trace whose loads and stores share one base, so some
    loads may alias a store and others provably do not."""
    import random

    rng = random.Random(seed)
    lines = [f"v{i} = load [m+{rng.randrange(6)}]" for i in range(4)]
    names = [f"v{i}" for i in range(4)]
    lines.append("k = 7")
    names.append("k")
    for i in range(6):
        a, b = rng.sample(names, 2)
        lines.append(f"w{i} = {a} + {b}")
        names.append(f"w{i}")
    for offset in rng.sample(range(8), 3):
        lines.append(f"store [m+{offset}], {rng.choice(names[5:])}")
    return parse_trace("\n".join(lines))


def _fresh_rematerializable(dag, name):
    """``is_rematerializable`` by a fresh scan over ``op_nodes()``."""
    from repro.ir.opcodes import Opcode

    def_uid = dag.value_defs.get(name)
    if def_uid is None or def_uid == dag.entry:
        return False
    inst = dag.instruction(def_uid)
    if inst.op is not Opcode.LOAD:
        return inst.op is Opcode.CONST
    return not any(
        other.is_memory_write
        and other.addr is not None
        and other.addr.may_alias(inst.addr)
        for other in map(dag.instruction, dag.op_nodes())
    )


def _random_edge(dag, rng):
    """Add one legal sequence edge between random op nodes, if any."""
    for _ in range(20):
        src, dst = rng.sample(dag.op_nodes(), 2)
        if not dag.would_cycle(src, dst) and not dag.has_edge(src, dst):
            dag.add_sequence_edge(src, dst)
            return


def _spillable(dag, prefer=lambda name: False):
    """A value with a real definition and uses: (name, def uid), the
    first one ``prefer`` accepts if there is one."""
    found = [
        (n, u) for n, u in sorted(dag.value_defs.items())
        if u != dag.entry
        and dag.value_uses.get(n)
        and dag.instruction(u).dest == n
    ]
    return next((c for c in found if prefer(c[0])), found[0])


def _safe_load(dag):
    """A predicate: ``name`` is a load ``is_rematerializable`` accepts."""
    from repro.core.transforms.remat import is_rematerializable
    from repro.ir.opcodes import Opcode

    return lambda name: (
        dag.instruction(dag.value_defs[name]).op is Opcode.LOAD
        and is_rematerializable(dag, name)
    )


def _check_memo(dag, machine):
    """The memo answers only from entries stamped with the current
    version, and every analysis it answers equals a fresh one."""
    from repro.core.reuse import collect_values
    from repro.core.transforms.remat import is_rematerializable
    from repro.graph.hammock import HammockAnalysis

    for key, (version, value) in list(dag._memo.items()):
        expected = value if version == dag.version else _PROBE
        assert dag.derived(key, lambda: _PROBE) is expected, key
    dag._memo = {k: e for k, e in dag._memo.items() if e[1] is not _PROBE}

    order = dag._topological_order_uncached()
    assert dag.topological_order() == order
    assert dag.op_nodes() == [u for u in order if u not in (dag.entry, dag.exit)]
    assert dag.asap() == _asap_from_scratch(dag)
    memoized, fresh = HammockAnalysis.of(dag), HammockAnalysis(dag)
    assert (memoized.order, memoized.dom, memoized.pdom) == (
        fresh.order, fresh.dom, fresh.pdom
    )
    assert collect_values(dag, machine) == collect_values(dag.copy(), machine)
    for name in sorted(dag.value_defs):
        assert is_rematerializable(dag, name) == (
            _fresh_rematerializable(dag, name)
        ), name
    assert all(version == dag.version for version, _ in dag._memo.values())


class TestOneMemo:
    def test_rollback_restores_the_committed_hammocks(self):
        from repro.graph.hammock import HammockAnalysis
        from repro.workloads.random_dags import random_layered_trace

        dag = DependenceDAG.from_trace(
            random_layered_trace(n_ops=16, width=5, seed=0)
        )
        committed = HammockAnalysis.of(dag)
        txn = dag.begin_transaction()
        src, dst = next(
            (a, b) for a in dag.op_nodes() for b in dag.op_nodes()
            if a != b and not dag.would_cycle(a, b) and not dag.reaches(a, b)
        )
        dag.add_sequence_edge(src, dst)
        assert HammockAnalysis.of(dag) is not committed
        txn.rollback()
        assert HammockAnalysis.of(dag) is committed

    def test_memo_never_answers_from_another_version(self):
        import random

        from repro.core.transforms.spill import spill_slot_for
        from repro.machine.model import MachineModel
        from repro.workloads.random_dags import random_layered_trace

        machine = MachineModel.homogeneous(2, 4)
        safe_load_remats = 0
        for seed in range(50):
            rng = random.Random(seed)
            trace = (
                random_layered_trace(n_ops=12, width=4, seed=seed)
                if seed % 2 else _aliasing_trace(seed)
            )
            dag = DependenceDAG.from_trace(trace)
            _check_memo(dag, machine)
            # Outside a transaction.
            for _ in range(3):
                _random_edge(dag, rng)
                _check_memo(dag, machine)
            # Inside one, with a node insertion, then rolled back.
            cached = _caches(dag)
            txn = dag.begin_transaction()
            _random_edge(dag, rng)
            _check_memo(dag, machine)
            spill = seed % 4 < 2
            # Remat a load when one is safe, as the allocator would.
            safe = _safe_load(dag)
            name, def_uid = _spillable(dag, safe)
            late = dag.value_uses[name][-1:]
            if spill:
                dag.insert_spill(name, late, spill_slot_for(dag, def_uid))
            else:
                safe_load_remats += safe(name)
                dag.insert_remat(name, late)
            _check_memo(dag, machine)
            _random_edge(dag, rng)
            _check_memo(dag, machine)
            txn.rollback()
            assert _same_entries(dag._memo, cached), seed
            _check_memo(dag, machine)
        assert safe_load_remats >= 10, safe_load_remats

    def test_remat_of_an_aliasing_load_follows_the_stores(self):
        from repro.core.transforms.remat import is_rematerializable
        from repro.ir.opcodes import Opcode

        cloned = 0
        for seed in range(20):
            dag = DependenceDAG.from_trace(_aliasing_trace(seed))
            name = next((
                n for n in sorted(dag.value_defs) if dag.value_uses.get(n)
                and dag.instruction(dag.value_defs[n]).op is Opcode.LOAD
                and not is_rematerializable(dag, n)
            ), None)
            if name is None:
                continue
            addr = dag.instruction(dag.value_defs[name]).addr
            writes = [w for w, a in dag.memory_writes() if a.may_alias(addr)]
            # Only a use no aliasing write depends on can move after them.
            late = [
                u for u in dag.value_uses[name]
                if not any(u == w or dag.reaches(u, w) for w in writes)
            ][-1:]
            if not late:
                continue
            txn = dag.begin_transaction()
            uid, _ = dag.insert_remat(name, late)
            assert all(dag.reaches(w, uid) for w in writes), seed
            txn.rollback()
            assert uid not in dag
            cloned += 1
        assert cloned >= 10, cloned

    def test_rematerializable_matches_a_fresh_store_scan(self):
        from repro.core.transforms.remat import is_rematerializable
        from repro.ir.opcodes import Opcode

        def check(dag):
            answers = {}
            for name in sorted(dag.value_defs):
                answers[name] = is_rematerializable(dag, name)
                assert answers[name] == _fresh_rematerializable(dag, name)
            return answers

        loads = flipped = 0
        for seed in range(40):
            dag = DependenceDAG.from_trace(_aliasing_trace(seed))
            before = check(dag)
            safe = [
                name for name, ok in before.items()
                if ok and dag.instruction(dag.value_defs[name]).op is Opcode.LOAD
            ]
            loads += sum(
                dag.instruction(dag.value_defs[n]).op is Opcode.LOAD
                for n in before
            )
            txn = dag.begin_transaction()
            name, _ = _spillable(dag)
            # Spill into a safe load's cell: that load may no longer be
            # re-executed while the transaction stands.
            cell = dag.instruction(dag.value_defs[safe[0]]).addr if safe else None
            if cell is not None:
                dag.insert_spill(name, dag.value_uses[name][-1:], cell)
                inside = check(dag)
                assert not inside[safe[0]], seed
                flipped += 1
            txn.rollback()
            assert check(dag) == before, seed
        # The traces exercise both answers for loads.
        assert 0 < flipped < loads, (flipped, loads)
