"""Unit tests for Kill() selection (paper §3.2, Theorem 2)."""

import pytest

from repro.core.kill import (
    _exact_min_cover,
    _greedy_min_cover,
    candidate_killers,
    select_kill,
)
from repro.core.reuse import collect_values
from repro.graph.dag import DependenceDAG
from repro.ir.parser import parse_trace


class TestCandidateKillers:
    def test_single_use(self, fig2_dag, fig2_uid_of):
        values = {v.name: v for v in collect_values(fig2_dag)}
        assert candidate_killers(fig2_dag, values["E"]) == [fig2_uid_of["I"]]

    def test_independent_uses_all_candidates(self, fig2_dag, fig2_uid_of):
        values = {v.name: v for v in collect_values(fig2_dag)}
        assert set(candidate_killers(fig2_dag, values["A"])) == {
            fig2_uid_of["B"], fig2_uid_of["C"], fig2_uid_of["D"]
        }

    def test_ordered_uses_only_maximal(self):
        dag = DependenceDAG.from_trace(
            parse_trace("a = 1\nb = a + 1\nc = a + b\nstore [z], c")
        )
        values = {v.name: v for v in collect_values(dag)}
        # `a` is used by b's def and c's def, but b -> c, so only c's
        # definition can execute last.
        (candidate,) = candidate_killers(dag, values["a"])
        assert dag.instruction(candidate).dest == "c"


class TestSelectKill:
    def test_fig2_shared_killer(self, fig2_dag, fig2_uid_of):
        """The paper's difficult case: B and C must share one killer so
        that B, C and a third value can be simultaneously live."""
        values = collect_values(fig2_dag)
        kill = select_kill(fig2_dag, values)
        assert kill["B"] == kill["C"]
        assert kill["B"] in (fig2_uid_of["E"], fig2_uid_of["F"])

    def test_fig2_contested_values(self, fig2_dag):
        values = collect_values(fig2_dag)
        kill = select_kill(fig2_dag, values)
        assert kill.contested == frozenset("ABCD")
        assert kill.exact

    def test_forced_killers(self, fig2_dag, fig2_uid_of):
        values = collect_values(fig2_dag)
        kill = select_kill(fig2_dag, values)
        assert kill["E"] == fig2_uid_of["I"]
        assert kill["J"] == fig2_uid_of["K"]

    def test_dead_value_killed_by_own_def(self):
        dag = DependenceDAG.from_trace(parse_trace("a = 1\nb = 2\nstore [z], b"))
        values = collect_values(dag)
        kill = select_kill(dag, values)
        assert kill["a"] == dag.value_defs["a"]

    def test_live_out_killed_by_exit(self):
        dag = DependenceDAG.from_trace(parse_trace("a = 1"), live_out=["a"])
        values = collect_values(dag)
        kill = select_kill(dag, values)
        assert kill["a"] == dag.exit

    def test_greedy_fallback_on_large_instances(self, fig2_dag):
        values = collect_values(fig2_dag)
        kill = select_kill(fig2_dag, values, exact_limit=0)
        # Greedy still produces a complete assignment.
        assert set(kill.keys()) == {v.name for v in values}
        assert not kill.exact


class TestDepthsOnlyOnTies:
    """``select_kill`` reads ASAP depths only to break a tie between two
    chosen killers of one value."""

    def test_single_pick_never_builds_depths(self, monkeypatch):
        # ``a`` has two independent maximal uses; the cover picks one.
        dag = DependenceDAG.from_trace(parse_trace(
            "a = load [A]\nb = a + 1\nc = a + 2\n"
            "store [B], b\nstore [C], c"
        ))
        values = collect_values(dag)

        def no_depths(self, latency=None):
            raise AssertionError("asap() built for a single-pick selection")

        monkeypatch.setattr(DependenceDAG, "asap", no_depths)
        kill = select_kill(dag, values)
        assert kill.contested == frozenset({"a"})
        assert kill["a"] in (dag.value_defs["b"], dag.value_defs["c"])

    def test_multi_pick_matches_reference(self):
        from repro import reference

        # Every pair of a, b, c shares one use: a two-node cover leaves
        # one value with both of its uses chosen.
        dag = DependenceDAG.from_trace(parse_trace(
            "a = load [A]\nb = load [B]\nc = load [C]\n"
            "n1 = a + b\nn2 = a + c\nn3 = b + c\n"
            "store [D], n1\nstore [E], n2\nstore [F], n3"
        ))
        values = collect_values(dag)
        kill = select_kill(dag, values)
        chosen = set(kill.kill[name] for name in kill.contested)
        assert any(
            sum(u in chosen for u in set(dag.value_uses[name])) >= 2
            for name in kill.contested
        )
        oracle = reference.select_kill(dag, values)
        assert kill.kill == oracle.kill
        assert kill.contested == oracle.contested


class TestMinCover:
    def test_exact_beats_or_ties_greedy(self):
        universe = ["u1", "u2", "u3", "u4"]
        covers = {
            1: frozenset({"u1", "u2"}),
            2: frozenset({"u3", "u4"}),
            3: frozenset({"u1", "u3"}),
            4: frozenset({"u2"}),
            5: frozenset({"u4"}),
        }
        nodes = sorted(covers)
        exact = _exact_min_cover(universe, nodes, covers)
        greedy = _greedy_min_cover(universe, nodes, covers)
        assert len(exact) <= len(greedy)
        assert len(exact) == 2

    def test_exact_on_greedy_trap(self):
        # Classic instance where greedy picks the big set first and pays.
        universe = list("abcdef")
        covers = {
            0: frozenset("abcd"),
            1: frozenset("abe"),
            2: frozenset("cdf"),
        }
        exact = _exact_min_cover(universe, [0, 1, 2], covers)
        assert len(exact) == 2
        assert set(exact) == {1, 2}

    def test_single_set_cover(self):
        universe = ["x"]
        covers = {9: frozenset({"x"})}
        assert _exact_min_cover(universe, [9], covers) == [9]
