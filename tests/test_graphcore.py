"""Multigraph, cut, splitting-off and reduction behavior."""

import pytest
from hypothesis import given, settings, strategies as st

from treepack import (
    InstanceParseError,
    InvalidArgumentError,
    Multigraph,
    PreconditionViolationError,
    isolate_even_nonterminal,
    mader_split,
    min_cut,
    parse_instance,
    reduce_instance,
    serialize_instance,
    split_off,
    steiner_connectivity,
)
import treepack.graphcore
from treepack.generate import generate, generate_kriesell
from conftest import (
    all_pairwise_cuts,
    brute_min_cut,
    brute_steiner_connectivity,
    c4,
    doubled_triangle,
    graph_from_pairs,
    random_multigraph,
    triangle,
)


class TestMultigraph:
    def test_degree_counts_loops_twice(self):
        g = Multigraph()
        g.add_vertex(0)
        g.add_edge(0, 0)
        assert g.degree(0) == 2

    def test_edge_ids_never_reused(self):
        g = graph_from_pairs(2, [(0, 1)])
        g.delete_edge(0)
        assert g.add_edge(0, 1) == 1

    def test_explicit_ids_bump_counter(self):
        g = graph_from_pairs(2, [])
        g.add_edge(0, 1, eid=7)
        assert g.add_edge(0, 1) == 8

    def test_remove_vertex_requires_isolation(self):
        g = graph_from_pairs(2, [(0, 1)])
        with pytest.raises(InvalidArgumentError):
            g.remove_vertex(0)


class TestMinCut:
    def test_five_parallel_edges(self):
        g = graph_from_pairs(2, [(0, 1)] * 5)
        assert min_cut(g, 0, 1)[0] == 5

    def test_triangle(self):
        assert min_cut(triangle(), 0, 1)[0] == 2

    def test_doubled_triangle_matches_subset_enumeration(self):
        g = doubled_triangle()
        expected = brute_min_cut(g, 0, 1)
        assert expected == 4
        size, side = min_cut(g, 0, 1)
        assert size == 4
        assert 0 in side and 1 not in side

    def test_loops_never_count(self):
        g = graph_from_pairs(2, [(0, 1), (0, 0), (1, 1)])
        assert min_cut(g, 0, 1)[0] == 1

    def test_same_vertex_rejected(self):
        with pytest.raises(InvalidArgumentError):
            min_cut(triangle(), 0, 0)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(InvalidArgumentError):
            min_cut(triangle(), 0, 9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_brute_force_on_random_graphs(self, seed):
        g = random_multigraph(seed, max_vertices=5, max_edges=8)
        vs = sorted(g.vertices)
        s, t = vs[0], vs[1]
        assert min_cut(g, s, t)[0] == brute_min_cut(g, s, t)


class TestSteinerConnectivity:
    def test_triangle_all_terminals(self):
        assert steiner_connectivity(triangle(), {0, 1, 2}) == 2

    def test_tripled_path(self):
        g = graph_from_pairs(3, [(0, 1)] * 3 + [(1, 2)] * 3)
        assert steiner_connectivity(g, {0, 2}) == 3

    def test_doubled_star_matches_bipartition_enumeration(self):
        # center 3 is not a terminal; leaves 0,1,2 are, each doubly attached
        g = graph_from_pairs(4, [(3, 0), (3, 0), (3, 1), (3, 1), (3, 2), (3, 2)])
        expected = brute_steiner_connectivity(g, {0, 1, 2})
        assert expected == 2
        assert steiner_connectivity(g, {0, 1, 2}) == 2

    def test_disconnected_graph_reports_zero(self):
        g = graph_from_pairs(3, [(0, 1)])
        assert steiner_connectivity(g, {0, 1}) == 0

    def test_single_terminal_rejected(self):
        with pytest.raises(InvalidArgumentError):
            steiner_connectivity(triangle(), {0})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_bipartition_oracle_when_connected(self, seed):
        g = random_multigraph(seed, max_vertices=5, max_edges=9, connected=True)
        terminals = sorted(g.vertices)[:2]
        assert steiner_connectivity(g, terminals) == \
            brute_steiner_connectivity(g, terminals)


class TestSplitOff:
    def test_path_becomes_single_edge(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        out, step = split_off(g, 1, 0, 1)
        assert out.degree(1) == 0
        assert sorted(out.edges.values()) == [(0, 2)]
        assert step.child_ends == (0, 2)

    def test_parallel_pair_becomes_loop(self):
        g = graph_from_pairs(2, [(0, 1), (0, 1)])
        out, step = split_off(g, 0, 0, 1)
        assert out.is_loop(step.child)
        assert out.degree(1) == 2

    def test_degree_bookkeeping_on_doubled_triangle(self):
        g = doubled_triangle()
        before = {v: g.degree(v) for v in g.vertices}
        out, _ = split_off(g, 1, 0, 2)  # edge 0 = (0,1), edge 2 = (1,2)
        assert out.degree(1) == before[1] - 2
        assert out.degree(0) == before[0]
        assert out.degree(2) == before[2]

    def test_rejects_loop_and_foreign_edges(self):
        g = graph_from_pairs(2, [(0, 0), (0, 1), (1, 1)])
        with pytest.raises(InvalidArgumentError):
            split_off(g, 0, 0, 1)  # edge 0 is a loop at 0
        with pytest.raises(InvalidArgumentError):
            split_off(g, 0, 1, 2)  # edge 2 is not incident to 0
        with pytest.raises(InvalidArgumentError):
            split_off(g, 0, 1, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_degree_multiset_preserved_elsewhere(self, seed):
        g = random_multigraph(seed, max_vertices=5, max_edges=8, loops=False)
        candidates = [v for v in sorted(g.vertices)
                      if len([e for e in g.incident_edges(v) if not g.is_loop(e)]) >= 2]
        if not candidates:
            return
        u = candidates[0]
        e1, e2 = [e for e in g.incident_edges(u) if not g.is_loop(e)][:2]
        out, _ = split_off(g, u, e1, e2)
        for v in g.vertices - {u}:
            assert out.degree(v) == g.degree(v)
        assert out.degree(u) == g.degree(u) - 2


class TestMaderSplit:
    def test_degree_two_vertex_gets_unique_pair(self):
        g = c4()
        pair = mader_split(g, 1)
        assert set(pair) == set(g.incident_edges(1))

    def test_four_parallel_plus_triangle(self):
        g = graph_from_pairs(4, [(0, 1)] * 4 + [(1, 2), (2, 3), (1, 3)])
        before = all_pairwise_cuts(g, g.vertices - {0})
        e1, e2 = mader_split(g, 0)
        out, _ = split_off(g, 0, e1, e2)
        assert all_pairwise_cuts(out, g.vertices - {0}) == before

    def test_c4_preserves_pairwise_connectivity(self):
        g = c4()
        before = all_pairwise_cuts(g, g.vertices - {1})
        e1, e2 = mader_split(g, 1)
        out, _ = split_off(g, 1, e1, e2)
        assert all_pairwise_cuts(out, g.vertices - {1}) == before

    def test_degree_three_rejected(self):
        g = graph_from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3)])
        with pytest.raises(PreconditionViolationError):
            mader_split(g, 0)

    def test_cut_edge_rejected(self):
        g = graph_from_pairs(4, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 3)])
        # vertex 3 has degree 4 via its loop but hangs on a bridge
        with pytest.raises(PreconditionViolationError):
            mader_split(g, 3)


class TestIsolateEvenNonterminal:
    def test_degree_two_on_path_suppressed(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        out, steps = isolate_even_nonterminal(g, {0, 2}, 1)
        assert not out.has_vertex(1)
        assert sorted(out.edges.values()) == [(0, 2)]
        assert len(steps) == 1

    def test_degree_four_doubled_to_terminals(self):
        g = graph_from_pairs(3, [(2, 0), (2, 0), (2, 1), (2, 1)])
        before = steiner_connectivity(g, {0, 1})
        out, _ = isolate_even_nonterminal(g, {0, 1}, 2)
        assert sorted(out.edges.values()) == [(0, 1), (0, 1)]
        assert steiner_connectivity(out, {0, 1}) == before

    def test_already_isolated_vertex_removed(self):
        g = graph_from_pairs(2, [(0, 1)])
        g.add_vertex(5)
        out, steps = isolate_even_nonterminal(g, {0, 1}, 5)
        assert not out.has_vertex(5)
        assert len(steps) == 1

    def test_odd_degree_rejected(self):
        g = graph_from_pairs(4, [(3, 0), (3, 1), (3, 2), (0, 1), (1, 2), (0, 2)])
        with pytest.raises(PreconditionViolationError):
            isolate_even_nonterminal(g, {0, 1, 2}, 3)

    def test_terminal_rejected(self):
        with pytest.raises(InvalidArgumentError):
            isolate_even_nonterminal(triangle(), {0, 1, 2}, 0)


class TestReduceInstance:
    def test_all_terminals_is_already_normal(self):
        g = doubled_triangle()
        rr = reduce_instance(g, {0, 1, 2}, 2)
        assert rr.form == "fkk"
        assert rr.graph == g
        assert len(rr.trace) == 0

    def test_empty_trace_skips_the_exit_connectivity_check(self, monkeypatch):
        # With no step taken the reduced graph is the input, so the entry
        # check's value stands for the exit one: one steiner_min_cut, not two.
        calls = []
        counted = treepack.graphcore.steiner_min_cut

        def counting(g, terminals):
            calls.append(1)
            return counted(g, terminals)

        inst = generate("fkk", 9, 2, 5)
        monkeypatch.setattr(treepack.graphcore, "steiner_min_cut", counting)
        rr = reduce_instance(inst.graph, inst.terminals, 3 * 2)
        assert len(calls) == 1
        assert (rr.graph, rr.terminals, len(rr.trace), rr.form) == \
            (inst.graph, inst.terminals, 0, "fkk")

    def test_degree_four_nonterminal_eliminated_and_replayable(self):
        g = graph_from_pairs(3, [(2, 0), (2, 0), (2, 1), (2, 1)])
        rr = reduce_instance(g, {0, 1}, 2)
        assert rr.form == "fkk"
        assert sorted(rr.graph.edges.values()) == [(0, 1), (0, 1)]
        assert rr.trace.apply(g) == rr.graph
        assert rr.trace.unapply(rr.graph) == g

    def test_bipartite_normal_form_untouched(self):
        # every non-terminal has degree three and distinct terminal neighbors
        g = graph_from_pairs(4, [])
        for i, triple in enumerate([(0, 1, 2), (0, 1, 3), (1, 2, 3)]):
            hub = 4 + i
            g.add_vertex(hub)
            for t in triple:
                g.add_edge(hub, t)
        rr = reduce_instance(g, {0, 1, 2, 3}, 1)
        assert rr.form == "fkk"
        assert rr.graph == g

    def test_threshold_guarded_deletion(self):
        # two non-terminals joined to each other and doubly to terminals
        g = graph_from_pairs(4, [(2, 0), (2, 0), (3, 1), (3, 1), (2, 3), (2, 3)])
        rr = reduce_instance(g, {0, 1}, 2)
        assert steiner_connectivity(rr.graph, {0, 1}) >= 2
        assert rr.trace.unapply(rr.graph) == g

    def test_parallel_hub_splits_to_loops_then_cleanup(self):
        # all four hub edges point at one terminal, so splitting makes
        # loops there; the reducer must shed the loops and the hub
        g = graph_from_pairs(2, [(0, 1)] * 3)
        g.add_vertex(2)
        for _ in range(4):
            g.add_edge(2, 0)
        rr = reduce_instance(g, {0, 1}, 3)
        assert rr.form == "fkk"
        assert rr.graph.vertices == frozenset({0, 1})
        assert sorted(rr.graph.edges.values()) == [(0, 1)] * 3
        assert rr.trace.apply(g) == rr.graph
        assert rr.trace.unapply(rr.graph) == g

    def test_pendant_nonterminal_chain_pruned(self):
        # a dead branch of non-terminals hangs off terminal 0; no packing
        # can ever use it, and the reducer removes it entirely
        g = graph_from_pairs(2, [(0, 1)] * 4)
        g.add_vertex(2)
        g.add_vertex(3)
        g.add_edge(0, 2)
        g.add_edge(2, 3)
        rr = reduce_instance(g, {0, 1}, 4)
        assert rr.form == "fkk"
        assert rr.graph.vertices == frozenset({0, 1})
        assert rr.trace.unapply(rr.graph) == g

    def test_precondition_checked(self):
        with pytest.raises(InvalidArgumentError):
            reduce_instance(triangle(), {0, 1, 2}, 5)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=3, max_value=7), st.integers(min_value=0, max_value=10_000))
    def test_kriesell_trace_replays_both_ways(self, n, seed):
        # threshold 8 keeps enough edges that plain splits occur alongside
        # suppressions, deletions and isolated-vertex removals
        inst = generate_kriesell(n, 1, seed)
        rr = reduce_instance(inst.graph, inst.terminals, min(8, inst.connectivity))
        assert rr.trace.apply(inst.graph) == rr.graph
        assert rr.trace.unapply(rr.graph) == inst.graph

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_instances_keep_connectivity_and_replay(self, seed):
        g = random_multigraph(seed, max_vertices=6, max_edges=10,
                              loops=False, connected=True)
        terminals = sorted(g.vertices)[:2]
        threshold = min(2, steiner_connectivity(g, terminals))
        rr = reduce_instance(g, terminals, threshold)
        assert steiner_connectivity(rr.graph, terminals) >= threshold
        assert rr.trace.apply(g) == rr.graph
        assert rr.trace.unapply(rr.graph) == g
        if rr.form == "fkk":
            tset = frozenset(terminals)
            for u in rr.graph.vertices - tset:
                assert rr.graph.degree(u) == 3
                assert rr.graph.neighbors(u) <= tset


class TestInstanceFormat:
    def test_round_trip(self):
        g = doubled_triangle()
        text = serialize_instance(g, {0, 1})
        g2, t2 = parse_instance(text)
        assert g2 == g and t2 == frozenset({0, 1})
        assert serialize_instance(g2, t2) == text

    def test_duplicate_edge_id_rejected_with_line(self):
        text = "graph 2 2\nt 0\nt 1\ne 0 0 1\ne 0 0 1\n"
        with pytest.raises(InstanceParseError) as err:
            parse_instance(text)
        assert err.value.line_number == 5

    def test_malformed_line_rejected(self):
        with pytest.raises(InstanceParseError):
            parse_instance("graph 1 0\nv zero\n")
        # int() would read these as 10, 3 and 3
        for token in ("1_0", "+3", "\u0663"):
            with pytest.raises(InstanceParseError) as err:
                parse_instance(f"graph 2 1\nt 0\nt 1\ne 0 0 {token}\n")
            assert err.value.line_number == 4

    def test_header_mismatch_rejected(self):
        with pytest.raises(InstanceParseError):
            parse_instance("graph 3 1\ne 0 0 1\n")

    def test_comments_ignored(self):
        g, t = parse_instance("# hello\ngraph 2 1\nt 0\nt 1\ne 4 0 1\n")
        assert g.edges == {4: (0, 1)} and t == frozenset({0, 1})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.data())
    def test_round_trip_property(self, seed, data):
        g = random_multigraph(seed, max_vertices=6, max_edges=10)
        terminals = data.draw(st.frozensets(st.sampled_from(sorted(g.vertices))))
        text = serialize_instance(g, terminals)
        g2, t2 = parse_instance(text)
        assert g2 == g and t2 == terminals
        assert serialize_instance(g2, t2) == text

    def test_negative_edge_id_rejected(self):
        with pytest.raises(InstanceParseError) as err:
            parse_instance("graph 2 1\nt 0\nt 1\ne -1 0 1\n")
        assert err.value.line_number == 4
