"""Pipelines, verifier, exhaustive oracle, decoding and lifting."""

import pytest
from hypothesis import given, settings, strategies as st

from treepack import (
    Hypergraph,
    HypergraphicMatroid,
    InvalidArgumentError,
    Multigraph,
    Packing,
    Thresholds,
    brute_force_pack,
    build_steiner_hypergraph,
    graphic_matroid,
    pack_bases,
    pack_connectors,
    pack_spanning_trees,
    pack_steiner_trees,
    parse_packing,
    reduce_instance,
    serialize_packing,
    steiner_connectivity,
    threshold_value,
    verify_packing,
)
import treepack.packing
from treepack.generate import generate
from treepack.matroid import iter_partitions, graph_edge_sets
from treepack.packing import _violating_partition_certificate
from treepack.rng import SplitMix64
from conftest import c4, doubled_triangle, graph_from_pairs, k4, random_hypergraph, triangle


def violates_tree_packing_bound(g, k) -> bool:
    edge_sets = graph_edge_sets(g.edges)
    for p in iter_partitions(g.vertices):
        if p.classify(edge_sets).outer_count < k * (len(p) - 1):
            return True
    return False


def fkk_instance():
    """Terminals 0..3; two hubs on {0,1,2} and {1,2,3}; full terminal mesh."""
    g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    for hub, triple in ((4, (0, 1, 2)), (5, (1, 2, 3))):
        g.add_vertex(hub)
        for t in triple:
            g.add_edge(hub, t)
    return g, frozenset({0, 1, 2, 3})


class TestThresholds:
    def test_values(self):
        t1 = Thresholds.for_k(1)
        assert (t1.f_k, t1.g_k, t1.nwt, t1.fkk) == (8, 12, 2, 3)
        t2 = Thresholds.for_k(2)
        assert (t2.f_k, t2.g_k, t2.nwt, t2.fkk) == (14, 18, 4, 6)
        for k in range(1, 8):
            t = Thresholds.for_k(k)
            assert t.f_k % 2 == 0
            assert t.f_k in (5 * k + 3, 5 * k + 4)
            assert t.g_k == 6 * k + 6

    def test_threshold_names(self):
        assert threshold_value("nwt", 3) == 6
        assert threshold_value("fkk", 3) == 9
        assert threshold_value("paper-f", 1) == 8
        assert threshold_value("paper-g", 1) == 12
        assert threshold_value("5", 1) == 5
        for name in ("bogus", "1_0", "+1", "\u0663"):
            with pytest.raises(InvalidArgumentError, match="unknown threshold"):
                threshold_value(name, 1)


class TestPackSpanningTrees:
    def test_doubled_triangle_two_trees(self):
        g = doubled_triangle()
        result = pack_spanning_trees(g, 2)
        assert result.succeeded
        assert verify_packing(g, None, result.packing).ok
        brute = brute_force_pack(g, None, 2, "spanning")
        assert brute.packing is not None

    def test_c4_certificate_is_discrete_partition(self):
        result = pack_spanning_trees(c4(), 2)
        assert result.outcome == "certificate"
        cert = result.certificate
        assert cert.kind == "violating-partition"
        assert all(len(b) == 1 for b in cert.partition)
        assert cert.lambda_out == 4 and cert.bound == 6

    def test_k4_two_trees(self):
        g = k4()
        result = pack_spanning_trees(g, 2)
        assert result.succeeded
        assert brute_force_pack(g, None, 2, "spanning").packing is not None

    def test_single_vertex(self):
        g = Multigraph()
        g.add_vertex(0)
        result = pack_spanning_trees(g, 3)
        assert result.succeeded
        assert all(not p for p in result.packing.parts)

    def test_biconditional_small_matrix(self):
        from conftest import random_multigraph
        for seed in range(40):
            g = random_multigraph(seed, max_vertices=6, max_edges=10)
            for k in (1, 2):
                packed = pack_spanning_trees(g, k).succeeded
                brute = brute_force_pack(g, None, k, "spanning").packing is not None
                no_violation = not violates_tree_packing_bound(g, k)
                assert packed == brute == no_violation


def max_deficiency(vertices, edge_sets, k) -> int:
    """The largest k*(|P|-1) - crossing(P) over every vertex partition."""
    return max(k * (len(p) - 1) - p.classify(edge_sets).outer_count
               for p in iter_partitions(vertices))


def recounted(vertices, edge_sets, cert, k) -> bool:
    """The certificate's blocks partition the vertices and its counts are
    right; an edge or hyperedge crosses when it meets two blocks."""
    block_of = {v: i for i, block in enumerate(cert.partition) for v in block}
    if sum(map(len, cert.partition)) != len(vertices) or block_of.keys() != set(vertices):
        return False
    crossing = sum(len({block_of[v] for v in ends}) > 1 for ends in edge_sets.values())
    return (cert.lambda_out, cert.bound) == (crossing, k * (len(cert.partition) - 1))


def ground(g):
    """A graph as the (vertices, edge_sets) pair the helpers above take."""
    return g.vertices, graph_edge_sets(g.edges)


class TestSpanningCertificates:
    """Certificates read off the failed packing search, against the scan."""

    def test_deficiency_is_the_maximum_over_all_partitions(self):
        from conftest import random_multigraph
        seen = {"loop": 0, "parallel": 0, "isolated": 0, "disconnected": 0}
        certificates = 0
        for seed in range(120):
            g = random_multigraph(seed, max_vertices=7, max_edges=12)
            if seed % 3 == 0:
                g.add_vertex(g.vertex_count())  # an isolated vertex
            ends = [tuple(sorted(e)) for e in g.edges.values()]
            for k in (1, 2, 3):
                result = pack_spanning_trees(g, k)
                oracle = max_deficiency(*ground(g), k)
                if result.succeeded:
                    assert oracle <= 0
                    continue
                cert = result.certificate
                assert cert.kind == "violating-partition" and cert.scope == "graph"
                assert recounted(*ground(g), cert, k)
                assert cert.bound - cert.lambda_out == oracle > 0
                certificates += 1
                seen["loop"] += any(u == v for u, v in ends)
                seen["parallel"] += len(set(ends)) < len(ends)
                seen["isolated"] += any(g.degree(v) == 0 for v in g.vertices)
                seen["disconnected"] += not g.is_connected()
        assert certificates > 200
        assert all(seen.values()), seen

    @pytest.mark.parametrize("n", [20, 200])
    def test_long_cycles_need_no_enumeration(self, n):
        g = graph_from_pairs(n, [(v, (v + 1) % n) for v in range(n)])
        cert = pack_spanning_trees(g, 2).certificate
        assert recounted(*ground(g), cert, 2)
        assert (cert.lambda_out, cert.bound) == (n, 2 * (n - 1))

    def test_components_of_the_reached_set_are_the_blocks(self):
        # Two disjoint doubled triangles: each holds two trees and leaves
        # two edges over, so the failed searches reach both triangles.
        g = graph_from_pairs(6, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2),
                                 (3, 4), (3, 4), (4, 5), (4, 5), (3, 5), (3, 5)])
        reached = pack_bases(graphic_matroid(g.vertices, g.edges), 2).reached
        assert reached == frozenset(g.edges)
        cert = pack_spanning_trees(g, 2).certificate
        assert sorted(map(sorted, cert.partition)) == [[0, 1, 2], [3, 4, 5]]
        assert (cert.lambda_out, cert.bound) == (0, 2)
        assert cert.bound - cert.lambda_out == max_deficiency(*ground(g), 2)
        g.add_edge(2, 3)  # a bridge: one crossing edge, still below 2
        cert = pack_spanning_trees(g, 2).certificate
        assert sorted(map(sorted, cert.partition)) == [[0, 1, 2], [3, 4, 5]]
        assert (cert.lambda_out, cert.bound) == (1, 2)


def joined_fkk(seed):
    """Two fkk n=6 k=2 instances joined by one terminal edge: the graph,
    its 12 terminals, and each half's terminal set."""
    g = Multigraph()
    halves = []
    offset = 0
    for s in (seed, seed + 100):
        inst = generate("fkk", 6, 2, s)
        for v in inst.graph.vertices:
            g.add_vertex(v + offset)
        for u, v in inst.graph.edges.values():
            g.add_edge(u + offset, v + offset)
        halves.append(frozenset(t + offset for t in inst.terminals))
        offset += max(inst.graph.vertices) + 1
    g.add_edge(min(halves[0]), min(halves[1]))
    return g, halves[0] | halves[1], halves


def fringed_hypergraph(seed):
    """A random core of 3 to 6 vertices with at least as many hyperedges,
    then up to 7 vertices in all, each new one joined by a single 2- or
    3-vertex hyperedge.  Packings fail on the sparse fringe while the core
    leaves hyperedges unplaced, so the failed searches reach something."""
    rng = SplitMix64(seed)
    core = 3 + rng.below(4)
    n = core + rng.below(8 - core)
    dense = random_hypergraph(seed, core, core + rng.below(2 * core))
    h = Hypergraph(range(n), dense.hyperedges)
    for v in range(core, n):
        h.add_hyperedge(len(h.hyperedges), [v] + rng.sample(range(v), 1 + rng.below(2)))
    return h


class TestHypergraphCertificates:
    """Reduced-hypergraph certificates come off the failed search too."""

    def test_deficiency_is_the_maximum_over_all_partitions(self):
        certificates = reached_triples = 0
        for seed in range(150):
            h = fringed_hypergraph(seed)
            for k in (1, 2, 3):
                packed = pack_bases(HypergraphicMatroid(h), k)
                if packed.size == k * (len(h.vertices) - 1):
                    continue  # maximality is checked against the scan in test_matroid
                oracle = max_deficiency(h.vertices, h.hyperedges, k)
                cert = _violating_partition_certificate(
                    h.vertices, h.hyperedges, k, packed.reached,
                    scope="reduced-hypergraph")
                assert recounted(h.vertices, h.hyperedges, cert, k)
                assert cert.bound - cert.lambda_out == oracle > 0
                certificates += 1
                reached_triples += any(len(h.hyperedges[e]) == 3 for e in packed.reached)
        assert certificates > 200
        assert reached_triples > 50

    @pytest.mark.parametrize("pack", [pack_steiner_trees, pack_connectors])
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_twelve_terminals_need_no_cap(self, pack, seed):
        # Each half holds two trees; the one joining edge cannot carry two.
        g, terminals, halves = joined_fkk(seed)
        assert len(terminals) == 12
        result = pack(g, terminals, 2, threshold=1, brute_fallback=False)
        cert = result.certificate
        assert (cert.kind, cert.scope) == ("violating-partition", "reduced-hypergraph")
        assert sorted(map(sorted, cert.partition)) == sorted(map(sorted, halves))
        assert (cert.lambda_out, cert.bound) == (1, 2)


class TestBuildSteinerHypergraph:
    def test_all_terminals_gives_size_two_edges(self):
        g = doubled_triangle()
        h, origin = build_steiner_hypergraph(g, g.vertices)
        assert all(len(v) == 2 for v in h.hyperedges.values())
        assert set(h.hyperedges) == set(g.edges)
        assert all(origin[e] == ("edge", e) for e in h.hyperedges)

    def test_single_hub(self):
        g = graph_from_pairs(3, [])
        g.add_vertex(3)
        for t in (0, 1, 2):
            g.add_edge(3, t)
        h, origin = build_steiner_hypergraph(g, frozenset({0, 1, 2}))
        assert list(h.hyperedges.values()) == [frozenset({0, 1, 2})]
        (hid,) = h.hyperedges
        assert origin[hid] == ("vertex", 3)

    def test_bipartite_tightness_shape(self):
        # n terminals, k*(n-1) hubs of degree three: the classic shape where
        # connector packings need every hub
        n, k = 4, 2
        g = graph_from_pairs(n, [])
        hubs = []
        triples = [(0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2), (1, 2, 3)]
        for i in range(k * (n - 1)):
            hub = n + i
            hubs.append(hub)
            g.add_vertex(hub)
            for t in triples[i]:
                g.add_edge(hub, t)
        h, origin = build_steiner_hypergraph(g, frozenset(range(n)))
        assert len(h.hyperedges) == k * (n - 1)
        assert all(len(v) == 3 for v in h.hyperedges.values())

    def test_rejects_non_reduced_shapes(self):
        # a hub with a repeated terminal neighbour, and a loop at a terminal
        g = graph_from_pairs(2, [])
        g.add_vertex(2)
        g.add_edge(2, 0)
        g.add_edge(2, 0)
        g.add_edge(2, 1)
        looped = graph_from_pairs(2, [(0, 1), (0, 0)])
        for graph, message in ((g, "vertex 2 breaks"), (looped, "loop 1 cannot")):
            with pytest.raises(InvalidArgumentError, match=message):
                build_steiner_hypergraph(graph, frozenset({0, 1}))


class TestPackSteinerTrees:
    def test_all_terminals_degenerates_to_spanning(self):
        g = doubled_triangle()
        result = pack_steiner_trees(g, g.vertices, 2, threshold=4)
        assert result.succeeded
        assert verify_packing(g, g.vertices, result.packing).ok
        assert all(len(p) == 2 for p in result.packing.parts)

    def test_fkk_example_k1(self):
        g, terminals = fkk_instance()
        assert steiner_connectivity(g, terminals) >= 3
        result = pack_steiner_trees(g, terminals, 1, threshold=3)
        assert result.succeeded
        assert verify_packing(g, terminals, result.packing).ok
        brute = brute_force_pack(g, terminals, 1, "steiner")
        assert brute.packing is not None

    def test_k1_any_connected_graph(self):
        g = triangle()
        result = pack_steiner_trees(g, {0, 2}, 1, threshold=1)
        assert result.succeeded
        (part,) = result.packing.parts
        assert verify_packing(g, frozenset({0, 2}), result.packing).ok

    def test_threshold_certificate(self):
        g = triangle()
        result = pack_steiner_trees(g, {0, 1, 2}, 1)  # default threshold 8
        assert result.outcome == "certificate"
        assert result.certificate.kind == "cut-too-small"
        assert result.certificate.cut_size == 2
        assert result.certificate.threshold == 8

    def test_single_terminal_vacuous(self):
        g = triangle()
        result = pack_steiner_trees(g, {1}, 3)
        assert result.succeeded
        assert all(not p for p in result.packing.parts)

    def test_entry_connectivity_is_computed_once(self, monkeypatch):
        # The pipeline's threshold check computes λ_T and hands it to the
        # reduction, which would otherwise compute it again.
        import treepack.graphcore
        import treepack.packing
        from treepack.generate import generate
        inst = generate("fkk", 11, 2, 1)
        calls = []
        original = treepack.graphcore.steiner_min_cut

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(treepack.graphcore, "steiner_min_cut", counted)
        monkeypatch.setattr(treepack.packing, "steiner_min_cut", counted)
        result = pack_steiner_trees(inst.graph, inst.terminals, 2, threshold=6,
                                    brute_fallback=False)
        assert result.succeeded and len(result.trace) == 0
        assert len(calls) == 1

    def test_lift_through_nontrivial_reduction(self):
        # non-terminal chain forces splits before the hypergraph step
        g = graph_from_pairs(2, [(0, 1)])
        g.add_vertex(2)
        for _ in range(2):
            g.add_edge(0, 2)
            g.add_edge(2, 1)
        terminals = frozenset({0, 1})
        result = pack_steiner_trees(g, terminals, 2, threshold=3)
        assert result.succeeded
        assert len(result.trace) > 0
        assert verify_packing(g, terminals, result.packing).ok


class TestPackConnectors:
    def test_all_terminals(self):
        g = doubled_triangle()
        result = pack_connectors(g, g.vertices, 2, threshold=4)
        assert result.succeeded
        check = verify_packing(g, g.vertices, result.packing)
        assert check.ok and check.canonical

    def test_hub_contributes_exactly_two_edges(self):
        g, terminals = fkk_instance()
        result = pack_connectors(g, terminals, 1, threshold=3)
        assert result.succeeded
        (part,) = result.pre_lift.parts
        for hub in (4, 5):
            star = set(result.reduced_graph.incident_edges(hub)) \
                if result.reduced_graph.has_vertex(hub) else set()
            used = len(star & part)
            assert used in (0, 2)

    def test_k1_normal_form_instance(self):
        g, terminals = fkk_instance()
        result = pack_connectors(g, terminals, 1, threshold=3)
        assert result.succeeded
        check = verify_packing(g, terminals, result.packing)
        assert check.ok

    def test_nonterminal_degrees_law(self):
        g, terminals = fkk_instance()
        for k in (1, 2):
            if steiner_connectivity(g, terminals) < 3 * k:
                continue
            result = pack_connectors(g, terminals, k, threshold=3 * k)
            if not result.succeeded:
                continue
            for part in result.pre_lift.parts:
                degrees = {}
                for eid in part:
                    for v in result.reduced_graph.endpoints(eid):
                        degrees[v] = degrees.get(v, 0) + 1
                for v, d in degrees.items():
                    if v not in terminals:
                        assert d in (0, 2)
            for part in result.packing.parts:
                degrees = {}
                for eid in part:
                    for v in g.endpoints(eid):
                        degrees[v] = degrees.get(v, 0) + 1
                for v, d in degrees.items():
                    if v not in terminals:
                        assert d % 2 == 0


class TestLifting:
    def test_unsplit_cycle_is_repruned_to_a_tree(self):
        # Original: hub 4 on terminals 0..3, plus a 0-2 chord.  The trace
        # splits the hub twice; a reduced tree using both children plus the
        # chord gains a cycle at the second un-split and must be re-pruned.
        from treepack.graphcore import SplitStep, SplitTrace
        from treepack.packing import lift_parts
        original = graph_from_pairs(4, [])
        original.add_vertex(4)
        for t in range(4):
            original.add_edge(4, t)        # ids 0..3
        original.add_edge(0, 2)            # id 4
        trace = SplitTrace()
        trace.append(SplitStep(center=4, e1=0, e1_ends=(4, 0), e2=1,
                               e2_ends=(4, 1), child=5, child_ends=(0, 1)))
        trace.append(SplitStep(center=4, e1=2, e1_ends=(4, 2), e2=3,
                               e2_ends=(4, 3), child=6, child_ends=(2, 3), removed=4))
        reduced = trace.apply(original)
        terminals = frozenset(range(4))
        part = frozenset({5, 4, 6})  # edges 0-1, 0-2, 2-3: a terminal tree
        assert verify_packing(reduced, terminals,
                              Packing(mode="steiner", parts=(part,))).ok
        lifted, rebuilt = lift_parts([part], trace, reduced, terminals, "steiner")
        assert rebuilt == original
        packing = Packing(mode="steiner", parts=tuple(lifted))
        assert verify_packing(original, terminals, packing).ok

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=3, max_value=7), st.integers(min_value=0, max_value=10_000))
    def test_lift_rebuilds_the_original_graph(self, n, seed):
        from treepack.generate import generate_kriesell
        from treepack.packing import lift_parts, prune_to_terminal_tree
        inst = generate_kriesell(n, 1, seed)
        tset = inst.terminals
        rr = reduce_instance(inst.graph, tset, min(8, inst.connectivity))
        part = prune_to_terminal_tree(rr.graph, tset, rr.graph.edges)
        lifted, rebuilt = lift_parts([part], rr.trace, rr.graph, tset, "steiner")
        assert rebuilt == inst.graph
        assert verify_packing(inst.graph, tset,
                              Packing(mode="steiner", parts=tuple(lifted))).ok

    def test_connector_k2_through_nontrivial_reduction(self):
        from treepack.generate import generate_kriesell
        found_trace = False
        for seed in range(12):
            inst = generate_kriesell(3, 2, seed, min_connectivity=18)
            result = pack_connectors(inst.graph, inst.terminals, 2, threshold=18)
            assert result.succeeded
            check = verify_packing(inst.graph, inst.terminals, result.packing)
            assert check.ok
            if result.trace is not None and len(result.trace) > 0:
                found_trace = True
        assert found_trace


class TestBelowTheoremThresholds:
    def test_pipeline_agrees_with_brute_force_in_probing_regimes(self):
        # at the conjectured (unproven) bound the pipeline may legitimately
        # fail, but within exhaustive capacity its verdicts must match the
        # oracle exactly: packed iff a packing exists
        from treepack import GenerationFailureError
        from treepack.generate import generate_kriesell
        agreements = 0
        for seed in range(40):
            k = 1 + seed % 2
            try:
                inst = generate_kriesell(2 + seed % 3, k, seed,
                                         min_connectivity=2 * k, max_edges=12)
            except GenerationFailureError:
                continue
            result = pack_steiner_trees(inst.graph, inst.terminals, k,
                                        threshold=2 * k, brute_fallback=True)
            brute = brute_force_pack(inst.graph, inst.terminals, k, "steiner")
            assert result.outcome in ("packed", "infeasible")
            assert result.succeeded == (brute.packing is not None)
            if result.succeeded:
                assert verify_packing(inst.graph, inst.terminals,
                                      result.packing).ok
            agreements += 1
        assert agreements >= 30

    @pytest.mark.parametrize("pack", [pack_steiner_trees, pack_connectors])
    def test_stalled_reduction_retries_at_the_requested_threshold(self, pack):
        # λ_T = 6 = 3k leaves the reduction at 3k no slack to delete, and
        # it stalls off the normal form; at the requested threshold 4 it
        # reaches it in 18 steps and the hypergraph packs, with no brute
        # help.  The stalled trace is not the one returned.
        inst = generate("nwt", 12, 2, 3)
        terminals = frozenset(v for v in inst.graph.vertices if v % 2 == 0)
        assert steiner_connectivity(inst.graph, terminals) == 6
        assert reduce_instance(inst.graph, terminals, 6).form == "partial"
        result = pack(inst.graph, terminals, 2, threshold=4, brute_fallback=False)
        assert (result.outcome, result.method, len(result.trace)) == ("packed", "pipeline", 18)
        assert result.trace.steps == reduce_instance(inst.graph, terminals, 4).trace.steps
        assert verify_packing(inst.graph, terminals, result.packing).ok


def h_graph():
    """Terminals 0..3 hang in pairs off two adjacent non-terminals 4 and 5.
    The 4-5 edge keeps the reduction off the normal form, and no connector
    exists: one needs both 4 and 5 at even degree."""
    g = graph_from_pairs(6, [(0, 4), (1, 4), (4, 5), (5, 2), (5, 3)])
    return g, frozenset(range(4))


def route(result):
    return (result.outcome, result.method, len(result.trace),
            result.pre_lift is not None, result.threshold, result.connectivity)


class TestFallbackRoutes:
    """The routes after the hypergraph fails or the reduction stalls, in
    order: the single tree, the search on the reduced graph (lifted), the
    search on the input, the certificate."""

    def test_stalled_steiner_k1_is_the_single_tree(self):
        g, terminals = h_graph()
        result = pack_steiner_trees(g, terminals, 1, threshold=1, brute_fallback=False)
        assert route(result) == ("packed", "pipeline", 0, True, 1, 1)
        assert verify_packing(g, terminals, result.packing).ok

    def test_stalled_connector_without_fallback_is_reduction_incomplete(self):
        g, terminals = h_graph()
        result = pack_connectors(g, terminals, 1, threshold=1, brute_fallback=False)
        assert route(result) == ("certificate", "", 0, False, 1, 1)
        cert = result.certificate
        assert (cert.kind, cert.reduced_form) == ("reduction-incomplete", "partial")
        assert cert.reduced_graph == result.reduced_graph == g

    def test_exhausted_search_on_the_input_is_infeasible(self):
        g, terminals = h_graph()
        result = pack_connectors(g, terminals, 1, threshold=1)
        assert route(result) == ("infeasible", "brute-force", 0, False, 1, 1)
        assert result.packing is None and result.certificate is None
        assert brute_force_pack(g, terminals, 1, "connector").infeasible

    def test_empty_trace_searches_the_input_once(self, monkeypatch):
        # The reduction stalls with no step, so the reduced graph is the
        # input: its exhaustion is the verdict, and no second search runs.
        calls = []
        search = treepack.packing.brute_force_pack

        def counted(target, *args):
            calls.append(target)
            return search(target, *args)

        monkeypatch.setattr(treepack.packing, "brute_force_pack", counted)
        g, terminals = h_graph()
        result = pack_connectors(g, terminals, 1, threshold=1)
        assert route(result) == ("infeasible", "brute-force", 0, False, 1, 1)
        assert calls == [g]

    def test_search_on_the_reduced_graph_is_lifted(self):
        g = graph_from_pairs(7, [(5, 3), (6, 3), (1, 6), (0, 3), (4, 3), (2, 4)])
        terminals = frozenset({0, 1, 2, 5})
        result = pack_connectors(g, terminals, 1, threshold=1)
        assert route(result) == ("packed", "brute-force", 2, True, 1, 1)
        assert verify_packing(result.reduced_graph, terminals, result.pre_lift).ok
        assert verify_packing(g, terminals, result.packing).ok

    def test_steiner_k1_packs_where_the_hypergraph_falls_short(self):
        # The reduction reaches one hub, vertex 2, on the terminals 0, 1
        # and 4.  Its hyperedge has rank 1 < |T| - 1, so the hypergraph
        # holds no basis, but the hub's star is a terminal tree.
        g = graph_from_pairs(7, [(4, 2), (3, 2), (0, 2), (6, 3), (5, 6), (1, 6)])
        terminals = frozenset({0, 1, 4})
        result = pack_steiner_trees(g, terminals, 1, threshold=1, brute_fallback=False)
        assert route(result) == ("packed", "pipeline", 4, True, 1, 1)
        assert result.reduced_graph.vertices == {0, 1, 2, 4}
        assert verify_packing(g, terminals, result.packing).ok


class TestVerifyPacking:
    def test_valid_spanning_packing(self):
        g = doubled_triangle()
        result = pack_spanning_trees(g, 2)
        assert verify_packing(g, None, result.packing).ok

    def test_shared_edge_flagged(self):
        g = doubled_triangle()
        packing = Packing.__new__(Packing)  # bypass the constructor's check
        object.__setattr__(packing, "mode", "spanning")
        object.__setattr__(packing, "parts", (frozenset({0, 2}), frozenset({0, 4})))
        out = verify_packing(g, None, packing)
        assert not out.ok and "also in part" in out.reason

    def test_cycle_flagged(self):
        g = triangle()
        packing = Packing(mode="steiner", parts=(frozenset({0, 1, 2}),))
        out = verify_packing(g, frozenset({0, 1, 2}), packing)
        assert not out.ok and out.reason == "part has a cycle"

    def test_missing_terminal_flagged(self):
        g = triangle()
        packing = Packing(mode="steiner", parts=(frozenset({0}),))
        out = verify_packing(g, frozenset({0, 1, 2}), packing)
        assert not out.ok and out.reason == "part misses a terminal"

    def test_disconnected_part_flagged(self):
        # edges 0-1 and 2-3 of a 4-cycle: a forest on all four terminals,
        # doubled into an even-degree subgraph for the connector case
        g = c4()
        out = verify_packing(g, frozenset({0, 1, 2, 3}),
                             Packing(mode="steiner", parts=(frozenset({0, 2}),)))
        assert not out.ok and out.reason == "part is disconnected"
        g = graph_from_pairs(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
        out = verify_packing(g, frozenset({0, 2}),
                             Packing(mode="connector", parts=(frozenset(range(4)),)))
        assert not out.ok and out.reason == "part is disconnected"

    def test_unknown_edge_rejected(self):
        g = triangle()
        packing = Packing(mode="steiner", parts=(frozenset({17}),))
        with pytest.raises(InvalidArgumentError):
            verify_packing(g, frozenset({0, 1}), packing)

    def test_odd_nonterminal_degree_flagged(self):
        g = graph_from_pairs(2, [])
        g.add_vertex(2)
        e = [g.add_edge(2, 0), g.add_edge(2, 0), g.add_edge(2, 1)]
        packing = Packing(mode="connector", parts=(frozenset(e),))
        out = verify_packing(g, frozenset({0, 1}), packing)
        assert not out.ok and "odd degree" in out.reason

    def test_even_but_noncanonical_connector_flagged_distinctly(self):
        g = graph_from_pairs(3, [])
        g.add_vertex(3)
        edges = []
        for t in (0, 1, 2):
            edges.append(g.add_edge(3, t))
            edges.append(g.add_edge(3, t))
        packing = Packing(mode="connector", parts=(frozenset(edges),))
        out = verify_packing(g, frozenset({0, 1, 2}), packing)
        assert out.ok and out.canonical is False
        assert out.note == "unverified connector shape"


class TestBruteForce:
    def test_c4_two_spanning_trees_infeasible(self):
        assert brute_force_pack(c4(), None, 2, "spanning").infeasible

    def test_doubled_triangle_found_and_verified(self):
        g = doubled_triangle()
        out = brute_force_pack(g, None, 2, "spanning")
        assert out.packing is not None
        assert verify_packing(g, None, out.packing).ok

    def test_k1_steiner_always_found_on_connected(self):
        from conftest import random_multigraph
        for seed in range(15):
            g = random_multigraph(seed, max_vertices=5, max_edges=8, connected=True)
            terminals = frozenset(sorted(g.vertices)[:2])
            out = brute_force_pack(g, terminals, 1, "steiner")
            assert out.packing is not None

    def test_capacity_guard(self):
        from treepack import CapacityError
        g = graph_from_pairs(2, [(0, 1)] * 17)
        with pytest.raises(CapacityError):
            brute_force_pack(g, None, 1, "spanning")

    def test_connector_parity_respected(self):
        # star through one hub: a single connector must not use all three
        # hub edges
        g = graph_from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        g.add_vertex(3)
        for t in (0, 1, 2):
            g.add_edge(3, t)
        out = brute_force_pack(g, frozenset({0, 1, 2}), 1, "connector")
        assert out.packing is not None
        (part,) = out.packing.parts
        hub_edges = {e for e in part if 3 in g.endpoints(e)}
        assert len(hub_edges) in (0, 2)


class TestPackingFormat:
    def test_round_trip_bytes(self):
        packing = Packing(mode="steiner", parts=(frozenset({3, 1}), frozenset()))
        text = serialize_packing(packing)
        assert text == "packing steiner 2\npart 1: 1 3\npart 2:\n"
        assert parse_packing(text) == packing
        assert serialize_packing(parse_packing(text)) == text
        # Blank lines and '#' comments may stand anywhere, around the header too.
        assert parse_packing("# by hand\n\n" + text.replace("\n", "\n  # note\n\n")) == packing

    def test_bad_header_rejected(self):
        from treepack import InstanceParseError
        with pytest.raises(InstanceParseError):
            parse_packing("packing bogus 1\n")
        for token in ("1_0", "+3", "\u0663"):
            with pytest.raises(InstanceParseError):
                parse_packing(f"packing steiner {token}\n")
            with pytest.raises(InstanceParseError) as err:
                parse_packing(f"packing steiner 1\npart 1: 0 {token}\n")
            assert err.value.line_number == 2

    def test_duplicate_header_rejected(self):
        # A second header must not switch the mode or part count mid-file.
        from treepack import InstanceParseError
        with pytest.raises(InstanceParseError) as err:
            parse_packing("packing steiner 2\npart 1: 1 2\npacking connector 1\n")
        assert err.value.line_number == 3

    def test_out_of_order_parts_rejected(self):
        from treepack import InstanceParseError
        with pytest.raises(InstanceParseError):
            parse_packing("packing steiner 2\npart 2: 1\npart 1: 0\n")
