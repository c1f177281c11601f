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
from treepack.matroid import iter_partitions
from treepack.graphcore import NormalForm, ReduceResult, _normal_form
from treepack.packing import _violating_partition_certificate, prune_to_terminal_tree
from treepack.rng import SplitMix64
from conftest import (c4, doubled_triangle, graph_from_pairs, k4, probe_family, random_hypergraph,
                      triangle)


def violates_tree_packing_bound(g, k) -> bool:
    for p in iter_partitions(g.vertices):
        if p.classify(g.edges).outer_count < k * (len(p) - 1):
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
    return g.vertices, g.edges


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
        # The pipeline's threshold check computes λ_T once, capped at
        # max(threshold, 3k): by flows, whose value decides the reduction's
        # threshold; or, on normal-form input, which skips the reduction,
        # by the flow-free cut on the hyperedges of the entry scan.  The
        # reduction's own terminal cut is its exit recount, an independent
        # check of the reduced graph, before its scan of the reduced form.
        import treepack.graphcore
        from treepack.generate import generate
        calls, scans, cut_input = [], [], []

        def counting(name):
            for module in (treepack.graphcore, treepack.packing):
                original = getattr(module, name)

                def counted(*args, _where=module.__name__.split(".")[1],
                            _original=original):
                    calls.append((_where, name, args[2:]))
                    if name == "_normal_form_cut":
                        cut_input.append(list(args[0]))
                    out = _original(*args)
                    if name == "_normal_form":
                        scans.append(out)
                    return out

                monkeypatch.setattr(module, name, counted)

        normal, reducible = generate("fkk", 11, 2, 1), generate("kriesell", 11, 1, 3)
        for name in ("steiner_min_cut", "_terminal_cut", "_normal_form_cut", "_normal_form"):
            counting(name)
        result = pack_steiner_trees(normal.graph, normal.terminals, 2, threshold=6,
                                    brute_fallback=False)
        assert result.succeeded and len(result.trace) == 0
        assert [call[:2] for call in calls] == [("packing", "_normal_form"),
                                                ("packing", "_normal_form_cut")]
        assert cut_input == [list(scans[0].hyperedges.values())]
        calls.clear()
        result = pack_steiner_trees(reducible.graph, reducible.terminals, 1, threshold=3,
                                    brute_fallback=False)
        assert result.succeeded and len(result.trace) > 0
        assert calls == [("packing", "_normal_form", ()),
                         ("packing", "_terminal_cut", (3,)),
                         ("graphcore", "_terminal_cut", (3,)),
                         ("graphcore", "_normal_form", ())]

    def test_normal_form_is_tested_once(self, monkeypatch):
        # The pipeline reads the form of each graph it packs in one scan,
        # at entry or at the end of the reduction, and the cut, the
        # matroid and the decode all take what that scan found: no
        # `Hypergraph` is built on the way to a packing.  A reduced input
        # is scanned at entry too, once, where the scan finds it off the
        # form.
        import treepack.graphcore
        normal, reducible = generate("fkk", 11, 2, 1), generate("kriesell", 11, 2, 3)
        scanned = []
        original = treepack.graphcore._normal_form

        def counting(g, tset):
            scanned.append(g)
            return original(g, tset)

        def built(*args):
            raise AssertionError("a Hypergraph was built")

        monkeypatch.setattr(treepack.graphcore, "_normal_form", counting)
        monkeypatch.setattr(treepack.packing, "_normal_form", counting)
        monkeypatch.setattr(Hypergraph, "add_hyperedge", built)
        for pack in (pack_steiner_trees, pack_connectors):
            scanned.clear()
            result = pack(normal.graph, normal.terminals, 2, threshold=6, brute_fallback=False)
            assert (result.outcome, result.method) == ("packed", "pipeline")
            assert len(scanned) == 1 and scanned[0] is normal.graph
            scanned.clear()
            result = pack(reducible.graph, reducible.terminals, 2, threshold=6,
                          brute_fallback=False)
            assert (result.outcome, result.method) == ("packed", "pipeline")
            assert len(result.trace) > 0 and result.pre_lift is not None
            assert len(scanned) == 2 and scanned[0] is reducible.graph
            assert scanned[1] is result.reduced_graph

    def test_normal_form_certificate_keeps_the_flow_side(self):
        # Below the threshold, normal-form input still reports the side of
        # the flow loop, as it did when the loop also gave the value.
        from conftest import reference_steiner_min_cut
        inst = generate("fkk", 9, 2, 1)
        assert isinstance(_normal_form(inst.graph, inst.terminals), NormalForm)
        result = pack_steiner_trees(inst.graph, inst.terminals, 2, threshold=99)
        cert = result.certificate
        assert (cert.kind, cert.cut_size, cert.threshold) == ("cut-too-small", 6, 99)
        assert cert.cut_side == frozenset(range(29)) - {7}
        assert (6, cert.cut_side) == reference_steiner_min_cut(inst.graph, inst.terminals)

    def test_normal_form_input_packs_without_flows(self, monkeypatch):
        import treepack.graphcore
        inst = generate("fkk", 11, 2, 1)
        calls = []
        original = treepack.graphcore._max_flow

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(treepack.graphcore, "_max_flow", counting)
        for pack in (pack_steiner_trees, pack_connectors):
            result = pack(inst.graph, inst.terminals, 2, threshold=6, brute_fallback=False)
            assert (result.outcome, result.method, calls) == ("packed", "pipeline", [])
            assert result.connectivity == 6 and len(result.trace) == 0
            assert result.reduced_graph == inst.graph and result.pre_lift == result.packing

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


def _entry_cut_cases():
    """(graph, terminals, k, threshold) on seeded kriesell draws, which
    the pipelines reduce, and fkk draws, already in the normal form, at
    thresholds below, at and above λ_T, with the cap max(threshold, 3k)
    both above and below λ_T."""
    from treepack.generate import generate_kriesell
    cases = []
    for seed in range(8):
        inst = generate_kriesell(9 + seed % 4, 1, seed)
        lam = steiner_connectivity(inst.graph, inst.terminals)
        for k, threshold in ((1, 2), (2, lam - 1), (1, lam), (1, lam + 1), (2, 99)):
            cases.append((inst.graph, inst.terminals, k, threshold))
    for seed in range(3):
        inst = generate("fkk", 9, 2, seed)
        lam = steiner_connectivity(inst.graph, inst.terminals)
        for k, threshold in ((1, 1), (2, lam), (1, lam + 1), (3, 99)):
            cases.append((inst.graph, inst.terminals, k, threshold))
    return cases


class TestEntryCut:
    def test_connectivity_is_lambda_up_to_the_cap(self):
        # PackResult.connectivity is min(λ_T, max(threshold, 3k)) on every
        # route, and a cut-too-small certificate carries the side and size
        # of the exact steiner_min_cut.
        from conftest import reference_steiner_min_cut
        from treepack import steiner_min_cut
        seen = {"capped": 0, "exact": 0, "cut-too-small": 0}
        for g, terminals, k, threshold in _entry_cut_cases():
            lam, _ = reference_steiner_min_cut(g, terminals)
            cap = max(threshold, 3 * k)
            for pack in (pack_steiner_trees, pack_connectors):
                result = pack(g, terminals, k, threshold=threshold, brute_fallback=False)
                assert result.connectivity == min(lam, cap), (threshold, k)
                seen["capped" if lam >= cap else "exact"] += 1
                if result.certificate and result.certificate.kind == "cut-too-small":
                    cert = result.certificate
                    assert (cert.cut_size, cert.cut_side) == steiner_min_cut(g, terminals)
                    seen["cut-too-small"] += 1
        assert min(seen.values()) >= 20, seen

    def test_pipelines_run_no_uncapped_flow(self, monkeypatch):
        # Every flow either terminal pipeline runs stops at a limit: the
        # entry cut at max(threshold, 3k), the reduction's at its
        # threshold.  Only the public cut functions run flows to the end.
        import treepack.graphcore
        cases = _entry_cut_cases()
        uncapped = []
        original = treepack.graphcore._max_flow

        def capped_only(g, s, t, limit=None):
            if limit is None:
                uncapped.append((s, t))
            return original(g, s, t, limit)

        monkeypatch.setattr(treepack.graphcore, "_max_flow", capped_only)
        for g, terminals, k, threshold in cases:
            for pack in (pack_steiner_trees, pack_connectors):
                pack(g, terminals, k, threshold=threshold, brute_fallback=False)
        assert uncapped == []
        treepack.graphcore.steiner_min_cut(g, terminals)
        assert uncapped  # the spy sees the public, exact cut's flows


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
        lifted, rebuilt = lift_parts([part], trace, reduced)
        assert rebuilt == original
        # The lift only swaps edges, so the cycle stays until the pipeline
        # prunes the lifted part once.
        assert lifted == [frozenset({0, 1, 2, 3, 4})]
        assert verify_packing(original, terminals, Packing(mode="steiner", parts=tuple(
            lifted))).reason == "part has a cycle"
        rr = ReduceResult(graph=reduced, terminals=terminals, trace=trace,
                          normal_form=_normal_form(reduced, terminals))
        assert rr.form == "fkk"
        pre_lift, packing = treepack.packing._lift_verified([part], rr, original, "steiner",
                                                            "test")
        assert pre_lift.parts == (part,)
        assert packing.parts == (prune_to_terminal_tree(original, terminals, lifted[0]),)
        assert verify_packing(original, terminals, packing).ok

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=3, max_value=7), st.integers(min_value=0, max_value=10_000))
    def test_lift_rebuilds_the_original_graph(self, n, seed):
        from treepack.generate import generate_kriesell
        from treepack.packing import lift_parts
        inst = generate_kriesell(n, 1, seed)
        tset = inst.terminals
        rr = reduce_instance(inst.graph, tset, min(8, inst.connectivity))
        part = prune_to_terminal_tree(rr.graph, tset, rr.graph.edges)
        lifted, rebuilt = lift_parts([part], rr.trace, rr.graph)
        assert rebuilt == inst.graph
        pruned = prune_to_terminal_tree(inst.graph, tset, lifted[0])
        assert pruned <= lifted[0]
        assert verify_packing(inst.graph, tset, Packing(mode="steiner", parts=(pruned,))).ok

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


def nonterminal_degrees(g, terminals, part) -> list[int]:
    return [d for v, d in treepack.packing._part_degrees(g, part).items() if v not in terminals]


class TestPackBasesStates:
    """`pack_bases` hands back each hypergraphic part's representative
    forest, which the pipelines decode."""

    @staticmethod
    def assert_representative_forests(h, k) -> None:
        from treepack.matroid import graphic_independent
        oracle = HypergraphicMatroid(h)
        packed = pack_bases(oracle, k)
        assert len(packed.states) == k
        for part, state in zip(packed.parts, packed.states):
            assert state.ends.keys() == part
            for hid, pair in state.ends.items():
                assert len(set(pair)) == 2 and set(pair) <= h.hyperedges[hid]
            assert graphic_independent(h.vertices, state.ends.values())
        # The states are the packing's own objects and take no part in equality.
        assert pack_bases(oracle, k) == packed

    def test_fkk_draws(self):
        for n, k in ((9, 3), (11, 2)):
            for seed in range(20):
                inst = generate("fkk", n, k, seed)
                h, _ = build_steiner_hypergraph(inst.graph, inst.terminals)
                self.assert_representative_forests(h, k)

    def test_reduced_kriesell_hypergraphs(self):
        from treepack.generate import generate_kriesell
        for seed in range(20):
            for n, k in ((11, 1), (13, 2)):
                inst = generate_kriesell(n, k, seed)
                rr = reduce_instance(inst.graph, inst.terminals, 3 * k)
                assert rr.form == "fkk" and len(rr.trace) > 0
                h, _ = build_steiner_hypergraph(rr.graph, rr.terminals)
                self.assert_representative_forests(h, k)


def recorded_prunes(monkeypatch) -> list:
    """Every prune_to_terminal_tree call the pipelines make from here on, as
    (graph copy, terminals, edge set)."""
    calls = []
    prune = treepack.packing.prune_to_terminal_tree

    def recording(g, terminals, edge_ids):
        edge_ids = frozenset(edge_ids)
        calls.append((g.copy(), terminals, edge_ids))
        return prune(g, terminals, edge_ids)

    monkeypatch.setattr(treepack.packing, "prune_to_terminal_tree", recording)
    return calls


class TestPruneToTerminalTree:
    """One bottom-up pass over the breadth-first tree against a rescan per
    leaf (conftest)."""

    @staticmethod
    def assert_matches_reference(calls) -> None:
        from conftest import reference_prune_to_terminal_tree
        for g, terminals, edge_ids in calls:
            assert prune_to_terminal_tree(g, terminals, edge_ids) == \
                reference_prune_to_terminal_tree(g, terminals, edge_ids)

    def test_decoded_parts(self, monkeypatch):
        # A decoded normal-form part is its basis's representative tree with
        # each hub's pair made a path through the hub: every hub it uses has
        # degree 2, the pipeline prunes none, and pruning one gives it back.
        calls = recorded_prunes(monkeypatch)
        parts = []
        for n, k in ((9, 3), (11, 2)):
            for seed in range(20):
                inst = generate("fkk", n, k, seed)
                result = pack_steiner_trees(inst.graph, inst.terminals, k, threshold=3 * k,
                                            brute_fallback=False)
                assert result.succeeded and len(result.trace) == 0
                parts += [(inst.graph, inst.terminals, part) for part in result.packing.parts]
        assert calls == [] and len(parts) == 100
        hubs = [nonterminal_degrees(*item) for item in parts]
        assert all(set(degrees) <= {2} for degrees in hubs) and sum(map(len, hubs)) > 200
        for g, terminals, part in parts:
            assert prune_to_terminal_tree(g, terminals, part) == part
        self.assert_matches_reference(parts)

    def test_lifted_parts(self, monkeypatch):
        # Kriesell draws reduce through splits, and each lifted Steiner part
        # is pruned once, after the whole lift.
        from treepack.generate import generate_kriesell
        calls = recorded_prunes(monkeypatch)
        lifted = 0
        for seed in range(20):
            for n, k in ((11, 1), (13, 2)):
                inst = generate_kriesell(n, k, seed)
                result = pack_steiner_trees(inst.graph, inst.terminals, k, threshold=3 * k,
                                            brute_fallback=False)
                assert result.succeeded and len(result.trace) > 0
                assert result.packing.parts == tuple(
                    prune_to_terminal_tree(*call) for call in calls[lifted:])
                for part in result.packing.parts:
                    assert 1 not in nonterminal_degrees(inst.graph, inst.terminals, part)
                lifted += k
        assert len(calls) == lifted == 60
        self.assert_matches_reference(calls)

    def test_random_edge_sets(self):
        # Loops (counting 2 toward their vertex), parallel edges, isolated
        # terminals and sets that leave a terminal apart, which both reject.
        from treepack import InternalInvariantError
        from conftest import random_multigraph, reference_prune_to_terminal_tree
        rejected = leafy = 0
        for seed in range(300):
            rng = SplitMix64(seed)
            g = random_multigraph(seed, max_vertices=9, max_edges=16)
            vertices = sorted(g.vertices)
            terminals = frozenset(rng.sample(vertices, 1 + rng.below(len(vertices))))
            edge_ids = [eid for eid in sorted(g.edges) if rng.below(4)]
            leafy += any(d == 1 and v not in terminals
                         for v, d in treepack.packing._part_degrees(g, edge_ids).items())
            try:
                expected = reference_prune_to_terminal_tree(g, terminals, edge_ids)
            except InternalInvariantError:
                rejected += 1
                with pytest.raises(InternalInvariantError):
                    prune_to_terminal_tree(g, terminals, edge_ids)
                continue
            assert prune_to_terminal_tree(g, terminals, edge_ids) == expected
        assert 50 < rejected < 250 and leafy > 50

    def test_empty_terminal_set_is_refused(self):
        g = doubled_triangle()
        for edge_ids in (g.edges, ()):
            with pytest.raises(InvalidArgumentError, match="at least one terminal"):
                prune_to_terminal_tree(g, frozenset(), edge_ids)


# (n, seed) pairs whose kriesell draw has at least four terminals, at least
# one non-terminal, and reaches the threshold within a few hundred
# attempts; at paper-g many draws use up the generator's whole retry budget
# instead.
THEOREM_CASES = {
    (1, "steiner"): [(10, 0), (10, 2), (11, 3), (12, 3), (13, 1), (13, 5), (14, 0),
                     (15, 4), (16, 3), (17, 4), (18, 0), (19, 3), (20, 0)],
    (1, "connector"): [(12, 5), (13, 0), (13, 1), (14, 0), (15, 5), (16, 3), (17, 2),
                       (18, 4), (19, 0), (20, 1)],
    (2, "steiner"): [(10, 1), (12, 4), (13, 1), (14, 5), (15, 5), (17, 4), (18, 4),
                     (19, 5), (20, 1)],
    (2, "connector"): [(10, 3), (10, 5), (11, 1), (13, 0), (17, 3), (18, 3), (19, 0),
                       (20, 1), (20, 5)],
}


class TestPaperTheorem:
    @pytest.mark.parametrize("k, mode", sorted(THEOREM_CASES))
    def test_paper_thresholds_pack_by_the_pipeline_alone(self, k, mode):
        # The theorem: λ_T >= paper-f(k) gives k Steiner trees and
        # λ_T >= paper-g(k) gives k connectors.  On kriesell multigraphs
        # with n = 10 to 20 and at least four terminals, the reduction and
        # the hypergraph packing alone must find them, with no brute help.
        from treepack.generate import generate_kriesell
        t = Thresholds.for_k(k)
        threshold, pack = ((t.f_k, pack_steiner_trees) if mode == "steiner"
                           else (t.g_k, pack_connectors))
        for n, seed in THEOREM_CASES[k, mode]:
            inst = generate_kriesell(n, k, seed, min_connectivity=threshold)
            assert len(inst.terminals) >= 4 and inst.connectivity >= threshold
            result = pack(inst.graph, inst.terminals, k, threshold=threshold,
                          brute_fallback=False)
            assert (result.outcome, result.method) == ("packed", "pipeline"), (n, seed)
            assert len(result.trace) > 0, (n, seed)
            assert verify_packing(inst.graph, inst.terminals, result.packing).ok


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


def probe_at_2k(setting: str, seed: int):
    """A probe-family draw packed as Steiner trees at Kriesell's 2k, with
    k = ⌊λ_T/2⌋ and no brute help: its terminal count, edge count, λ_T,
    and the result."""
    g, terminals = probe_family(setting, seed)
    connectivity = steiner_connectivity(g, terminals)
    k = connectivity // 2
    result = pack_steiner_trees(g, terminals, k, threshold=2 * k, brute_fallback=False)
    return (len(terminals), len(g.edges), connectivity), result


class TestProbeFamilyPins:
    """The current outcome on two draws of ROADMAP's probe family that the
    route does not pack.  Neither certificate proves that the input has no
    k trees.  The relaxed route after a stall (ROADMAP item 2) should flip
    the first to packed, and trees that branch at a hub (item 4) the
    second; each flip gets its own CHANGES.md line."""

    def test_small_251_stalls_the_reduction(self):
        shape, result = probe_at_2k("small", 251)
        assert shape == (4, 65, 6)
        assert result.outcome == "certificate"
        assert result.certificate.kind == "reduction-incomplete"

    def test_many_terminals_2874_has_no_k_bases_in_the_reduced_hypergraph(self):
        shape, result = probe_at_2k("many-terminals", 2874)
        assert shape == (7, 80, 8)
        cert = result.certificate
        assert (result.outcome, cert.kind, cert.scope) == \
            ("certificate", "violating-partition", "reduced-hypergraph")
        assert set(cert.partition) == {frozenset({t}) for t in range(7)}
        assert (cert.lambda_out, cert.bound) == (23, 24)


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
