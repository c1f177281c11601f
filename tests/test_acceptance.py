"""Acceptance criteria, one test per criterion, zero tolerance.

Each test prints `ACCEPTANCE <n> <name>: PASS|FAIL` (visible with
`pytest -s`).  Where a criterion names an instance family too large to
enumerate literally (every hypergraph, every small multigraph), the test
runs an exhaustive core at slightly smaller size plus a seeded random
sample at the stated bound; every checked case is still zero-tolerance.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from fractions import Fraction


from treepack import (
    ConstraintFamily,
    GenerationFailureError,
    Hypergraph,
    HypergraphicMatroid,
    Thresholds,
    UnionBasisFamily,
    adjust_union,
    brute_force_pack,
    check_polytope_membership,
    graphic_matroid,
    hypergraphic_rank,
    iter_bases,
    kls_round,
    mader_split,
    pack_connectors,
    pack_spanning_trees,
    pack_steiner_trees,
    rank_by_partitions,
    split_off,
    verify_packing,
)
from treepack.fractional import ceil_fraction
from treepack.matroid import graph_edge_sets, iter_partitions, pack_elements
from treepack.generate import generate_fkk, generate_kriesell
from treepack.rng import SplitMix64
from conftest import (
    all_pairwise_cuts,
    graph_from_pairs,
    random_hypergraph,
    random_multigraph,
    reference_has_incident_cut_edge,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_criterion_1_tree_packing_biconditional():
    """pack == brute force == partition condition, |V|<=5, |E|<=9, k in {1,2}."""
    with criterion(1, "tree-packing biconditional"):
        for seed in range(500):
            g = random_multigraph(seed, max_vertices=5, max_edges=9)
            edge_sets = graph_edge_sets(g.edges)
            for k in (1, 2):
                result = pack_spanning_trees(g, k)
                brute = brute_force_pack(g, None, k, "spanning")
                violated = any(
                    p.classify(edge_sets).outer_count < k * (len(p) - 1)
                    for p in iter_partitions(g.vertices))
                assert result.succeeded == (brute.packing is not None) == (not violated)
                if result.succeeded:
                    assert verify_packing(g, None, result.packing).ok
                else:
                    cert = result.certificate
                    out = sum(1 for u, v in g.edges.values()
                              if not any({u, v} <= b for b in cert.partition))
                    assert out == cert.lambda_out < cert.bound


def _hypergraph_family_exhaustive():
    # all duplicate-free hypergraphs on 4 vertices with up to 3 hyperedges
    types4 = [frozenset(c) for c in itertools.combinations(range(4), 2)]
    types4 += [frozenset(c) for c in itertools.combinations(range(4), 3)]
    for count in range(4):
        for combo in itertools.combinations(types4, count):
            yield Hypergraph(range(4), dict(enumerate(combo)))
    # all multiset hypergraphs on 3 vertices with up to 4 hyperedges
    types3 = [frozenset(c) for c in itertools.combinations(range(3), 2)]
    types3.append(frozenset(range(3)))
    for count in range(5):
        for combo in itertools.combinations_with_replacement(types3, count):
            yield Hypergraph(range(3), dict(enumerate(combo)))


def test_criterion_2_hypergraphic_rank_oracle_equivalence():
    """Greedy-over-independence rank equals the partition formula on every
    subset: exhaustive small families plus 300 seeded samples at |V|=5, |F|=5."""
    with criterion(2, "hypergraphic rank oracle equivalence"):
        hypergraphs = list(_hypergraph_family_exhaustive())
        hypergraphs += [random_hypergraph(seed, 5, 5) for seed in range(300)]
        for h in hypergraphs:
            ids = h.edge_ids()
            for size in range(len(ids) + 1):
                for subset in itertools.combinations(ids, size):
                    assert hypergraphic_rank(h, subset) == rank_by_partitions(h, subset)


def test_criterion_3_union_rank_formula():
    """Packed family size equals min over partitions of k*rank(P) + crossing
    count, k in {1,2,3}."""
    with criterion(3, "k-fold union rank formula"):
        hypergraphs = list(_hypergraph_family_exhaustive())
        hypergraphs += [random_hypergraph(seed, 5, 5) for seed in range(120)]
        for h in hypergraphs:
            oracle = HypergraphicMatroid(h)
            ids = h.edge_ids()
            for k in (1, 2, 3):
                parts, _ = pack_elements(oracle, k, ids)
                assert sum(len(p) for p in parts) == rank_by_partitions(h, ids, k=k)


def test_criterion_4_fkk_guarantee():
    """200 seeded bipartite-model instances, |T|<=8, k<=2, cuts >= 3k:
    the pipeline itself packs and verifies every one."""
    with criterion(4, "normal-form packing guarantee"):
        for seed in range(200):
            n = 3 + seed % 6
            k = 1 + seed % 2
            inst = generate_fkk(n, k, seed)
            assert inst.connectivity >= 3 * k
            result = pack_steiner_trees(inst.graph, inst.terminals, k,
                                        threshold=3 * k, brute_fallback=False)
            assert result.succeeded and result.method == "pipeline"
            assert verify_packing(inst.graph, inst.terminals, result.packing).ok


def test_criterion_5_paper_threshold_packing():
    """100 seeded random-multigraph instances at the tree-packing threshold,
    k in {1,2}, within exhaustive capacity: a verified packing always lands
    (pipeline or brute force)."""
    with criterion(5, "threshold packing existence"):
        produced = 0
        seed = 0
        while produced < 100:
            k = 1 + produced % 2
            n = 2 + produced % (3 if k == 1 else 2)
            try:
                inst = generate_kriesell(n, k, seed, max_edges=16)
            except GenerationFailureError:
                seed += 1
                continue
            seed += 1
            threshold = Thresholds.for_k(k).f_k
            assert inst.connectivity >= threshold
            result = pack_steiner_trees(inst.graph, inst.terminals, k,
                                        threshold=threshold, brute_fallback=True)
            assert result.succeeded, f"seed {inst.seed} n={n} k={k}: {result.outcome}"
            assert verify_packing(inst.graph, inst.terminals, result.packing).ok
            produced += 1


def test_criterion_6_connector_construction():
    """Connector runs: used non-terminals have degree exactly 2 before
    lifting (pipeline decode), even degree after; 100 seeds succeed at the
    connector threshold for k=1."""
    with criterion(6, "connector construction"):
        runs = []
        produced = 0
        seed = 0
        while produced < 100:
            n = 2 + produced % 2
            try:
                inst = generate_kriesell(n, 1, seed, min_connectivity=12,
                                         max_edges=16)
            except GenerationFailureError:
                seed += 1
                continue
            seed += 1
            result = pack_connectors(inst.graph, inst.terminals, 1,
                                     threshold=12, brute_fallback=True)
            assert result.succeeded, f"seed {inst.seed}: {result.outcome}"
            runs.append((inst.graph, inst.terminals, result))
            produced += 1
        # add bipartite-model connector runs across both k values
        for seed in range(40):
            n = 3 + seed % 6
            k = 1 + seed % 2
            inst = generate_fkk(n, k, seed)
            result = pack_connectors(inst.graph, inst.terminals, k,
                                     threshold=3 * k, brute_fallback=False)
            assert result.succeeded
            runs.append((inst.graph, inst.terminals, result))
        for g, terminals, result in runs:
            if result.method == "pipeline" and result.pre_lift is not None:
                reduced = result.reduced_graph
                for part in result.pre_lift.parts:
                    degrees: dict[int, int] = {}
                    for eid in part:
                        for v in reduced.endpoints(eid):
                            degrees[v] = degrees.get(v, 0) + 1
                    for v, d in degrees.items():
                        if v not in terminals:
                            assert d in (0, 2)
            check = verify_packing(g, terminals, result.packing)
            assert check.ok  # even post-lift degrees are part of this check


def test_criterion_7_degree_bounded_rounding():
    """100 exact-rational fractional bases (convex combinations of real
    bases, <=12 elements) with random families, d<=3: the rounded basis
    meets every bound."""
    with criterion(7, "degree-bounded rounding"):
        done = 0
        seed = 0
        while done < 100:
            rng = SplitMix64(seed)
            seed += 1
            g = random_multigraph(rng.below(1 << 30), max_vertices=5,
                                  max_edges=12, loops=False, connected=True)
            if g.edge_count() > 12:
                continue
            oracle = graphic_matroid(g.vertices, g.edges)
            bases = list(iter_bases(oracle))
            if len(bases) < 2:
                continue
            picks = [bases[rng.below(len(bases))] for _ in range(2 + rng.below(3))]
            weights = [Fraction(1 + rng.below(5)) for _ in picks]
            total = sum(weights)
            x = {e: sum((w for w, b in zip(weights, picks) if e in b),
                        Fraction(0)) / total
                 for e in oracle.ground}
            assert check_polytope_membership(oracle, x).verdict == "basis-polytope"
            d = 1 + rng.below(3)
            n_sets = 2 + rng.below(3)
            members: list[set[int]] = [set() for _ in range(n_sets)]
            for e in oracle.ground:
                for idx in rng.sample(range(n_sets), rng.below(d + 1)):
                    members[idx].add(e)
            family = ConstraintFamily(
                sets=tuple(frozenset(s) for s in members), max_membership=d)
            base = kls_round(oracle, x, family)
            assert oracle.independent(base) and len(base) == len(oracle.greedy_basis())
            for fs in family.sets:
                x_f = sum((x[e] for e in fs), Fraction(0))
                assert len(base & fs) <= ceil_fraction(x_f) + d - 1
            done += 1


def _multigraphs_up_to_iso(n_vertices: int, max_edges: int):
    pair_types = [(u, v) for u in range(n_vertices) for v in range(u, n_vertices)]
    perms = list(itertools.permutations(range(n_vertices)))
    seen = set()
    for m in range(max_edges + 1):
        for combo in itertools.combinations_with_replacement(pair_types, m):
            canon = min(
                tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in combo))
                for p in perms)
            if canon in seen:
                continue
            seen.add(canon)
            yield combo


def test_criterion_8_pinning_exchange_exhaustive():
    """Every (family, pins) configuration over 2- and 3-fold graphic
    unions of <=5-edge multigraphs (<=4 vertices, up to isomorphism):
    pins satisfied, parts independent, union preserved."""
    with criterion(8, "pinning exchange"):
        for combo in _multigraphs_up_to_iso(4, 5):
            edges = dict(enumerate(combo))
            oracle = graphic_matroid(range(4), edges)
            ids = sorted(edges)
            for k in (2, 3):
                for size in range(len(ids) + 1):
                    for subset in itertools.combinations(ids, size):
                        parts, unplaced = pack_elements(oracle, k, subset)
                        if unplaced:
                            continue  # not independent in the k-fold union
                        family = UnionBasisFamily(
                            parts=tuple(frozenset(p) for p in parts))
                        for d in range(min(k, len(subset)) + 1):
                            for pins in itertools.combinations(subset, d):
                                for targets in itertools.permutations(range(k), d):
                                    required = dict(zip(pins, targets))
                                    out = adjust_union(oracle, family, required)
                                    assert out.union == family.union
                                    assert len(out.parts) == k
                                    for part in out.parts:
                                        assert oracle.independent(part)
                                    for e, i in required.items():
                                        assert e in out.parts[i]


def test_criterion_9_cut_preserving_splits():
    """100 seeded graphs, |V|<=8: at every eligible vertex the returned
    pair preserves every pairwise min-cut exactly (flow recomputation)."""
    with criterion(9, "cut-preserving splits"):
        checked = 0
        for seed in range(100):
            g = random_multigraph(seed, max_vertices=8, max_edges=13,
                                  loops=False, connected=True)
            if seed % 3 == 0:
                # doubling kills every bridge, so all vertices become eligible
                for eid, (u, v) in sorted(g.edges.items()):
                    g.add_edge(u, v)
            if not g.is_connected():
                continue
            for u in sorted(g.vertices):
                deg = g.degree(u)
                if deg == 3 or deg < 2 or reference_has_incident_cut_edge(g, u):
                    continue
                others = g.vertices - {u}
                before = all_pairwise_cuts(g, others)
                e1, e2 = mader_split(g, u)
                after_graph, _ = split_off(g, u, e1, e2)
                assert all_pairwise_cuts(after_graph, others) == before
                checked += 1
        assert checked >= 100


def test_criterion_10_determinism(capsys, tmp_path):
    """Identical inputs and seeds give byte-identical instances, packings
    and reports (timing lines excluded)."""
    from treepack.cli import main

    def run(*argv) -> str:
        code = main(list(argv))
        assert code in (0, 1)
        out = capsys.readouterr().out
        return "\n".join(l for l in out.splitlines() if not l.startswith("time_"))

    with criterion(10, "determinism"):
        inst = tmp_path / "i.txt"
        pack_out_a = tmp_path / "pa.txt"
        pack_out_b = tmp_path / "pb.txt"
        for model, n, k in (("nwt", 5, 2), ("fkk", 5, 2), ("kriesell", 3, 1)):
            a = run("gen", model, "--n", str(n), "--k", str(k), "--seed", "11")
            b = run("gen", model, "--n", str(n), "--k", str(k), "--seed", "11")
            assert a == b
        run("gen", "fkk", "--n", "4", "--k", "1", "--seed", "3", "--out", str(inst))
        ra = run("pack", str(inst), "--mode", "steiner", "--k", "1",
                 "--threshold", "fkk", "--out", str(pack_out_a))
        rb = run("pack", str(inst), "--mode", "steiner", "--k", "1",
                 "--threshold", "fkk", "--out", str(pack_out_b))
        assert ra.replace(str(pack_out_a), "OUT") == rb.replace(str(pack_out_b), "OUT")
        assert pack_out_a.read_bytes() == pack_out_b.read_bytes()
        va = run("verify-cuts", str(inst), "--k", "1", "--threshold", "fkk")
        vb = run("verify-cuts", str(inst), "--k", "1", "--threshold", "fkk")
        assert va == vb
        sa = run("sweep", "nwt", "--n", "3:4", "--k", "1:2", "--seeds", "0:2",
                 "--threshold", "nwt")
        sb = run("sweep", "nwt", "--n", "3:4", "--k", "1:2", "--seeds", "0:2",
                 "--threshold", "nwt")
        assert sa == sb
        # library-level: identical packing parts on repeated runs
        g = graph_from_pairs(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
        first = pack_spanning_trees(g, 2).packing.parts
        second = pack_spanning_trees(g, 2).packing.parts
        assert first == second
