"""Matroid oracles, ranks, union packing and the pinning exchange."""

import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treepack import (
    Hypergraph,
    HypergraphicMatroid,
    InvalidArgumentError,
    Partition,
    UnionBasisFamily,
    adjust_union,
    graphic_independent,
    graphic_matroid,
    hypergraphic_independent,
    hypergraphic_rank,
    pack_bases,
    rank_by_partitions,
    union_rank,
)
from treepack import InternalInvariantError, Matroid, build_steiner_hypergraph
import treepack.matroid
import treepack.packing
from treepack.generate import generate
from treepack.matroid import (
    GraphicMatroid,
    _DSU,
    _Part,
    _RootedForest,
    check_matroid_axioms,
    iter_partitions,
    pack_elements,
)
from treepack.rng import SplitMix64
from conftest import (
    brute_hypergraphic_independent,
    c4,
    doubled_triangle,
    forest_path,
    random_hypergraph,
    random_multigraph,
    reference_hypergraphic_circuit,
    reference_pack,
    triangle,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bell(n: int) -> int:
    rows = [[1]]
    for _ in range(n - 1):
        prev = rows[-1]
        row = [prev[-1]]
        for value in prev:
            row.append(row[-1] + value)
        rows.append(row)
    return rows[-1][-1]


def shared_pair_hypergraph(seed: int) -> Hypergraph:
    """Each hyperedge after the first holds a vertex pair of an earlier one."""
    rng = SplitMix64(seed)
    n = 3 + rng.below(4)
    h = Hypergraph(range(n), {0: rng.sample(range(n), 3)})
    for eid in range(1, 2 + rng.below(8)):
        pair = rng.sample(sorted(h.hyperedges[rng.below(eid)]), 2)
        rest = [v for v in range(n) if v not in pair]
        h.add_hyperedge(eid, pair + rng.sample(rest, rng.below(2)))
    return h


def reduced_fkk(n: int, k: int, seed: int) -> Hypergraph:
    """The hypergraph of an fkk instance, which is already reduced."""
    inst = generate("fkk", n, k, seed)
    h, _ = build_steiner_hypergraph(inst.graph, inst.terminals)
    return h


class TestPartitions:
    def test_counts_match_bell_numbers(self):
        for n in range(1, 7):
            assert sum(1 for _ in iter_partitions(range(n))) == bell(n)

    def test_rank_and_classification(self):
        parts = list(iter_partitions(range(3)))
        whole = parts[0]
        assert len(whole) == 1 and whole.rank == 2
        edge_sets = {0: frozenset({0, 1}), 1: frozenset({1, 2}), 2: frozenset({0})}
        split = next(p for p in parts if len(p) == 2 and frozenset({0, 1}) in p.blocks)
        cls = split.classify(edge_sets)
        assert cls.inner == frozenset({0, 2})
        assert cls.outer == frozenset({1})

    def test_classification_matches_a_scan_of_every_block(self):
        # The one-pass map from vertex to block gives what testing the
        # edge against every block gave: a loop at a vertex of a block is
        # inner, and an edge with a vertex in no block is outer.
        loops = strays = 0
        for seed in range(300):
            rng = SplitMix64(seed)
            n = 1 + rng.below(8)
            vertices = list(range(n))
            rng.shuffle(vertices)
            blocks: dict[int, set[int]] = {}
            for v in vertices[:1 + rng.below(n)]:
                blocks.setdefault(rng.below(4), set()).add(v)
            p = Partition(tuple(frozenset(b) for b in blocks.values()))
            edge_sets = {eid: frozenset(rng.sample(range(n), 1 + rng.below(min(3, n))))
                         for eid in range(rng.below(12))}
            for ids in (None, [e for e in edge_sets if rng.below(2)]):
                chosen = sorted(edge_sets) if ids is None else ids
                inner = frozenset(e for e in chosen
                                  if any(edge_sets[e] <= b for b in p.blocks))
                cls = p.classify({e: edge_sets[e] for e in chosen})
                assert (cls.inner, cls.outer) == (inner, frozenset(chosen) - inner)
                loops += sum(len(edge_sets[e]) == 1 for e in inner)
                strays += sum(not edge_sets[e] <= set().union(*p.blocks) for e in chosen)
        assert loops > 100 and strays > 100


class TestGraphicIndependence:
    def test_two_triangle_edges(self):
        assert graphic_independent(range(3), [(0, 1), (1, 2)])

    def test_full_triangle(self):
        assert not graphic_independent(range(3), [(0, 1), (1, 2), (0, 2)])

    def test_loop_is_dependent(self):
        assert not graphic_independent(range(2), [(0, 0)])

    def test_oracle_rejects_an_end_outside_the_vertex_set(self):
        with pytest.raises(InvalidArgumentError,
                           match=r"edge endpoint outside vertex set: \(3, 1\)"):
            graphic_matroid(range(3), {0: (0, 1), 1: (3, 1)})

    def test_repeated_pair_is_dependent(self):
        assert not graphic_independent(range(3), [(0, 1), (0, 1)])


class TestHypergraphicIndependence:
    def test_two_copies_of_a_triple(self):
        h = Hypergraph(range(3), {0: (0, 1, 2), 1: (0, 1, 2)})
        ok, reps = hypergraphic_independent(h, [0, 1])
        assert ok
        assert graphic_independent(range(3), list(reps.values()))

    def test_three_copies_on_three_vertices(self):
        h = Hypergraph(range(3), {i: (0, 1, 2) for i in range(3)})
        ok, reps = hypergraphic_independent(h, [0, 1, 2])
        assert not ok and reps is None

    def test_four_triples_on_four_vertices_are_dependent(self):
        # Four distinct pairs on four vertices always close a cycle, so no
        # representative forest can exist; exhaustive enumeration agrees.
        h = Hypergraph(range(4), {0: (0, 1, 2), 1: (0, 1, 3),
                                  2: (0, 2, 3), 3: (1, 2, 3)})
        assert not brute_hypergraphic_independent(h, [0, 1, 2, 3])
        ok, _ = hypergraphic_independent(h, [0, 1, 2, 3])
        assert not ok

    def test_unknown_id_rejected(self):
        h = Hypergraph(range(3), {0: (0, 1, 2)})
        with pytest.raises(InvalidArgumentError):
            hypergraphic_independent(h, [5])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = SplitMix64(seed)
        h = random_hypergraph(seed, n=3 + rng.below(4), m=1 + rng.below(6))
        ids = h.edge_ids()
        ok, reps = hypergraphic_independent(h, ids)
        assert ok == brute_hypergraphic_independent(h, ids)
        if ok:
            assert set(reps) == set(ids)
            for eid, pair in reps.items():
                assert set(pair) <= h.hyperedges[eid]
            assert graphic_independent(h.vertices, list(reps.values()))


class TestHypergraphicRank:
    def test_empty_set(self):
        h = Hypergraph(range(3), {0: (0, 1, 2)})
        assert hypergraphic_rank(h, []) == 0

    def test_four_copies_of_triple(self):
        h = Hypergraph(range(3), {i: (0, 1, 2) for i in range(4)})
        assert hypergraphic_rank(h) == 2
        assert rank_by_partitions(h) == 2

    def test_four_triples_on_four_vertices(self):
        h = Hypergraph(range(4), {0: (0, 1, 2), 1: (0, 1, 3),
                                  2: (0, 2, 3), 3: (1, 2, 3)})
        assert hypergraphic_rank(h) == 3
        assert rank_by_partitions(h) == 3

    def test_rank_witness_partition_is_canonical_minimizer(self):
        h = Hypergraph(range(3), {i: (0, 1, 2) for i in range(4)})
        value, partition = rank_by_partitions(h, want_witness=True)
        assert value == 2
        assert partition.blocks == (frozenset({0, 1, 2}),)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_greedy_equals_partition_formula(self, seed):
        rng = SplitMix64(seed)
        h = random_hypergraph(seed, n=3 + rng.below(4), m=1 + rng.below(6))
        for size in range(len(h.hyperedges) + 1):
            for subset in itertools.combinations(h.edge_ids(), size):
                assert hypergraphic_rank(h, subset) == rank_by_partitions(h, subset)


class TestUnionRank:
    def test_four_copies_k2(self):
        h = Hypergraph(range(3), {i: (0, 1, 2) for i in range(4)})
        assert union_rank(h, None, 2) == 4

    def test_two_copies_k2(self):
        h = Hypergraph(range(3), {0: (0, 1, 2), 1: (0, 1, 2)})
        assert union_rank(h, None, 2) == 2

    def test_k1_reduces_to_plain_rank(self):
        for seed in range(25):
            rng = SplitMix64(seed)
            h = random_hypergraph(seed, n=3 + rng.below(3), m=1 + rng.below(6))
            assert union_rank(h, None, 1) == hypergraphic_rank(h) == \
                len(HypergraphicMatroid(h).greedy_basis())

    def test_formula_matches_packed_size(self):
        for seed in range(25):
            rng = SplitMix64(seed)
            h = random_hypergraph(seed, n=3 + rng.below(3), m=1 + rng.below(6))
            for k in (1, 2, 3):
                parts, _ = pack_elements(HypergraphicMatroid(h), k, h.edge_ids())
                assert union_rank(h, None, k) == sum(len(p) for p in parts) \
                    == rank_by_partitions(h, None, k=k)

    def test_packing_route_above_partition_cutover(self):
        # nine vertices: the packing route matches the partition formula
        # beyond the small cases above
        h = random_hypergraph(3, n=9, m=7)
        for k in (1, 2):
            assert union_rank(h, None, k) == rank_by_partitions(h, None, k=k)


class TestAxioms:
    def test_graphic_oracle(self):
        g = doubled_triangle()
        assert check_matroid_axioms(graphic_matroid(g.vertices, g.edges)) is None

    def test_hypergraphic_oracles(self):
        for seed in range(12):
            rng = SplitMix64(seed)
            h = random_hypergraph(seed, n=3 + rng.below(3), m=1 + rng.below(5))
            assert check_matroid_axioms(HypergraphicMatroid(h)) is None

    def test_broken_oracle_detected(self):
        broken = Matroid(range(3), lambda s: len(s) != 1)  # empty ok, singletons not
        assert check_matroid_axioms(broken) == "downward"


class TestPackBases:
    def test_doubled_triangle_two_spanning_trees(self):
        g = doubled_triangle()
        oracle = graphic_matroid(g.vertices, g.edges)
        result = pack_bases(oracle, 2)
        assert result.size == 2 * len(oracle.greedy_basis())
        assert sorted(len(p) for p in result.parts) == [2, 2]

    def test_hypergraphic_four_copies(self):
        h = Hypergraph(range(3), {i: (0, 1, 2) for i in range(4)})
        oracle = HypergraphicMatroid(h)
        result = pack_bases(oracle, 2)
        assert result.size == 2 * len(oracle.greedy_basis())
        assert sorted(len(p) for p in result.parts) == [2, 2]

    def test_c4_deficiency(self):
        g = c4()
        oracle = graphic_matroid(g.vertices, g.edges)
        result = pack_bases(oracle, 2)
        assert result.size != 2 * len(oracle.greedy_basis())
        assert result.size == 4  # below 2 * 3

    def test_parts_independent_and_size_is_union_rank(self):
        for seed in range(20):
            rng = SplitMix64(seed)
            h = random_hypergraph(seed, n=3 + rng.below(3), m=1 + rng.below(6))
            oracle = HypergraphicMatroid(h)
            for k in (1, 2):
                result = pack_bases(oracle, k)
                for part in result.parts:
                    assert oracle.independent(part)
                assert result.size == union_rank(h, None, k)


def engine_hypergraph(seed: int) -> Hypergraph:
    """The hypergraph behind `engine_oracles`' hypergraphic oracle."""
    rng = SplitMix64(seed)
    return random_hypergraph(seed, n=3 + rng.below(4), m=1 + rng.below(9))


def engine_oracles(seed: int):
    """A graphic oracle on a multigraph with loops and parallel edges, and a
    hypergraphic one, both from the seed."""
    g = random_multigraph(seed, max_vertices=6, max_edges=12)
    return graphic_matroid(g.vertices, g.edges), HypergraphicMatroid(engine_hypergraph(seed))


def reference(oracle) -> Matroid:
    """The same predicate behind the plain oracle, which probes it."""
    return Matroid(oracle.ground, oracle.independent, name="reference")


def failing_oracles(seed: int):
    """Oracles whose packings mostly leave elements unplaced: a multigraph
    of up to 20 edges, loops and parallel edges among them, on at most 6
    vertices, a hypergraph of 4 to 13 hyperedges on 3 to 6 vertices, and
    the probing oracle over each."""
    rng = SplitMix64(seed)
    g = random_multigraph(seed, max_vertices=6, max_edges=20)
    h = random_hypergraph(seed, n=3 + rng.below(4), m=4 + rng.below(10))
    graphic, hypergraphic = graphic_matroid(g.vertices, g.edges), HypergraphicMatroid(h)
    return graphic, hypergraphic, reference(graphic), reference(hypergraphic)


def parts_full(oracle, k: int, size: int) -> bool:
    """Every part holds the oracle's rank bound of elements, where the
    engine stops searching; never for the probing oracle, which has none."""
    return oracle._rank_bound is not None and size == k * oracle._rank_bound


def expected_reached(oracle, k: int, size: int, reference_reached, elements):
    """The unpruned search's reached set, or the element set once the parts
    are full."""
    return frozenset(elements) if parts_full(oracle, k, size) else reference_reached


def assert_pack_matches_reference(oracle, k: int) -> bool:
    """pack_bases and pack_elements agree with the unpruned search on the
    parts and the unplaced elements, and on the reached set unless the
    parts are full; True when elements were left unplaced."""
    parts, unplaced, reached, _ = reference_pack(oracle, k, oracle.ground)
    result = pack_bases(oracle, k)
    assert [set(p) for p in result.parts] == parts
    assert list(result.unplaced) == unplaced
    assert result.reached == expected_reached(oracle, k, result.size, reached, oracle.ground)
    assert pack_elements(oracle, k, oracle.ground) == (parts, unplaced)
    return bool(unplaced)


def assert_edmonds_identity(oracle, k: int, elements, parts, unplaced, reached) -> None:
    """`reached` is a set A inside the elements S that holds every unplaced
    element and that every part spans, and the union rank formula
    |S - A| + k * rank(A) attains the packed size at it.  Ranks are the
    probing reference's, since `rank` itself packs."""
    rank = len(oracle.greedy_basis(reached))
    assert set(unplaced) <= reached <= set(elements)
    assert sum(len(p) for p in parts) == len(set(elements) - reached) + k * rank
    for part in parts:
        assert len(oracle.greedy_basis(part & reached)) == rank


def assert_circuits_match_probing(oracle, part: set[int]) -> None:
    probe = reference(oracle)
    state = oracle._part_state(part)
    assert state is not None
    for y in oracle.ground:
        if y in part:
            continue
        circuit = oracle._circuit(part, state, y)
        assert circuit == probe._circuit(part, part, y)
        assert (circuit is None) == oracle.independent(part | {y})


def assert_forest_matches_edges(forest: _RootedForest, n: int) -> None:
    """`forest` agrees with its edges on vertices 0..n-1: `acyclic` with
    `graphic_independent`, the trees their ends fall into with union-find
    components, and each path's labels with a breadth-first search of the
    edges it has linked, which span the same components."""
    assert forest.acyclic == graphic_independent(range(n), forest.ends.values())
    dsu = _DSU()
    for a, b in forest.ends.values():
        dsu.union(a, b)
    touched = {v for ends in forest.ends.values() for v in ends}

    def trees(tree_of):
        groups: dict[int, set[int]] = {}
        for v in touched:
            groups.setdefault(tree_of(v), set()).add(v)
        return sorted(sorted(g) for g in groups.values())

    # the end of a loop that no edge links is in no tree of `forest`
    assert trees(lambda v: forest.tree.get(v, v)) == trees(dsu.find)
    labels = {label for nbrs in forest.adj.values() for label in nbrs}
    edges = [(label, ends) for label, ends in forest.ends.items() if label in labels]
    assert forest.acyclic == (len(edges) == len(forest.ends))
    for u in range(n):
        for v in range(n):
            assert forest.path(u, v) == forest_path(edges, u, v)


class TestUnionEngine:
    def test_pack_elements_matches_probing_reference(self):
        for seed in range(40):
            for oracle in engine_oracles(seed):
                for k in (1, 2, 3):
                    assert pack_elements(oracle, k, oracle.ground) == \
                        pack_elements(reference(oracle), k, oracle.ground)

    def test_pack_bases_matches_reference_on_benchmark_shapes(self):
        # nwt n=24 k=2 and fkk n=11 k=2 are the spanning-nwt and
        # steiner-fkk benchmark shapes (fkk instances are already reduced).
        for seed in (1, 2):
            nwt = generate("nwt", 24, 2, seed).graph
            h = reduced_fkk(11, 2, seed)
            for oracle in (graphic_matroid(nwt.vertices, nwt.edges), HypergraphicMatroid(h)):
                assert pack_bases(oracle, 2) == pack_bases(reference(oracle), 2)
                assert_pack_matches_reference(oracle, 2)

    def test_pruned_search_matches_unpruned_reference(self):
        # Skipping the sets earlier failed searches closed changes no
        # part, no unplaced element and no reached set, on all three
        # oracles; k runs past the rank, where most elements fail.
        failed = 0
        for seed in range(30):
            for oracle in failing_oracles(seed):
                for k in sorted({1, 2, len(oracle.greedy_basis()) + 1}):
                    failed += assert_pack_matches_reference(oracle, k)
        assert failed > 200

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
    def test_pruned_search_matches_unpruned_reference_property(self, seed, k):
        for oracle in failing_oracles(seed):
            assert_pack_matches_reference(oracle, k)

    @staticmethod
    def failed_search_reach(monkeypatch) -> list[int]:
        """The size of each reached set a failed search returns, from here on."""
        reach = []
        search = treepack.matroid._union_augment

        def counted(*args):
            seen = search(*args)
            if seen is not None:
                reach.append(len(seen))
            return seen

        monkeypatch.setattr(treepack.matroid, "_union_augment", counted)
        return reach

    def test_failed_searches_stay_out_of_closed_sets(self, monkeypatch):
        # The spanning-nwt benchmark shape, nwt n=24 k=2, plus an isolated
        # vertex: |V| - 1 = 24 is above the rank, so the parts never fill
        # and every search runs.  Its 26 failed searches reach 72 elements
        # between them; without the pruning they reach 1,178, nearly all
        # inside sets already closed.
        reach = self.failed_search_reach(monkeypatch)
        nwt = generate("nwt", 24, 2, 1).graph
        oracle = graphic_matroid(nwt.vertices | {24}, nwt.edges)
        result = pack_bases(oracle, 2)
        assert len(reach) == len(result.unplaced) == 26
        assert sum(reach) < 100 < 1000 < reference_pack(oracle, 2, oracle.ground)[3]

    def test_full_parts_stop_the_search(self, monkeypatch):
        # On nwt n=24 k=2 itself both parts are spanning trees after 46
        # placements, so the other 26 elements are unplaced with no search.
        reach = self.failed_search_reach(monkeypatch)
        nwt = generate("nwt", 24, 2, 1).graph
        oracle = graphic_matroid(nwt.vertices, nwt.edges)
        result = pack_bases(oracle, 2)
        assert (len(reach), len(result.unplaced), result.size) == (0, 26, 2 * 23)
        assert result.reached == frozenset(oracle.ground)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_circuit_matches_probing(self, seed):
        rng = SplitMix64(seed)
        shared = HypergraphicMatroid(shared_pair_hypergraph(seed))
        for oracle in (*engine_oracles(seed), shared):
            pool = [e for e in oracle.ground if rng.below(3)]
            assert_circuits_match_probing(oracle, set(oracle.greedy_basis(pool)))

    def test_circuit_matches_probing_on_reduced_fkk(self):
        # Parts of 10 hyperedges: a basis of each packing, and one part
        # of a 2-fold packing with the other's elements to probe.
        for seed in (1, 2):
            oracle = HypergraphicMatroid(reduced_fkk(11, 2, seed))
            parts = pack_bases(oracle, 2).parts
            assert min(len(p) for p in parts) >= 10
            for part in parts:
                assert_circuits_match_probing(oracle, set(part))

    def test_chain_updates_keep_a_forest_of_the_part(self):
        # The state a chain update leaves must be a representative forest
        # of exactly the part, as `witness` would find one.  `witness` and
        # the probing reference come from a plain oracle: the override
        # below also grows every forest of `Checked`'s own `witness`.  Only
        # chain updates count: a part built empty has no arrival.
        class Checked(HypergraphicMatroid):
            updates = 0

            def _part_update(self, part, state, left, arrived):
                new = super()._part_update(part, state, left, arrived)
                assert set(new.ends) == part and plain.witness(part) is not None
                assert all(set(pair) <= h.hyperedges[e]
                           for e, pair in new.ends.items())
                Checked.updates += bool(arrived)
                return new

        for seed in range(40):
            h = engine_hypergraph(seed)
            plain = HypergraphicMatroid(h)
            for k in (1, 2, 3):
                checked = Checked(h)
                assert pack_elements(checked, k, checked.ground) == \
                    pack_elements(reference(plain), k, plain.ground)
        assert Checked.updates > 200

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_rooted_forest_paths_match_search(self, seed):
        rng = SplitMix64(seed)
        n = 1 + rng.below(12)
        order = list(range(n))
        rng.shuffle(order)
        # a random forest: each vertex after the first joins an earlier one
        # or starts a tree; labels are arbitrary distinct values
        edges = [(100 + i, (order[i], order[rng.below(i)]))
                 for i in range(1, n) if rng.below(4)]
        forest = _RootedForest()
        forest.exchange([], dict(edges), dict(edges))
        assert forest.acyclic
        for u in range(n + 1):
            for v in range(n + 1):
                assert forest.path(u, v) == forest_path(edges, u, v)
        # one more edge, perhaps a loop, is a forest exactly when it joins
        # two trees
        extra = (rng.below(n + 1), rng.below(n + 1))
        forest.exchange([], [0], {0: extra})
        assert forest.acyclic == \
            graphic_independent(range(n + 1), [ends for _, ends in edges] + [extra])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_arrival_order_moves_no_path(self, seed):
        # One random edge set, with a loop and an edge that closes a cycle,
        # linked by `exchange` in several shuffled orders and batches: every
        # build of the forest among them is acyclic, every build of the
        # whole set is not, and every path is the one a breadth-first
        # search finds, so the order the graphic oracle links its
        # arrivals in changes no circuit.
        rng = SplitMix64(seed)
        n = 2 + rng.below(10)
        order = list(range(n))
        rng.shuffle(order)
        tree_edges = [(i, (order[i], order[rng.below(i)]))
                      for i in range(1, n) if rng.below(4)]
        # the loop sits at an end of a tree edge, and the closing edge
        # joins it to another vertex of its tree
        a = tree_edges[rng.below(len(tree_edges))][1][0] if tree_edges else order[0]
        joined = [b for b in range(n)
                  if b != a and forest_path(tree_edges, a, b) is not None]
        extras = [(n, (a, a))]
        if joined:
            extras.append((n + 1, (a, joined[rng.below(len(joined))])))
        for edges, acyclic in ((tree_edges, True), (tree_edges + extras, False)):
            for _ in range(4):
                shuffled = list(edges)
                rng.shuffle(shuffled)
                forest = _RootedForest()
                while shuffled:
                    batch = 1 + rng.below(len(shuffled))
                    forest.exchange([], dict(shuffled[:batch]), dict(shuffled[:batch]))
                    shuffled = shuffled[batch:]
                assert forest.acyclic is acyclic
                assert sorted(forest.ends.items()) == sorted(edges)
                assert_forest_matches_edges(forest, n)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_exchanged_forest_matches_a_fresh_one(self, seed):
        # Random valid exchanges: drop some edges, then link arrivals that
        # keep a forest (checked by union-find), some of them re-using a
        # dropped label.  After each, the forest must agree with its edges
        # on trees, paths and acyclicity.
        rng = SplitMix64(seed)
        n = 2 + rng.below(10)
        forest = _RootedForest()
        next_label = 0
        for _ in range(1 + rng.below(8)):
            left = [e for e in forest.ends if not rng.below(3)]
            kept = [ends for e, ends in forest.ends.items() if e not in left]
            dsu = _DSU()
            for a, b in kept:
                dsu.union(a, b)
            arrived = {}
            for label in [*left[:rng.below(len(left) + 1)], *range(next_label, next_label + 4)]:
                a, b = rng.below(n), rng.below(n)
                if a != b and dsu.union(a, b):
                    arrived[label] = (a, b)
            next_label += 4
            forest.exchange(left, arrived, arrived)
            assert_forest_matches_edges(forest, n)
        # an arrival inside one tree, or a loop, closes a cycle
        a = rng.below(n)
        same_tree = [b for b in range(n) if b == a or forest.path(a, b) is not None]
        forest.exchange([], [-1], {-1: (a, same_tree[rng.below(len(same_tree))])})
        assert not forest.acyclic
        assert not graphic_independent(range(n), forest.ends.values())

    def test_reached_set_meets_the_edmonds_identity(self):
        # The failed searches reach a set A that holds every unplaced
        # element, that every part spans, and at which the union rank
        # formula |E - A| + k * rank(A) attains the packed size.
        nonempty = 0
        for seed in range(40):
            for oracle in engine_oracles(seed):
                for k in (1, 2, 3):
                    result = pack_bases(oracle, k)
                    reached = result.reached
                    assert_edmonds_identity(oracle, k, oracle.ground, result.parts,
                                            result.unplaced, reached)
                    expected = pack_bases(reference(oracle), k)
                    assert (result.parts, result.unplaced, result.size) == \
                        (expected.parts, expected.unplaced, expected.size)
                    assert reached == expected_reached(oracle, k, result.size,
                                                       expected.reached, oracle.ground)
                    nonempty += bool(reached)
        assert nonempty > 40

    def test_rank_matches_greedy_basis(self):
        for seed in range(40):
            rng = SplitMix64(seed)
            for oracle in engine_oracles(seed):
                assert oracle.rank() == len(oracle.greedy_basis())
                subset = [e for e in oracle.ground if rng.below(2)]
                assert oracle.rank(subset) == len(oracle.greedy_basis(subset))
                with pytest.raises(InvalidArgumentError):
                    oracle.rank([max(oracle.ground, default=0) + 1])

    def test_hypergraphic_rank_stops_at_a_full_part(self, monkeypatch):
        # Rank is a one-part packing, so it stops once the part holds
        # |V| - 1 hyperedges, and a refused hyperedge costs no exchange
        # search: 10, 23 and 8 searches here, one per placement, where one
        # search per hyperedge makes 33, 79 and 35.
        calls = 0
        augment = HypergraphicMatroid._augment

        def counted(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return augment(self, *args, **kwargs)

        monkeypatch.setattr(HypergraphicMatroid, "_augment", counted)
        for (n, k), searches in {(11, 2): 10, (24, 2): 23, (9, 3): 8}.items():
            oracle = HypergraphicMatroid(reduced_fkk(n, k, 1))
            calls = 0
            rank = oracle.rank()
            assert (rank, calls) == (n - 1, searches)
            assert rank == len(oracle.greedy_basis())

    def test_element_outside_the_ground_set_is_refused(self):
        # Every oracle kind names the stray element, before any search.
        g = triangle()
        h = Hypergraph(range(3), {0: (0, 1, 2), 1: (0, 1)})
        oracles = [Matroid(range(3), lambda s: len(s) <= 1),
                   GraphicMatroid(g.vertices, g.edges),
                   HypergraphicMatroid(h)]
        for oracle in oracles:
            for k in (1, 2):
                with pytest.raises(InvalidArgumentError, match=r"\[7\] are not in"):
                    pack_elements(oracle, k, [0, 7])
            assert pack_elements(oracle, 1, [1, 0, 1]) == pack_elements(oracle, 1, [0, 1])

    def test_dependent_part_after_a_chain_is_reported(self):
        class Lying(Matroid):
            def _circuit(self, part, state, y):
                return None  # claims every element fits

        oracle = Lying(range(2), lambda s: len(s) <= 1, name="lying")
        with pytest.raises(InternalInvariantError, match="broke part 0"):
            pack_elements(oracle, 1, [0, 1])

        class LyingGraphic(GraphicMatroid):
            def _circuit(self, part, state, y):
                return None

        # An isolated fourth vertex keeps the parts from filling before the
        # third edge is asked about.
        g = triangle()
        with pytest.raises(InternalInvariantError, match="broke part 0"):
            pack_elements(LyingGraphic(g.vertices | {3}, g.edges), 1, g.edges)

        class LyingHypergraphic(HypergraphicMatroid):
            def _circuit(self, part, state, y):
                return None

        # three copies of a triple have rank 2: the chain update cannot
        # insert the third (a fourth vertex, as above)
        h = Hypergraph(range(4), {i: (0, 1, 2) for i in range(3)})
        with pytest.raises(InternalInvariantError, match="broke part 0"):
            pack_elements(LyingHypergraphic(h), 1, [0, 1, 2])

    def test_non_forest_exchange_is_reported(self):
        # An exchange search that "succeeds" where none fits hands back a
        # chain whose pair closes a cycle; the forest built from it must
        # be refused, both in `witness` and in a chain update.  A circuit
        # query runs no search, so in the packing the circuit query lies
        # too: it claims every element fits, and the chain update's search
        # hands back the cycle.
        class Cyclic(HypergraphicMatroid):
            def _augment(self, forest, new_eid):
                chain = super()._augment(forest, new_eid)
                return {new_eid: self._pairs[new_eid][0]} if chain is None else chain

        class CyclicFit(Cyclic):
            def _circuit(self, part, state, y):
                return None

        # A fourth vertex keeps the part from filling before the third pair.
        triangle_pairs = Hypergraph(range(4), {0: (0, 1), 1: (1, 2), 2: (0, 2)})
        with pytest.raises(InternalInvariantError, match="produced a non-forest"):
            Cyclic(triangle_pairs).witness([0, 1, 2])
        with pytest.raises(InternalInvariantError, match="produced a non-forest"):
            pack_elements(CyclicFit(triangle_pairs), 1, [0, 1, 2])

    def test_work_stays_incremental(self, monkeypatch):
        # Seeding the k empty parts is the only build from nothing: one
        # forest per part, which chains then update in place.  No witness
        # replay runs, and a refused circuit query costs no exchange
        # search: no confirming searches, no per-chain rebuilds and no rank
        # pass.  A circuit query runs no search either; each arrival a chain
        # update inserts runs one, and full parts are asked only when no
        # other part takes the element.  Searches and circuit queries:
        # (20, 55) at n=11, (47, 135) at n=24 and (24, 25) at n=9, k=3.  A
        # failed search per refusal made 55, 136 and 25 searches, and a rank
        # pass would add 79.
        calls = {"witness": 0, "_part_state": 0, "_augment": 0, "_circuit": 0, "__init__": 0}
        for owner, name in ((HypergraphicMatroid, "witness"),
                            (HypergraphicMatroid, "_part_state"),
                            (HypergraphicMatroid, "_augment"),
                            (HypergraphicMatroid, "_circuit"),
                            (_RootedForest, "__init__")):
            original = getattr(owner, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        for (n, k), work in {(11, 2): (20, 55), (24, 2): (47, 135), (9, 3): (24, 25)}.items():
            calls.update(witness=0, _part_state=0, _augment=0, _circuit=0, __init__=0)
            oracle = HypergraphicMatroid(reduced_fkk(n, k, 1))
            result = pack_bases(oracle, k)
            assert calls["_part_state"] == k and calls["witness"] == 0
            assert calls["__init__"] == k
            assert (calls["_augment"], calls["_circuit"]) == work
            assert result.size == k * len(oracle.greedy_basis())
        # The spanning-nwt benchmark shape: chains update a part's forest
        # 47 times, and none rebuilds it.
        calls["__init__"] = 0
        nwt = generate("nwt", 24, 2, 1).graph
        assert pack_bases(graphic_matroid(nwt.vertices, nwt.edges), 2).size == 2 * 23
        assert calls["__init__"] == 2

    def test_a_new_vertex_links_as_a_leaf(self, monkeypatch):
        # A link that brings in a vertex the forest does not hold hangs it
        # as a leaf; only a cut, or a link of two trees, re-labels a
        # subtree.  That is 5 re-labellings on the spanning-nwt shape (nwt
        # n=24, k=2; 48 links), 2 on nwt n=9 at k=4, and none on a path
        # built one new vertex at a time.  Re-rooting at every link made
        # 50, 27 and n - 1.
        calls = 0
        original = _RootedForest._relabel

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return original(self, *args)

        monkeypatch.setattr(_RootedForest, "_relabel", counted)
        for (n, k), relabels in {(24, 2): 5, (9, 4): 2}.items():
            calls = 0
            g = generate("nwt", n, 2, 1).graph
            pack_bases(graphic_matroid(g.vertices, g.edges), k)
            assert calls == relabels
        for n in (2, 9, 40):
            calls = 0
            path = graphic_matroid(range(n), {i: (i, i + 1) for i in range(n - 1)})
            assert pack_bases(path, 1).size == n - 1
            assert calls == 0

    def test_fit_tests_spare_the_circuits(self, monkeypatch):
        # An edge is tested against the parts by tree ids before any path
        # is walked, and a search ends at the first edge it enqueues that
        # some part takes.  Paths walked: 17 on the spanning-nwt shape
        # (nwt n=24, k=2), none on nwt n=9 at k=4, and 41 on nwt n=400
        # seed 3 at k=2, which places 798 edges.  Walking the path of every
        # element asked about and dequeued made 82, 29 and 1,442.
        calls = 0
        original = GraphicMatroid._circuit

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return original(self, *args)

        monkeypatch.setattr(GraphicMatroid, "_circuit", counted)
        for (n, k, seed), circuits in {(24, 2, 1): 17, (9, 4, 1): 0, (400, 2, 3): 41}.items():
            calls = 0
            g = generate("nwt", n, 2, seed).graph
            pack_bases(graphic_matroid(g.vertices, g.edges), k)
            assert calls == circuits


def several_trees_hypergraph(seed: int) -> tuple[Hypergraph, list[int]]:
    """A hypergraph and the hyperedges of a part whose forest has several
    trees and isolated vertices.  Each vertex gets one of four blocks, and
    the part's hyperedges lie inside blocks 1 to 3, as many in each as it
    has vertices and up to two more; block 0's vertices meet none of them.
    The other hyperedges meet any vertices."""
    rng = SplitMix64(seed)
    n = 4 + rng.below(9)
    home = [rng.below(4) for _ in range(n)]
    h = Hypergraph(range(n))
    for b in (1, 2, 3):
        block = [v for v in range(n) if home[v] == b]
        for _ in range(len(block) + rng.below(3) if len(block) > 1 else 0):
            h.add_hyperedge(len(h.hyperedges),
                            rng.sample(block, min(len(block), 2 + rng.below(2))))
    inner = list(h.hyperedges)
    for _ in range(3 + rng.below(8)):
        h.add_hyperedge(len(h.hyperedges), rng.sample(range(n), 2 + rng.below(2)))
    return h, inner


def parallel_hypergraph(seed: int) -> Hypergraph:
    """Hyperedges of 2 vertices, with 3-vertex ones among them, each drawn
    again as a parallel copy with probability 1/3."""
    rng = SplitMix64(seed)
    n = 3 + rng.below(6)
    h = Hypergraph(range(n))
    drawn: list[list[int]] = []
    for eid in range(2 + rng.below(12)):
        if drawn and not rng.below(3):
            members = drawn[rng.below(len(drawn))]
        else:
            members = rng.sample(range(n), 2 if rng.below(4) else 3)
        drawn.append(members)
        h.add_hyperedge(eid, members)
    return h


def closure_inputs(seed: int):
    """(oracle, part) pairs of every small kind from the seed: the
    hypergraphic engine oracle, shared pairs, several trees and parallel
    hyperedges, each part a greedy basis of a random pool (for several
    trees, of the hyperedges inside blocks)."""
    rng = SplitMix64(seed)
    h, inner = several_trees_hypergraph(seed)
    pools = ((engine_oracles(seed)[1], None),
             (HypergraphicMatroid(shared_pair_hypergraph(seed)), None),
             (HypergraphicMatroid(h), inner),
             (HypergraphicMatroid(parallel_hypergraph(seed)), None))
    for oracle, pool in pools:
        pool = [e for e in oracle.ground if rng.below(3)] if pool is None else pool
        yield oracle, set(oracle.greedy_basis(pool))


def assert_closure_matches_references(oracle: HypergraphicMatroid, part, state=None,
                                      probe: bool = True) -> tuple[int, int]:
    """For every hyperedge y outside `part`, the tight-set closure's answer
    equals the set one failed exchange search displaces
    (`reference_hypergraphic_circuit`, on the same forest) and, with
    `probe`, the probing reference's, None included.  `state` is the
    part's forest, grown by `_part_state` when not given.  Returns how many
    circuits and how many fits were compared."""
    forest = oracle._part_state(part) if state is None else state
    prober = reference(oracle)
    circuits = fits = 0
    for y in oracle.ground:
        if y in part:
            continue
        circuit = oracle._circuit(part, forest, y)
        assert reference_hypergraphic_circuit(oracle, forest, y) == circuit
        if probe:
            assert prober._circuit(part, part, y) == circuit
        circuits += circuit is not None
        fits += circuit is None
    return circuits, fits


def augment_results(monkeypatch) -> list:
    """The result of every hypergraphic `_augment` call made inside
    `pack_bases`, from here on."""
    results = []
    inside = [False]
    augment, pack = HypergraphicMatroid._augment, treepack.matroid.pack_bases

    def spied_augment(self, *args, **kwargs):
        chain = augment(self, *args, **kwargs)
        if inside[0]:
            results.append(chain)
        return chain

    def spied_pack(oracle, k):
        inside[0] = True
        try:
            return pack(oracle, k)
        finally:
            inside[0] = False

    monkeypatch.setattr(HypergraphicMatroid, "_augment", spied_augment)
    monkeypatch.setattr(treepack.matroid, "pack_bases", spied_pack)
    monkeypatch.setattr(treepack.packing, "pack_bases", spied_pack)
    return results


class TestTightSetClosure:
    """A hypergraphic circuit is closed along forest paths from y's
    vertices; it must equal the set a failed exchange search displaces and
    the probing reference's circuit."""

    def test_matches_references_on_small_kinds(self):
        # Every kind gives circuits and fits: parts from random pools of
        # the engine oracles and of shared pairs, forests of several trees
        # with isolated vertices, and 2-vertex and parallel hyperedges.
        # 84 of the forests of the third kind have two trees or more and
        # an isolated vertex.
        counts = [[0, 0] for _ in range(4)]
        shapes = 0
        for seed in range(150):
            for kind, (oracle, part) in enumerate(closure_inputs(seed)):
                forest = oracle._part_state(part)
                circuits, fits = assert_closure_matches_references(oracle, part, forest)
                counts[kind][0] += circuits
                counts[kind][1] += fits
                if kind == 2:
                    roots = {forest.tree[v] for ends in forest.ends.values() for v in ends}
                    vertices = several_trees_hypergraph(seed)[0].vertices
                    isolated = vertices - set(forest.tree)
                    shapes += len(roots) >= 2 and bool(isolated)
        assert all(circuits > 200 and fits > 50 for circuits, fits in counts)
        assert shapes > 50

    def test_matches_references_on_reduced_fkk_parts(self):
        # Every part of each packing, with the forest `pack_bases` hands
        # back; the probing reference runs up to n=24, where it takes a
        # second; at n=48 it takes 13.
        for n in (11, 24, 48, 96):
            for k in (2, 3):
                oracle = HypergraphicMatroid(reduced_fkk(n, k, 1))
                result = pack_bases(oracle, k)
                assert result.size == k * (n - 1)
                for part, state in zip(result.parts, result.states):
                    circuits, _ = assert_closure_matches_references(
                        oracle, part, state, probe=n <= 24)
                    assert circuits > 0

    def test_every_search_in_a_packing_finds_a_chain(self, monkeypatch):
        # A circuit query runs no exchange search, so every search
        # `pack_bases` runs inserts a hyperedge in a chain update, and
        # finds a chain: on reduced fkk, and on the connector-kriesell
        # benchmark pool at seed 1, where each instance refuses 15.5
        # circuit queries on average.
        results = augment_results(monkeypatch)
        for n, k in ((24, 2), (9, 3)):
            oracle = HypergraphicMatroid(reduced_fkk(n, k, 1))
            assert treepack.matroid.pack_bases(oracle, k).size == k * (n - 1)
        assert None not in results and len(results) == 47 + 24
        results.clear()
        monkeypatch.syspath_prepend(str(BENCH))
        import workloads
        for inst in workloads.build_pool("connector-kriesell", 1):
            assert workloads.solve(inst).outcome == "packed"
        assert None not in results and len(results) == 751


def state_snapshot(state):
    """A copy of a part's state to compare with after queries: a forest's
    fields, or the part itself, which is the probing oracle's state."""
    if isinstance(state, _RootedForest):
        return (dict(state.ends), {v: dict(nbrs) for v, nbrs in state.adj.items()},
                dict(state.tree), dict(state.depth), dict(state.up), state.acyclic)
    return set(state)


class TestCircuitQueryOnlyReads:
    """A circuit query reads the part's state and changes nothing, for the
    probing, graphic and hypergraphic oracles; no hypergraphic exchange
    search runs for it, as inserting is `_part_update`'s alone."""

    def test_queries_leave_the_part_as_it_was(self, monkeypatch):
        searches = 0
        augment = HypergraphicMatroid._augment

        def counted(self, *args):
            nonlocal searches
            searches += 1
            return augment(self, *args)

        monkeypatch.setattr(HypergraphicMatroid, "_augment", counted)
        answers: dict[str, list[int]] = {}

        def assert_unchanged(oracle, part, state=None) -> None:
            state = oracle._part_state(part) if state is None else state
            items, before, searched = set(part), state_snapshot(state), searches
            counts = answers.setdefault(oracle.name, [0, 0])
            for y in sorted(set(oracle.ground) - part):
                counts[oracle._circuit(part, state, y) is None] += 1
                assert (part, state_snapshot(state)) == (items, before), y
            # The probing reference's predicate grows a forest per probe.
            if isinstance(oracle, HypergraphicMatroid):
                assert searches == searched

        for seed in range(60):
            rng = SplitMix64(seed)
            graphic = engine_oracles(seed)[0]
            for oracle, part in closure_inputs(seed):
                assert_unchanged(oracle, part)
                assert_unchanged(reference(oracle), part)
            part = set(graphic.greedy_basis([e for e in graphic.ground if not rng.below(3)]))
            assert_unchanged(graphic, part)
            assert_unchanged(reference(graphic), part)
        for n in (11, 24):
            for k in (2, 3):
                oracle = HypergraphicMatroid(reduced_fkk(n, k, 1))
                result = pack_bases(oracle, k)
                for part, state in zip(result.parts, result.states):
                    assert_unchanged(oracle, set(part), state)
                    if n == 11:
                        assert_unchanged(reference(oracle), set(part))
        # The spanning-nwt benchmark shape: the graphic forests pack_bases
        # hands back.
        nwt = generate("nwt", 24, 2, 1).graph
        graphic = graphic_matroid(nwt.vertices, nwt.edges)
        result = pack_bases(graphic, 2)
        for part, state in zip(result.parts, result.states):
            assert_unchanged(graphic, set(part), state)
        # Every oracle answered with circuits and with fits.
        assert answers.keys() == {"reference", "graphic", "hypergraphic"}
        assert all(circuits > 100 and fits > 100 for circuits, fits in answers.values())


def stop_oracles(seed: int):
    """Oracles for the stop at full parts, from the seed: a connected
    multigraph with loops and parallel edges, the same edges with an
    isolated vertex added, a hypergraph of 4 to 15 hyperedges, and the same
    hyperedges with an unused vertex added.  The two with the extra vertex
    have rank below |V| - 1, so their parts never fill."""
    rng = SplitMix64(seed)
    g = random_multigraph(seed, max_vertices=6, max_edges=20, connected=True)
    h = random_hypergraph(seed, n=3 + rng.below(4), m=4 + rng.below(12))
    spare = len(g.vertices)
    return (graphic_matroid(g.vertices, g.edges),
            graphic_matroid(g.vertices | {spare}, g.edges),
            HypergraphicMatroid(h),
            HypergraphicMatroid(Hypergraph(range(len(h.vertices) + 1), h.hyperedges)))


def assert_stop_matches_reference(seed: int) -> tuple[int, int]:
    """For every stop oracle of the seed and every k up to its rank + 1, on
    the ground set and on a proper subset: the engine's parts and unplaced
    elements equal the unpruned reference's, its reached set equals the
    reference's unless the parts are full and is the element set when they
    are, and the Edmonds identity holds.  Returns how many packings stopped
    with elements left to try, and how many had every part a basis
    without being full."""
    rng = SplitMix64(seed)
    stopped = short_bases = 0
    for oracle in stop_oracles(seed):
        rank = len(oracle.greedy_basis())
        full_rank = rank == oracle._rank_bound
        subset = [e for e in oracle.ground if rng.below(4)][:-1]
        for k in range(1, rank + 2):
            for elements in (oracle.ground, subset):
                packed, unplaced, reached = treepack.matroid._pack(oracle, k, elements)
                parts = [part.items for part in packed]
                ref_parts, ref_unplaced, ref_reached, _ = reference_pack(oracle, k, elements)
                assert (parts, unplaced) == (ref_parts, ref_unplaced)
                assert pack_elements(oracle, k, elements) == (parts, unplaced)
                size = sum(len(p) for p in parts)
                full = parts_full(oracle, k, size)
                assert full_rank or not full
                assert reached == expected_reached(oracle, k, size, ref_reached, elements)
                assert_edmonds_identity(oracle, k, elements, parts, unplaced, reached)
                last_placed = max(set().union(*parts), default=-1)
                stopped += full and bool(unplaced) and max(unplaced) > last_placed
                short_bases += not full_rank and size == k * rank
    return stopped, short_bases


class TestFullPartsStop:
    """Once every part holds |V| - 1 elements the engine stops searching;
    that changes no part and no unplaced element."""

    def test_stop_matches_unpruned_reference(self):
        stopped = short_bases = 0
        for seed in range(40):
            s, b = assert_stop_matches_reference(seed)
            stopped += s
            short_bases += b
        # The stop runs often, and parts that are bases below the bound
        # (rank < |V| - 1) keep searching.
        assert stopped > 100 and short_bases > 100

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_stop_matches_unpruned_reference_property(self, seed):
        assert_stop_matches_reference(seed)


def filling_oracles(seed: int, k: int):
    """A graphic oracle on a connected multigraph and a hypergraphic one,
    each with about k * (|V| - 1) elements, so that the k parts fill one
    after another and chains often pass through a part twice."""
    rng = SplitMix64(seed)
    n = 6 + rng.below(7)
    g = random_multigraph(seed, max_vertices=n, max_edges=k * (n - 1) + rng.below(5),
                          connected=True)
    h = random_hypergraph(seed, n=n, m=k * (n - 1) + rng.below(6))
    return graphic_matroid(g.vertices, g.edges), HypergraphicMatroid(h)


class EngineSpy:
    """Watches the parts of every packing run while it is installed.

    `steps` holds, per element y the search dequeued, y's own part,
    whether another part was full, and the parts asked about y in order,
    each as (index, full, fits)."""

    def __init__(self, monkeypatch):
        self.parts: list = []
        self.steps: list[tuple[int, int | None, bool, list[tuple[int, bool, bool]]]] = []
        part_init, circuit = _Part.__init__, _Part.circuit
        spy = self

        def init(part, oracle, index, items):
            if index == 0:
                spy.parts = []
                spy.steps.append((None, None, False, []))  # no step spans two packings
            spy.parts.append(part)
            part_init(part, oracle, index, items)

        def asked(part, oracle, y):
            answer = circuit(part, oracle, y)
            if spy.steps[-1][0] != y:
                y_at = next((p.index for p in spy.parts if y in p.items), None)
                spy.steps.append((y, y_at, any(
                    len(p.items) == oracle._rank_bound for p in spy.parts if p.index != y_at), []))
            full = len(part.items) == oracle._rank_bound
            spy.steps[-1][3].append((part.index, full, answer is None))
            return answer

        monkeypatch.setattr(_Part, "__init__", init)
        monkeypatch.setattr(_Part, "circuit", asked)

    def check_steps(self, k: int) -> tuple[int, int]:
        """Each step asks the parts y is not in, full ones last, stops at the
        first that takes y, asks a full part only once every part that is
        not full has refused y, and asks every part when none takes y.
        Returns how many steps asked a full part and how many found y a
        place without asking the full parts they had."""
        full_asked = full_skipped = 0
        for _, y_at, had_full, answers in self.steps:
            if not answers:
                continue
            indices = [i for i, _, _ in answers]
            assert y_at not in indices and len(set(indices)) == len(indices)
            fits = [fit for _, _, fit in answers]
            assert not any(fits[:-1])
            if not fits[-1]:
                assert len(answers) == k - (y_at is not None)
            fulls = [full for _, full, _ in answers]
            assert fulls == sorted(fulls)
            assert not any(fit for _, full, fit in answers if full)
            full_asked += any(fulls)
            full_skipped += had_full and fits[-1] and not any(fulls)
        return full_asked, full_skipped


class TestOneSearchPerPlacement:
    """Full parts are asked last, and a chain update inserts each arrival
    by one exchange search; parts, unplaced elements and reached sets stay
    those of the unpruned reference."""

    @staticmethod
    def assert_matches_reference(spy: EngineSpy, seed: int) -> None:
        for k in (2, 3, 4):
            for oracle in filling_oracles(seed, k):
                assert_pack_matches_reference(oracle, k)
            spy.check_steps(k)
            spy.steps.clear()

    def test_matches_reference_as_parts_fill(self, monkeypatch):
        spy = EngineSpy(monkeypatch)
        for seed in range(100):
            self.assert_matches_reference(spy, seed)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_reference_as_parts_fill_property(self, seed):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.assert_matches_reference(EngineSpy(monkeypatch), seed)

    def test_part_update_insertion_equals_a_fresh_build(self):
        # For every y that fits a part, with nothing or one element taken
        # out of the part as well: inserting y by `_part_update` into the
        # part's forest gives the forest that inserting y into a fresh
        # build of what is left gives.
        checked = 0
        for seed in range(200):
            rng = SplitMix64(seed)
            oracle = HypergraphicMatroid(shared_pair_hypergraph(seed))
            part = set(oracle.greedy_basis([e for e in oracle.ground if rng.below(3)]))
            for y in sorted(set(oracle.ground) - part):
                for left in ([], *([z] for z in sorted(part))):
                    forest = oracle._part_state(part)
                    if oracle._circuit(part, forest, y) is not None:
                        break
                    after = (part - set(left)) | {y}
                    fresh = _RootedForest()
                    kept = {e: pair for e, pair in forest.ends.items() if e not in left}
                    fresh.exchange([], kept, kept)
                    fresh = oracle._part_update(after, fresh, (), [y])
                    assert oracle._part_update(after, forest, left, [y]).ends == fresh.ends
                    checked += 1
        assert checked > 300

    def test_full_parts_are_asked_last(self, monkeypatch):
        spy = EngineSpy(monkeypatch)
        full_asked = full_skipped = 0
        for seed in range(40):
            for k in (2, 3, 4):
                for oracle in filling_oracles(seed, k):
                    pack_bases(oracle, k)
                asked, skipped = spy.check_steps(k)
                full_asked, full_skipped = full_asked + asked, full_skipped + skipped
                spy.steps.clear()
        # 1,180 steps ask a full part, and 2,027 place y without asking
        # the full parts.
        assert full_asked > 1000 and full_skipped > 1000


class SearchSpy:
    """Watches every `_union_augment` call while it is installed.

    Before each call it asks the probing predicate whether x fits some part
    as the parts stand; it counts the exchange-search queues the call
    builds (a `deque` made by `_union_augment` itself, not by a
    hypergraphic `_augment`) and checks that the call builds one exactly
    when x fits no part.  `direct` and `searched` count the calls of each
    kind."""

    def __init__(self, monkeypatch):
        self.direct = self.searched = 0
        augment = treepack.matroid._union_augment
        make_deque = treepack.matroid.deque
        builds = [0]
        spy = self

        def counted_deque(*args):
            builds[0] += sys._getframe(1).f_code is augment.__code__
            return make_deque(*args)

        def spied(oracle, parts, asked, placement, x, closed):
            fits = any(oracle.independent(part.items | {x}) for part in parts)
            before = builds[0]
            seen = augment(oracle, parts, asked, placement, x, closed)
            assert builds[0] - before == (not fits)
            assert seen is None or not fits
            spy.direct += fits
            spy.searched += not fits
            return seen

        monkeypatch.setattr(treepack.matroid, "deque", counted_deque)
        monkeypatch.setattr(treepack.matroid, "_union_augment", spied)


class TestSearchStateOnDemand:
    """An element that a part takes at once is placed with no search state;
    the search starts only once every part has refused it.  Parts, unplaced
    elements and reached sets stay those of the unpruned reference."""

    @staticmethod
    def assert_matches_reference(seed: int, ks) -> None:
        for k in ks:
            for oracle in (*failing_oracles(seed), *filling_oracles(seed, k)):
                assert_pack_matches_reference(oracle, k)

    def test_matches_reference_with_searches_on_demand(self, monkeypatch):
        spy = SearchSpy(monkeypatch)
        for seed in range(40):
            self.assert_matches_reference(seed, (1, 2, 3, 4))
        assert spy.direct > 5_000 and spy.searched > 2_000

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
    def test_matches_reference_with_searches_on_demand_property(self, seed, k):
        with pytest.MonkeyPatch.context() as monkeypatch:
            SearchSpy(monkeypatch)
            self.assert_matches_reference(seed, (k,))

    def test_benchmark_shapes_place_without_searching(self, monkeypatch):
        # The refute-nwt shape (nwt n=9, k=4): each of the 27 edges goes
        # into a part at once, and no search state is built; building it
        # for every element built 27.  The spanning-nwt shape (n=24, k=2):
        # one of 46 placements needs a search, where 46 were built.  The
        # other 26 edges meet full parts and are not tried.
        spy = SearchSpy(monkeypatch)
        for n, k, size, searched in ((9, 4, 27, 0), (24, 2, 46, 1)):
            spy.direct = spy.searched = 0
            nwt = generate("nwt", n, 2, 1).graph
            assert pack_bases(graphic_matroid(nwt.vertices, nwt.edges), k).size == size
            assert (spy.direct, spy.searched) == (size - searched, searched)


class TestFitTestMatchesCircuits:
    """The graphic oracle's fit test is its circuit query's None, and the
    engine that asks it first packs exactly as the circuit-only engine,
    which runs with `_fits` patched to None.  The hypergraphic and probing
    oracles have no fit test."""

    def test_fits_equals_a_circuit_of_none(self):
        assert Matroid._fits is None and HypergraphicMatroid._fits is None
        checked = [0, 0]

        def assert_fits(oracle, part, state=None) -> None:
            state = oracle._part_state(part) if state is None else state
            for y in sorted(set(oracle.ground) - part):
                fits = oracle._fits(part, state, y)
                assert fits == (oracle._circuit(part, state, y) is None), y
                checked[fits] += 1

        for seed in range(60):
            rng = SplitMix64(seed)
            graphic = engine_oracles(seed)[0]
            assert_fits(graphic, set(graphic.greedy_basis(
                [e for e in graphic.ground if not rng.below(3)])))
        # The spanning-nwt benchmark shape, with the forests pack_bases
        # hands back, and parts grown part of the way.
        nwt = generate("nwt", 24, 2, 1).graph
        graphic = graphic_matroid(nwt.vertices, nwt.edges)
        result = pack_bases(graphic, 2)
        for part, state in zip(result.parts, result.states):
            assert_fits(graphic, set(part), state)
        for part in pack_elements(graphic, 2, graphic.ground[:30])[0]:
            assert_fits(graphic, part)
        # 326 refusals and 179 fits.
        assert checked[0] > 300 and checked[1] > 150

    @staticmethod
    def packed(oracle, k: int, elements):
        """What `_pack` and `pack_bases` give, each state by its `ends`."""
        parts, unplaced, reached = treepack.matroid._pack(oracle, k, elements)
        result = pack_bases(oracle, k)
        return ([part.items for part in parts], unplaced, reached,
                [part.state.ends for part in parts],
                result, [state.ends for state in result.states])

    def test_fast_path_packs_as_the_circuit_only_path(self, monkeypatch):
        calls = [0]
        original = GraphicMatroid._circuit

        def counted(self, *args):
            calls[0] += 1
            return original(self, *args)

        monkeypatch.setattr(GraphicMatroid, "_circuit", counted)
        oracles = []
        for seed in range(40):
            rng = SplitMix64(seed)
            for k in (1, 2, 3, 4):
                for oracle in (filling_oracles(seed, k)[0], *stop_oracles(seed)[:2]):
                    subset = [e for e in oracle.ground if rng.below(4)]
                    oracles += [(oracle, k, oracle.ground), (oracle, k, subset)]
        for n, seed in ((24, 1), (400, 3)):
            g = generate("nwt", n, 2, seed).graph
            oracles.append((graphic_matroid(g.vertices, g.edges), 2, sorted(g.edges)))
        runs = []
        for fits in (GraphicMatroid._fits, None):
            monkeypatch.setattr(GraphicMatroid, "_fits", fits)
            calls[0] = 0
            runs.append(([self.packed(oracle, k, elements) for oracle, k, elements in oracles],
                         calls[0]))
        (fast, fast_circuits), (slow, slow_circuits) = runs
        assert fast == slow
        # 14,860 paths walked against 31,315.
        assert 2 * fast_circuits < slow_circuits


class TestAdjustUnion:
    def test_already_satisfied_is_unchanged(self):
        g = doubled_triangle()
        oracle = graphic_matroid(g.vertices, g.edges)
        family = UnionBasisFamily(parts=(frozenset({0, 2}), frozenset({1, 3})))
        out = adjust_union(oracle, family, {0: 0, 1: 1})
        assert out.parts == family.parts

    def test_triangle_swap(self):
        from conftest import triangle
        g = triangle()
        oracle = graphic_matroid(g.vertices, g.edges)
        family = UnionBasisFamily(parts=(frozenset({0, 1}), frozenset({2})))
        out = adjust_union(oracle, family, {2: 0})
        assert 2 in out.parts[0]
        assert out.union == family.union
        for part in out.parts:
            assert oracle.independent(part)

    def test_full_pin_set_noop(self):
        g = doubled_triangle()
        oracle = graphic_matroid(g.vertices, g.edges)
        family = UnionBasisFamily(parts=(frozenset({0, 2}), frozenset({1, 3})))
        out = adjust_union(oracle, family, {0: 0, 3: 1})
        assert out.parts == family.parts

    def test_non_injective_rejected(self):
        g = doubled_triangle()
        oracle = graphic_matroid(g.vertices, g.edges)
        family = UnionBasisFamily(parts=(frozenset({0, 2}), frozenset({1, 3})))
        with pytest.raises(InvalidArgumentError):
            adjust_union(oracle, family, {0: 0, 2: 0})

    def test_element_outside_family_rejected(self):
        g = doubled_triangle()
        oracle = graphic_matroid(g.vertices, g.edges)
        family = UnionBasisFamily(parts=(frozenset({0}), frozenset({1})))
        with pytest.raises(InvalidArgumentError):
            adjust_union(oracle, family, {5: 0})

    def test_hypergraphic_unions_also_supported(self):
        import itertools
        for seed in range(10):
            rng = SplitMix64(seed)
            h = random_hypergraph(seed, n=3 + rng.below(2), m=2 + rng.below(4))
            oracle = HypergraphicMatroid(h)
            for k in (2, 3):
                parts, unplaced = pack_elements(oracle, k, h.edge_ids())
                if unplaced:
                    continue
                family = UnionBasisFamily(parts=tuple(frozenset(p) for p in parts))
                pool = sorted(family.union)
                for pins in itertools.combinations(pool, min(2, len(pool))):
                    for targets in itertools.permutations(range(k), len(pins)):
                        out = adjust_union(oracle, family, dict(zip(pins, targets)))
                        assert out.union == family.union
                        for part in out.parts:
                            assert oracle.independent(part)
                        for e, i in zip(pins, targets):
                            assert e in out.parts[i]


class TestTextFormats:
    def test_hypergraph_round_trip(self):
        from treepack import parse_hypergraph, serialize_hypergraph
        h = Hypergraph(range(4), {0: (0, 1), 3: (1, 2, 3)})
        text = serialize_hypergraph(h)
        h2 = parse_hypergraph(text)
        assert h2.vertices == h.vertices and h2.hyperedges == h.hyperedges
        assert serialize_hypergraph(h2) == text
        # Blank lines and '#' comments may stand anywhere, around the header too.
        h3 = parse_hypergraph(serialize_hypergraph(h, ["by hand"]).replace("\n", "\n\n  # note\n"))
        assert h3.vertices == h.vertices and h3.hyperedges == h.hyperedges

    def test_hypergraph_duplicate_id_rejected(self):
        from treepack import InstanceParseError, parse_hypergraph
        with pytest.raises(InstanceParseError):
            parse_hypergraph("hypergraph 2 2\nh 0 0 1\nh 0 0 1\n")

    def test_hypergraph_duplicate_header_rejected(self):
        from treepack import InstanceParseError, parse_hypergraph
        with pytest.raises(InstanceParseError) as err:
            parse_hypergraph("hypergraph 3 1\nh 0 0 1\nhypergraph 2 1\n")
        assert err.value.line_number == 3

    def test_hypergraph_field_counts_and_integers_checked(self):
        from treepack import InstanceParseError, parse_hypergraph
        for line in ("v", "v 1 2 3", "v 1_0", "v +3", "v \u0663", "h 0 0 1_0"):
            with pytest.raises(InstanceParseError) as err:
                parse_hypergraph(f"hypergraph 2 0\n{line}\n")
            assert err.value.line_number == 2

    def test_representative_witness_one_record_per_line(self):
        from treepack import serialize_representatives
        h = Hypergraph(range(3), {0: (0, 1, 2), 1: (0, 1, 2)})
        ok, reps = hypergraphic_independent(h, [0, 1])
        assert ok
        text = serialize_representatives(reps)
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("rep ") and len(line.split()) == 4
                   for line in lines)

    def test_partition_witness_one_record_per_line(self):
        from treepack import serialize_partition
        h = Hypergraph(range(3), {i: (0, 1, 2) for i in range(4)})
        _, partition = rank_by_partitions(h, want_witness=True)
        text = serialize_partition(partition)
        assert text == "block 0 1 2\n"
