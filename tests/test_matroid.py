"""Matroid oracles, ranks, union packing and the pinning exchange."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from treepack import (
    Hypergraph,
    HypergraphicMatroid,
    InvalidArgumentError,
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
from treepack.generate import generate
from treepack.matroid import (
    GraphicMatroid,
    _DSU,
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
    reference_pack,
    triangle,
)


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


class TestGraphicIndependence:
    def test_two_triangle_edges(self):
        assert graphic_independent(range(3), [(0, 1), (1, 2)])

    def test_full_triangle(self):
        assert not graphic_independent(range(3), [(0, 1), (1, 2), (0, 2)])

    def test_loop_is_dependent(self):
        assert not graphic_independent(range(2), [(0, 0)])

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
            assert union_rank(h, None, 1) == hypergraphic_rank(h)

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
        assert result.size == 2 * oracle.rank()
        assert sorted(len(p) for p in result.parts) == [2, 2]

    def test_hypergraphic_four_copies(self):
        h = Hypergraph(range(3), {i: (0, 1, 2) for i in range(4)})
        oracle = HypergraphicMatroid(h)
        result = pack_bases(oracle, 2)
        assert result.size == 2 * oracle.rank()
        assert sorted(len(p) for p in result.parts) == [2, 2]

    def test_c4_deficiency(self):
        g = c4()
        oracle = graphic_matroid(g.vertices, g.edges)
        result = pack_bases(oracle, 2)
        assert result.size != 2 * oracle.rank()
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


def engine_oracles(seed: int):
    """A graphic oracle on a multigraph with loops and parallel edges, and a
    hypergraphic one, both from the seed."""
    rng = SplitMix64(seed)
    g = random_multigraph(seed, max_vertices=6, max_edges=12)
    h = random_hypergraph(seed, n=3 + rng.below(4), m=1 + rng.below(9))
    return graphic_matroid(g.vertices, g.edges), HypergraphicMatroid(h)


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
    |S - A| + k * rank(A) attains the packed size at it."""
    rank = oracle.rank(reached)
    assert set(unplaced) <= reached <= set(elements)
    assert sum(len(p) for p in parts) == len(set(elements) - reached) + k * rank
    for part in parts:
        assert oracle.rank(part & reached) == rank


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


def assert_forest_matches_fresh(forest: _RootedForest, n: int) -> None:
    """`forest` agrees with a forest built anew from its edges on the trees
    its edges' ends fall into, on each path's labels and on `acyclic`."""
    fresh = _RootedForest(dict(forest.ends))
    assert forest.acyclic == fresh.acyclic
    touched = {v for ends in forest.ends.values() for v in ends}

    def trees(f):
        groups: dict[int, set[int]] = {}
        for v in touched:
            groups.setdefault(f.tree[v], set()).add(v)
        return sorted(sorted(g) for g in groups.values())

    assert trees(forest) == trees(fresh)
    edges = list(forest.ends.items())
    for u in range(n):
        for v in range(n):
            path = forest.path(u, v)
            assert path == forest_path(edges, u, v)
            assert (path is None) == (fresh.path(u, v) is None)
            assert path is None or set(path) == set(fresh.path(u, v))


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
                for k in sorted({1, 2, oracle.rank() + 1}):
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
        # of exactly the part, as `witness` would find one.
        class Checked(HypergraphicMatroid):
            updates = 0

            def _part_update(self, part, state, left, arrived):
                new = super()._part_update(part, state, left, arrived)
                assert set(new.ends) == part and self.witness(part) is not None
                assert all(set(pair) <= self.hypergraph.hyperedges[e]
                           for e, pair in new.ends.items())
                Checked.updates += 1
                return new

        for seed in range(40):
            h = engine_oracles(seed)[1].hypergraph
            for k in (1, 2, 3):
                checked = Checked(h)
                assert pack_elements(checked, k, checked.ground) == \
                    pack_elements(reference(checked), k, checked.ground)
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
        forest = _RootedForest(dict(edges))
        assert forest.acyclic
        for u in range(n + 1):
            for v in range(n + 1):
                assert forest.path(u, v) == forest_path(edges, u, v)
        # one more edge, perhaps a loop, is a forest exactly when it joins
        # two trees
        extra = edges + [(0, (rng.below(n + 1), rng.below(n + 1)))]
        assert _RootedForest(dict(extra)).acyclic == \
            graphic_independent(range(n + 1), [ends for _, ends in extra])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_exchanged_forest_matches_a_fresh_one(self, seed):
        # Random valid exchanges: drop some edges, then link arrivals that
        # keep a forest (checked by union-find), some of them re-using a
        # dropped label.  After each, the forest must agree with one built
        # from its edges on trees, paths and acyclicity.
        rng = SplitMix64(seed)
        n = 2 + rng.below(10)
        forest = _RootedForest({})
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
            forest.exchange(left, arrived)
            assert_forest_matches_fresh(forest, n)
        # an arrival inside one tree, or a loop, closes a cycle
        a = rng.below(n)
        same_tree = [b for b in range(n) if b == a or forest.path(a, b) is not None]
        forest.exchange([], {-1: (a, same_tree[rng.below(len(same_tree))])})
        assert not forest.acyclic
        assert not _RootedForest(dict(forest.ends)).acyclic

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
        # be refused, both in `witness` and in a chain update.
        class Cyclic(HypergraphicMatroid):
            def _augment(self, forest, new_eid, displaced=None):
                chain = super()._augment(forest, new_eid, displaced)
                return {new_eid: self._pairs[new_eid][0]} if chain is None else chain

        # A fourth vertex keeps the part from filling before the third pair.
        triangle_pairs = Hypergraph(range(4), {0: (0, 1), 1: (1, 2), 2: (0, 2)})
        oracle = Cyclic(triangle_pairs)
        with pytest.raises(InternalInvariantError, match="produced a non-forest"):
            oracle.witness([0, 1, 2])
        with pytest.raises(InternalInvariantError, match="produced a non-forest"):
            pack_elements(oracle, 1, [0, 1, 2])

    def test_work_stays_incremental(self, monkeypatch):
        # Seeding the k empty parts is the only build from nothing: one
        # forest per part, which chains then update in place.  No witness
        # replay runs, and each circuit costs one exchange search: no
        # confirming searches, no per-chain rebuilds and no rank pass.
        # At n=24 the packing makes 195 searches, 225 without the stop at
        # full parts, and a rank pass would add 79.
        calls = {"witness": 0, "_part_state": 0, "_augment": 0, "__init__": 0}
        for owner, name in ((HypergraphicMatroid, "witness"),
                            (HypergraphicMatroid, "_part_state"),
                            (HypergraphicMatroid, "_augment"),
                            (_RootedForest, "__init__")):
            original = getattr(owner, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        for n, k in ((11, 2), (24, 2), (9, 3)):
            calls.update(witness=0, _part_state=0, _augment=0, __init__=0)
            oracle = HypergraphicMatroid(reduced_fkk(n, k, 1))
            result = pack_bases(oracle, k)
            assert calls["_part_state"] == k and calls["witness"] == 0
            assert calls["__init__"] == k
            if n == 24:
                assert calls["_augment"] < 200
            assert result.size == k * oracle.rank()
        # The spanning-nwt benchmark shape: chains update a part's forest
        # 47 times, and none rebuilds it.
        calls["__init__"] = 0
        nwt = generate("nwt", 24, 2, 1).graph
        assert pack_bases(graphic_matroid(nwt.vertices, nwt.edges), 2).size == 2 * 23
        assert calls["__init__"] == 2


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
        rank = oracle.rank()
        full_rank = rank == oracle._rank_bound
        subset = [e for e in oracle.ground if rng.below(4)][:-1]
        for k in range(1, rank + 2):
            for elements in (oracle.ground, subset):
                parts, unplaced, reached = treepack.matroid._pack(oracle, k, elements)
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
