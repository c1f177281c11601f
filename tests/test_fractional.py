"""Exact-rational polytope checks and degree-bounded rounding."""

from fractions import Fraction

import pytest

from treepack import (
    ConstraintFamily,
    Hypergraph,
    HypergraphicMatroid,
    InvalidArgumentError,
    PreconditionViolationError,
    check_fractional_union_basis,
    check_polytope_membership,
    graphic_matroid,
    iter_bases,
    kls_round,
    parse_vector,
    serialize_vector,
)
from treepack.errors import CapacityError
from treepack.fractional import ceil_fraction
from treepack.rng import SplitMix64
from conftest import convex_combination_exists, doubled_triangle, triangle


def triangle_oracle():
    g = triangle()
    return graphic_matroid(g.vertices, g.edges)


class TestPolytopeMembership:
    def test_zero_vector_is_independent_member(self):
        oracle = triangle_oracle()
        assert check_polytope_membership(oracle, {}).verdict == "independent-polytope"

    def test_uniform_two_thirds_is_basis_member(self):
        # the average of the three spanning trees' incidence vectors
        oracle = triangle_oracle()
        x = {e: Fraction(2, 3) for e in oracle.ground}
        assert check_polytope_membership(oracle, x).verdict == "basis-polytope"

    def test_range_violation_reported_per_element(self):
        oracle = triangle_oracle()
        x = {0: Fraction(3, 2)}
        out = check_polytope_membership(oracle, x)
        assert out.verdict == "violation" and out.kind == "range" and out.element == 0

    def test_rank_violation_carries_certificate(self):
        oracle = triangle_oracle()
        x = {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}
        out = check_polytope_membership(oracle, x)
        assert out.verdict == "violation" and out.kind == "rank"
        assert out.x_value > out.rank_value
        assert sum((x[e] for e in out.subset), Fraction(0)) == out.x_value

    def test_floats_rejected(self):
        with pytest.raises(InvalidArgumentError):
            check_polytope_membership(triangle_oracle(), {0: 0.5})

    def test_capacity_guard(self):
        oracle = graphic_matroid(range(2), {i: (0, 1) for i in range(19)})
        with pytest.raises(CapacityError):
            check_polytope_membership(oracle, {})

    def test_representation_invariance(self):
        oracle = triangle_oracle()
        a = {e: Fraction(2, 3) for e in oracle.ground}
        b = {e: Fraction(20, 30) for e in oracle.ground}
        assert check_polytope_membership(oracle, a) == check_polytope_membership(oracle, b)

    def test_agrees_with_convex_decomposability(self):
        g = doubled_triangle()
        oracle = graphic_matroid(g.vertices, g.edges)
        bases = [{e: Fraction(int(e in b)) for e in oracle.ground}
                 for b in iter_bases(oracle)]
        rng = SplitMix64(11)
        for _ in range(20):
            weights = [Fraction(1 + rng.below(4), 1) for _ in range(3)]
            total = sum(weights)
            picks = [bases[rng.below(len(bases))] for _ in range(3)]
            x = {e: sum((w * b[e] for w, b in zip(weights, picks)), Fraction(0)) / total
                 for e in oracle.ground}
            verdict = check_polytope_membership(oracle, x).verdict
            assert verdict == "basis-polytope"
            assert convex_combination_exists(bases, x)
        # and a point that is not decomposable
        x = {e: Fraction(1, 3) for e in oracle.ground}
        x[0] = Fraction(0)
        out = check_polytope_membership(oracle, x)
        assert out.verdict != "basis-polytope"
        assert not convex_combination_exists(bases, x)


class TestFractionalUnionBasis:
    def test_four_copies_all_ones_k2(self):
        h = Hypergraph(range(3), {i: (0, 1, 2) for i in range(4)})
        assert check_fractional_union_basis(h, {i: 1 for i in range(4)}, 2).ok

    def test_halves_fail_total(self):
        h = Hypergraph(range(3), {i: (0, 1, 2) for i in range(4)})
        out = check_fractional_union_basis(h, {i: Fraction(1, 2) for i in range(4)}, 2)
        assert out.verdict == "violating-total"
        assert (out.lhs, out.rhs) == (Fraction(2), Fraction(4))

    def test_two_copies_k1(self):
        h = Hypergraph(range(3), {0: (0, 1, 2), 1: (0, 1, 2)})
        assert check_fractional_union_basis(h, {0: 1, 1: 1}, 1).ok

    def test_partition_violation_reports_both_sides(self):
        # mass 3 inside one block of rank 2 with k=1: the single-block
        # partition catches it even though the total is right
        h = Hypergraph(range(4), {0: (0, 1, 2), 1: (0, 1, 2), 2: (0, 1, 2)})
        out = check_fractional_union_basis(h, {0: 1, 1: 1, 2: 1}, 1)
        assert out.verdict == "violating-partition"
        assert out.lhs > out.rhs
        inner = out.partition.classify(h.hyperedges).inner
        assert sum(1 for _ in inner) == 3

    def test_range_violation(self):
        h = Hypergraph(range(3), {0: (0, 1, 2)})
        out = check_fractional_union_basis(h, {0: Fraction(7, 2)}, 1)
        assert out.verdict == "violating-range" and out.element == 0

    def test_packed_disjoint_bases_give_a_union_basis_vector(self):
        # the indicator of k disjoint hypergraphic bases is a (0/1) point
        # of the k-fold basis polytope; the checker must accept it
        from treepack import pack_bases
        from treepack.generate import generate_fkk
        from treepack.packing import build_steiner_hypergraph
        for seed in range(8):
            inst = generate_fkk(4 + seed % 3, 2, seed)
            h, _ = build_steiner_hypergraph(inst.graph, inst.terminals)
            oracle = HypergraphicMatroid(h)
            packed = pack_bases(oracle, 2)
            assert packed.size == 2 * len(oracle.greedy_basis())
            union = set()
            for part in packed.parts:
                union |= part
            x = {eid: Fraction(int(eid in union)) for eid in h.hyperedges}
            assert check_fractional_union_basis(h, x, 2).ok


class TestKlsRound:
    def test_triangle_singletons(self):
        oracle = triangle_oracle()
        x = {e: Fraction(2, 3) for e in oracle.ground}
        fam = ConstraintFamily(sets=tuple(frozenset({e}) for e in oracle.ground),
                               max_membership=1)
        base = kls_round(oracle, x, fam)
        assert oracle.independent(base) and len(base) == 2
        for fs in fam.sets:
            assert len(base & fs) <= 1

    def test_doubled_triangle_parallel_classes(self):
        g = doubled_triangle()
        oracle = graphic_matroid(g.vertices, g.edges)
        x = {e: Fraction(1, 3) for e in oracle.ground}
        classes = (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}))
        fam = ConstraintFamily(sets=classes, max_membership=1)
        base = kls_round(oracle, x, fam)
        for cls in classes:
            assert len(base & cls) <= ceil_fraction(Fraction(2, 3))  # = 1
        # every one of the 12 spanning trees already meets the bound
        for b in iter_bases(oracle):
            assert all(len(b & cls) <= 1 for cls in classes)

    def test_whole_ground_set_family(self):
        oracle = triangle_oracle()
        x = {e: Fraction(2, 3) for e in oracle.ground}
        fam = ConstraintFamily(sets=(frozenset(oracle.ground),), max_membership=1)
        base = kls_round(oracle, x, fam)
        assert len(base) == 2

    def test_non_basis_precondition_rejected(self):
        oracle = triangle_oracle()
        fam = ConstraintFamily(sets=(frozenset({0}),), max_membership=1)
        with pytest.raises(PreconditionViolationError):
            kls_round(oracle, {0: Fraction(1, 2)}, fam)

    def test_family_membership_bound_checked(self):
        with pytest.raises(InvalidArgumentError):
            ConstraintFamily(sets=(frozenset({0}), frozenset({0})), max_membership=1)


class TestVectorFormat:
    def test_round_trip(self):
        x = {0: Fraction(2, 3), 5: Fraction(1), 7: Fraction(0)}
        text = serialize_vector(x)
        assert parse_vector(text) == x
        assert serialize_vector(parse_vector(text)) == text
        # Blank lines and '#' comments may stand anywhere.
        assert parse_vector("# by hand\n\n" + text.replace("\n", "\n  # note\n\n")) == x

    def test_plain_integers_accepted(self):
        assert parse_vector("x 3 2\n") == {3: Fraction(2)}

    def test_malformed_rejected_with_line(self):
        from treepack import InstanceParseError
        with pytest.raises(InstanceParseError) as err:
            parse_vector("x 0 1/2\nx 1 one\n")
        assert err.value.line_number == 2
        for value in ("1_0", "+3", "\u0663", "1/+2", "1/0", "1/", "/2"):
            with pytest.raises(InstanceParseError) as err:
                parse_vector(f"x 0 1/2\nx 1 {value}\n")
            assert err.value.line_number == 2

    def test_duplicate_rejected(self):
        from treepack import InstanceParseError
        with pytest.raises(InstanceParseError):
            parse_vector("x 0 1/2\nx 0 1/3\n")
