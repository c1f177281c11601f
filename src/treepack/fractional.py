"""Exact-rational polytope membership checks and degree-bounded rounding.

Everything here runs on `fractions.Fraction`; float inputs are rejected so
a verdict can never hinge on rounding.  Membership in the independent-set
or basis polytope of a matroid is decided by checking the defining
constraints outright: per-element bounds, x(S) <= rank(S) for every subset
S (full subset enumeration under a hard capacity), and the exact total.
The union-basis check does the same over vertex partitions for the k-fold
hypergraphic matroid.

Rounding returns a basis whose intersection with every constraint set F
stays within ceil(x(F)) + d - 1, where d bounds how many sets any single
element belongs to.  At this package's scale the basis is found by
lexicographic enumeration; existence is a theorem given the preconditions,
so running out of bases signals an internal bug, not a caller error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from . import limits
from .errors import (
    InstanceParseError,
    InternalInvariantError,
    InvalidArgumentError,
    PreconditionViolationError,
    parse_int,
    read_lines,
)
from .matroid import Hypergraph, Matroid, Partition, iter_partitions

Weight = Fraction | int


def _coerce_weights(ground: Iterable[int], weights: Mapping[int, Weight]) -> dict[int, Fraction]:
    ground_set = set(ground)
    extra = set(weights) - ground_set
    if extra:
        raise InvalidArgumentError(f"weights given for unknown elements {sorted(extra)}")
    out: dict[int, Fraction] = {}
    for e in sorted(ground_set):
        value = weights.get(e, 0)
        if isinstance(value, float):
            raise InvalidArgumentError("weights must be exact rationals, not floats")
        out[e] = Fraction(value)
    return out


def ceil_fraction(value: Fraction) -> int:
    return -((-value.numerator) // value.denominator)


# -- verdicts -----------------------------------------------------------------


@dataclass(frozen=True)
class PolytopeCheck:
    verdict: str  # "basis-polytope" | "independent-polytope" | "violation"
    kind: str | None = None          # "range" | "rank" for violations
    element: int | None = None
    subset: frozenset[int] | None = None
    x_value: Fraction | None = None
    rank_value: int | None = None

    @property
    def ok(self) -> bool:
        return self.verdict != "violation"


@dataclass(frozen=True)
class UnionBasisCheck:
    verdict: str  # "yes" | "violating-range" | "violating-partition" | "violating-total"
    element: int | None = None
    partition: Partition | None = None
    lhs: Fraction | None = None
    rhs: Fraction | None = None

    @property
    def ok(self) -> bool:
        return self.verdict == "yes"


@dataclass(frozen=True)
class ConstraintFamily:
    """Subsets of the ground set; no element may lie in more than
    `max_membership` of them (verified at construction)."""

    sets: tuple[frozenset[int], ...]
    max_membership: int

    def __post_init__(self):
        if self.max_membership < 1:
            raise InvalidArgumentError("max_membership must be at least 1")
        counts: dict[int, int] = {}
        for fs in self.sets:
            for e in fs:
                counts[e] = counts.get(e, 0) + 1
        worst = max(counts.values(), default=0)
        if worst > self.max_membership:
            offender = min(e for e, c in counts.items() if c == worst)
            raise InvalidArgumentError(
                f"element {offender} lies in {worst} sets, above the declared "
                f"bound {self.max_membership}")


# -- polytope membership ------------------------------------------------------


def check_polytope_membership(oracle: Matroid, weights: Mapping[int, Weight]) -> PolytopeCheck:
    """Decide membership in the independent-set or basis polytope.

    Checks, in order: 0 <= x(e) <= 1 per element; x(S) <= rank(S) for every
    subset S (ascending bitmask order over the sorted ground set, so the
    first certificate is canonical); and finally whether the total meets
    the full rank exactly.
    """
    ground = list(oracle.ground)
    n = len(ground)
    limits.require("subset-elements", limits.SUBSET_ELEMENTS, n,
                   "polytope membership needs a full subset scan")
    x = _coerce_weights(ground, weights)

    for e in ground:
        if x[e] < 0 or x[e] > 1:
            return PolytopeCheck(verdict="violation", kind="range", element=e, x_value=x[e])

    # Greedy bases grow one max-element at a time, so ranks and sums fill in
    # by dynamic programming over bitmasks in one ascending pass.
    basis: list[tuple[int, ...]] = [()] * (1 << n)
    sums: list[Fraction] = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        high = mask.bit_length() - 1
        rest = mask ^ (1 << high)
        element = ground[high]
        prev = basis[rest]
        if oracle.independent(frozenset(prev) | {element}):
            basis[mask] = prev + (element,)
        else:
            basis[mask] = prev
        sums[mask] = sums[rest] + x[element]
        if sums[mask] > len(basis[mask]):
            subset = frozenset(ground[i] for i in range(n) if mask >> i & 1)
            return PolytopeCheck(verdict="violation", kind="rank", subset=subset,
                                 x_value=sums[mask], rank_value=len(basis[mask]))

    total = sums[(1 << n) - 1] if n else Fraction(0)
    full_rank = len(basis[(1 << n) - 1]) if n else 0
    if total == full_rank:
        return PolytopeCheck(verdict="basis-polytope")
    return PolytopeCheck(verdict="independent-polytope")


def check_fractional_union_basis(h: Hypergraph, weights: Mapping[int, Weight],
                                 k: int) -> UnionBasisCheck:
    """Check the three defining constraints of the k-fold hypergraphic
    basis polytope: per-edge range, x(inner edges) <= k*rank(P) for every
    vertex partition P, and total exactly k*(|V| - 1)."""
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    limits.require("partition-vertices", limits.PARTITION_VERTICES, len(h.vertices),
                   "fractional union-basis check needs a full partition scan")
    x = _coerce_weights(h.hyperedges.keys(), weights)

    for eid in sorted(x):
        if x[eid] < 0 or x[eid] > 1:
            return UnionBasisCheck(verdict="violating-range", element=eid, lhs=x[eid])

    for p in iter_partitions(h.vertices):
        inner_sum = sum((x[eid] for eid in p.classify(h.hyperedges).inner), Fraction(0))
        bound = Fraction(k * p.rank)
        if inner_sum > bound:
            return UnionBasisCheck(verdict="violating-partition", partition=p,
                                   lhs=inner_sum, rhs=bound)

    total = sum(x.values(), Fraction(0))
    expected = Fraction(k * (len(h.vertices) - 1))
    if total != expected:
        return UnionBasisCheck(verdict="violating-total", lhs=total, rhs=expected)
    return UnionBasisCheck(verdict="yes")


# -- degree-bounded rounding --------------------------------------------------


def iter_bases(oracle: Matroid) -> Iterator[frozenset[int]]:
    """All bases, in ascending lexicographic order of sorted element ids."""
    ground = list(oracle.ground)
    n = len(ground)
    r = oracle.rank()
    chosen: list[int] = []

    def rec(start: int) -> Iterator[frozenset[int]]:
        if len(chosen) == r:
            yield frozenset(chosen)
            return
        for i in range(start, n):
            if n - i < r - len(chosen):
                break
            e = ground[i]
            if oracle.independent(frozenset(chosen) | {e}):
                chosen.append(e)
                yield from rec(i + 1)
                chosen.pop()

    yield from rec(0)


def kls_round(oracle: Matroid, weights: Mapping[int, Weight],
              family: ConstraintFamily) -> frozenset[int]:
    """Round a fractional basis to a basis B with
    |B & F| <= ceil(x(F)) + d - 1 for every constraint set F.

    The caller's vector must already lie in the basis polytope (verified
    here); such a basis always exists under that precondition, so an
    exhausted enumeration is an internal error.
    """
    for fs in family.sets:
        extra = fs - set(oracle.ground)
        if extra:
            raise InvalidArgumentError(f"constraint set uses unknown elements {sorted(extra)}")
    membership = check_polytope_membership(oracle, weights)
    if membership.verdict != "basis-polytope":
        raise PreconditionViolationError(
            f"weights are not a fractional basis: {membership.verdict}")
    x = _coerce_weights(oracle.ground, weights)
    d = family.max_membership
    caps = []
    for fs in family.sets:
        x_f = sum((x[e] for e in fs), Fraction(0))
        caps.append((fs, ceil_fraction(x_f) + d - 1))

    for base in iter_bases(oracle):
        if all(len(base & fs) <= cap for fs, cap in caps):
            return base
    raise InternalInvariantError(
        "no basis met the rounding bounds although the vector is a fractional "
        "basis; the independence oracle or the membership check is buggy")


# -- vector text format -------------------------------------------------------


def parse_vector(text: str) -> dict[int, Fraction]:
    """Parse 'x <element-id> <numerator>/<denominator>' lines (a bare
    integer is accepted as numerator/1)."""
    out: dict[int, Fraction] = {}
    for lineno, kind, fields in read_lines(text):
        if kind != "x" or len(fields) != 2:
            raise InstanceParseError(lineno, "expected 'x <element-id> <num>/<den>'")
        eid = parse_int(fields[0], lineno)
        num, slash, den = fields[1].partition("/")
        numerator = parse_int(num, lineno)
        denominator = parse_int(den, lineno) if slash else 1
        if denominator == 0:
            raise InstanceParseError(lineno, "zero denominator")
        value = Fraction(numerator, denominator)
        if eid in out:
            raise InstanceParseError(lineno, f"duplicate element id {eid}")
        out[eid] = value
    return out


def serialize_vector(weights: Mapping[int, Weight]) -> str:
    lines = []
    for eid in sorted(weights):
        value = Fraction(weights[eid])
        lines.append(f"x {eid} {value.numerator}/{value.denominator}")
    return "\n".join(lines) + "\n"
