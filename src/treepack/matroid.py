"""Matroid oracles: graphic, hypergraphic, k-fold unions, and exchanges.

A hypergraph here carries edges of size 2 or 3.  A set of hyperedges is
independent when each hyperedge can be assigned an internal vertex pair so
the chosen pairs form a forest; independence is decided incrementally by a
breadth-first search over representative reassignments (insert one
hyperedge, displace blockers along a shortest exchange chain).  Rank has a
second, enumeration-based route: minimize rank(P) + crossing-edge-count
over all vertex partitions, which doubles as the verification oracle for
the incremental path.

The k-fold union machinery packs elements into k disjoint independent
parts by shortest augmenting chains over the exchange digraph, which
yields disjoint bases exactly when the ground set is rich enough.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    InstanceParseError,
    InternalInvariantError,
    InvalidArgumentError,
    parse_int,
)

Pair = tuple[int, int]


# -- partitions ---------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """A partition of a vertex set into disjoint nonempty blocks."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise InvalidArgumentError("partition blocks must be nonempty")
            if seen & block:
                raise InvalidArgumentError("partition blocks must be disjoint")
            seen |= block

    @property
    def vertex_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def rank(self) -> int:
        return self.vertex_count - len(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def block_of(self, v: int) -> int:
        for i, block in enumerate(self.blocks):
            if v in block:
                return i
        raise InvalidArgumentError(f"vertex {v} is in no block")

    def classify(self, edge_sets: Mapping[int, frozenset[int]],
                 subset: Iterable[int] | None = None) -> "EdgeClassification":
        ids = sorted(edge_sets) if subset is None else sorted(subset)
        inner, outer = [], []
        for eid in ids:
            vs = edge_sets[eid]
            if any(vs <= block for block in self.blocks):
                inner.append(eid)
            else:
                outer.append(eid)
        return EdgeClassification(inner=frozenset(inner), outer=frozenset(outer))


@dataclass(frozen=True)
class EdgeClassification:
    """Edges split by a partition: inner lie inside one block, outer cross."""

    inner: frozenset[int]
    outer: frozenset[int]

    @property
    def inner_count(self) -> int:
        return len(self.inner)

    @property
    def outer_count(self) -> int:
        return len(self.outer)


def iter_partitions(vertices: Iterable[int]) -> Iterator[Partition]:
    """All partitions of the vertex set, in restricted-growth-string order.

    The encoding assigns each vertex (in ascending order) a block index of
    at most one more than the largest index used so far, which enumerates
    every set partition exactly once and in a canonical order.
    """
    items = sorted(set(vertices))
    n = len(items)
    if n == 0:
        yield Partition(blocks=())
        return
    code = [0] * n

    def emit() -> Partition:
        count = max(code) + 1
        blocks: list[set[int]] = [set() for _ in range(count)]
        for idx, v in enumerate(items):
            blocks[code[idx]].add(v)
        return Partition(blocks=tuple(frozenset(b) for b in blocks))

    def rec(i: int, top: int):
        if i == n:
            yield emit()
            return
        for b in range(top + 2):
            code[i] = b
            yield from rec(i + 1, max(top, b))

    yield from rec(1, 0) if n > 1 else iter([emit()])


def graph_edge_sets(edges: Mapping[int, tuple[int, int]]) -> dict[int, frozenset[int]]:
    """View graph edges as vertex sets so partition classification applies."""
    return {eid: frozenset(ends) for eid, ends in edges.items()}


# -- generic matroid oracle ---------------------------------------------------


class Matroid:
    """Matroid given by its ground set and an independence predicate.

    Queries are memoized per instance; the oracle must therefore behave as
    a pure function of the queried set.
    """

    def __init__(self, ground: Iterable[int], indep: Callable[[frozenset[int]], bool],
                 name: str = "matroid"):
        self.ground: tuple[int, ...] = tuple(sorted(set(ground)))
        self._indep = indep
        self.name = name
        self._cache: dict[frozenset[int], bool] = {}

    def independent(self, subset: Iterable[int]) -> bool:
        key = frozenset(subset)
        extra = key - set(self.ground)
        if extra:
            raise InvalidArgumentError(f"elements {sorted(extra)} are not in the ground set")
        hit = self._cache.get(key)
        if hit is None:
            hit = self._indep(key)
            self._cache[key] = hit
        return hit

    def rank(self, subset: Iterable[int] | None = None) -> int:
        return len(self.greedy_basis(subset))

    def greedy_basis(self, subset: Iterable[int] | None = None) -> frozenset[int]:
        pool = self.ground if subset is None else sorted(set(subset))
        picked: set[int] = set()
        for x in pool:
            if self.independent(picked | {x}):
                picked.add(x)
        return frozenset(picked)


def check_matroid_axioms(oracle: Matroid) -> str | None:
    """Exhaustive axiom check for small ground sets; None when all hold.

    Returns the name of the first failing axiom: 'empty', 'downward', or
    'exchange'.  Intended for tests and for diagnosing a broken oracle.
    """
    ground = oracle.ground
    n = len(ground)
    subsets = []
    for mask in range(1 << n):
        s = frozenset(ground[i] for i in range(n) if mask >> i & 1)
        subsets.append(s)
    indep = {s for s in subsets if oracle.independent(s)}
    if frozenset() not in indep:
        return "empty"
    for s in indep:
        for x in s:
            if s - {x} not in indep:
                return "downward"
    for a in indep:
        for b in indep:
            if len(a) < len(b):
                if not any(a | {x} in indep for x in b - a):
                    return "exchange"
    return None


# -- graphic matroid ----------------------------------------------------------


class _DSU:
    """Union-find over hashable items; unseen items are singletons."""

    __slots__ = ("parent",)

    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True

    def joins(self, items: Iterable[int]) -> bool:
        """True when all of `items` lie in one set (vacuously for none)."""
        return len({self.find(x) for x in items}) <= 1


def graphic_independent(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> bool:
    """True iff the given endpoint pairs form a forest (loops never do)."""
    vset = set(vertices)
    dsu = _DSU()
    for u, v in edges:
        if u not in vset or v not in vset:
            raise InvalidArgumentError(f"edge endpoint outside vertex set: {(u, v)}")
        if u == v or not dsu.union(u, v):
            return False
    return True


def graphic_matroid(vertices: Iterable[int], edges: Mapping[int, tuple[int, int]]) -> Matroid:
    vset = frozenset(vertices)
    edge_map = dict(edges)

    def indep(subset: frozenset[int]) -> bool:
        return graphic_independent(vset, [edge_map[e] for e in subset])

    return Matroid(edge_map.keys(), indep, name="graphic")


def free_matroid(ground: Iterable[int]) -> Matroid:
    return Matroid(ground, lambda s: True, name="free")


# -- hypergraphs --------------------------------------------------------------


class Hypergraph:
    """Vertex set plus hyperedges of size 2 or 3 keyed by id."""

    def __init__(self, vertices: Iterable[int],
                 hyperedges: Mapping[int, Iterable[int]] | None = None):
        self.vertices: frozenset[int] = frozenset(vertices)
        self.hyperedges: dict[int, frozenset[int]] = {}
        for eid, members in (hyperedges or {}).items():
            self.add_hyperedge(eid, members)

    def add_hyperedge(self, eid: int, members: Iterable[int]) -> None:
        fs = frozenset(members)
        if len(fs) not in (2, 3):
            raise InvalidArgumentError(
                f"hyperedge {eid} must contain 2 or 3 distinct vertices, got {sorted(fs)}")
        if not fs <= self.vertices:
            raise InvalidArgumentError(f"hyperedge {eid} uses unknown vertices")
        if eid in self.hyperedges:
            raise InvalidArgumentError(f"duplicate hyperedge id {eid}")
        self.hyperedges[eid] = fs

    def edge_ids(self) -> list[int]:
        return sorted(self.hyperedges)

    def __repr__(self) -> str:
        return f"Hypergraph(|V|={len(self.vertices)}, |F|={len(self.hyperedges)})"


def parse_hypergraph(text: str) -> Hypergraph:
    vertices: set[int] = set()
    edges: dict[int, frozenset[int]] = {}
    header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *fields = line.split()
        values = [parse_int(x, lineno) for x in fields]
        if kind == "hypergraph":
            if len(values) != 2:
                raise InstanceParseError(lineno, "hypergraph header needs two counts")
            header = (values[0], values[1])
        elif kind == "v":
            if len(values) != 1:
                raise InstanceParseError(lineno, "vertex line needs one id")
            vertices.add(values[0])
        elif kind == "h":
            if len(values) not in (3, 4):
                raise InstanceParseError(lineno, "hyperedge line needs an id and 2 or 3 vertices")
            eid, *members = values
            if eid in edges:
                raise InstanceParseError(lineno, f"duplicate hyperedge id {eid}")
            if len(set(members)) != len(members):
                raise InstanceParseError(lineno, "hyperedge vertices must be distinct")
            vertices.update(members)
            edges[eid] = frozenset(members)
        else:
            raise InstanceParseError(lineno, f"unknown line kind {kind!r}")
    if header is None:
        raise InstanceParseError(0, "missing 'hypergraph <n> <m>' header")
    if header[0] != len(vertices) or header[1] != len(edges):
        raise InstanceParseError(0, "header counts do not match declarations")
    return Hypergraph(vertices, edges)


def serialize_hypergraph(h: Hypergraph, comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(f"hypergraph {len(h.vertices)} {len(h.hyperedges)}")
    for v in sorted(h.vertices):
        lines.append(f"v {v}")
    for eid in h.edge_ids():
        lines.append("h " + " ".join(str(x) for x in [eid, *sorted(h.hyperedges[eid])]))
    return "\n".join(lines) + "\n"


def serialize_representatives(reps: Mapping[int, Pair]) -> str:
    """Witness forests as diffable text, one `rep <id> <u> <v>` per line."""
    lines = [f"rep {eid} {reps[eid][0]} {reps[eid][1]}" for eid in sorted(reps)]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_partition(p: Partition) -> str:
    """Partition witnesses as diffable text, one `block <members>` per line,
    blocks ordered by their smallest member."""
    lines = ["block " + " ".join(str(v) for v in sorted(block))
             for block in sorted(p.blocks, key=min)]
    return "\n".join(lines) + ("\n" if lines else "")


# -- hypergraphic matroid -----------------------------------------------------


class HypergraphicMatroid(Matroid):
    """Matroid on hyperedges; independent sets admit a forest of
    representative pairs, one pair chosen inside each hyperedge."""

    def __init__(self, h: Hypergraph):
        self.hypergraph = h
        super().__init__(h.hyperedges.keys(), self._indep_query, name="hypergraphic")

    def _pairs(self, eid: int) -> list[Pair]:
        vs = sorted(self.hypergraph.hyperedges[eid])
        if len(vs) == 2:
            return [(vs[0], vs[1])]
        return [(vs[0], vs[1]), (vs[0], vs[2]), (vs[1], vs[2])]

    @staticmethod
    def _cycle_pairs(chosen: Mapping[Pair, int], pair: Pair) -> list[Pair] | None:
        """Pairs on the unique cycle created by adding `pair` to the forest
        of chosen pairs; None when no cycle appears."""
        if pair in chosen:
            return [pair]
        adj: dict[int, list[tuple[int, Pair]]] = {}
        for (a, b) in chosen:
            adj.setdefault(a, []).append((b, (a, b)))
            adj.setdefault(b, []).append((a, (a, b)))
        u, v = pair
        if u not in adj or v not in adj:
            return None
        prev: dict[int, tuple[int, Pair]] = {}
        queue = deque([u])
        seen = {u}
        while queue:
            x = queue.popleft()
            if x == v:
                break
            for y, via in sorted(adj.get(x, ())):
                if y not in seen:
                    seen.add(y)
                    prev[y] = (x, via)
                    queue.append(y)
        if v not in seen:
            return None
        path = []
        x = v
        while x != u:
            x, via = prev[x]
            path.append(via)
        return path

    def _augment(self, reps: dict[int, Pair], new_eid: int) -> bool:
        """Insert one hyperedge, reassigning representatives along a
        shortest exchange chain.  Mutates `reps` on success."""
        chosen: dict[Pair, int] = {pair: e for e, pair in reps.items()}
        claimant: dict[Pair, int] = {}
        parent: dict[Pair, Pair | None] = {}
        queue: deque[Pair] = deque()
        for p in self._pairs(new_eid):
            if p not in claimant:
                claimant[p] = new_eid
                parent[p] = None
                queue.append(p)
        while queue:
            p = queue.popleft()
            blockers = self._cycle_pairs(chosen, p)
            if blockers is None:
                cur: Pair | None = p
                while cur is not None:
                    reps[claimant[cur]] = cur
                    cur = parent[cur]
                self._assert_forest(reps)
                return True
            for q in blockers:
                needy = chosen[q]
                for p2 in self._pairs(needy):
                    if p2 == q or p2 in claimant:
                        continue
                    claimant[p2] = needy
                    parent[p2] = p
                    queue.append(p2)
        return False

    def _assert_forest(self, reps: Mapping[int, Pair]) -> None:
        pairs = list(reps.values())
        if len(set(pairs)) != len(pairs) or not graphic_independent(
                self.hypergraph.vertices, pairs):
            raise InternalInvariantError(
                "representative exchange produced a non-forest; "
                "run check_matroid_axioms on the hypergraphic oracle")

    def witness(self, subset: Iterable[int]) -> dict[int, Pair] | None:
        """Representative pairs forming a forest, or None when dependent."""
        ids = sorted(set(subset))
        unknown = [e for e in ids if e not in self.hypergraph.hyperedges]
        if unknown:
            raise InvalidArgumentError(f"unknown hyperedge ids {unknown}")
        reps: dict[int, Pair] = {}
        for eid in ids:
            if not self._augment(reps, eid):
                return None
        return reps

    def _indep_query(self, subset: frozenset[int]) -> bool:
        return self.witness(subset) is not None

    def rank_greedy(self, subset: Iterable[int] | None = None) -> int:
        ids = self.edge_ids_of(subset)
        reps: dict[int, Pair] = {}
        count = 0
        for eid in ids:
            if self._augment(reps, eid):
                count += 1
        return count

    def edge_ids_of(self, subset: Iterable[int] | None) -> list[int]:
        if subset is None:
            return sorted(self.hypergraph.hyperedges)
        return sorted(set(subset))


def hypergraphic_independent(h: Hypergraph, subset: Iterable[int]
                             ) -> tuple[bool, dict[int, Pair] | None]:
    """Independence plus a representative-forest witness on success."""
    reps = HypergraphicMatroid(h).witness(subset)
    return (reps is not None), reps


def hypergraphic_rank(h: Hypergraph, subset: Iterable[int] | None = None) -> int:
    """Matroid rank of the hyperedge subset via greedy augmentation."""
    return HypergraphicMatroid(h).rank_greedy(subset)


def rank_by_partitions(h: Hypergraph, subset: Iterable[int] | None = None,
                       k: int = 1, want_witness: bool = False):
    """Rank of a hyperedge set in the k-fold hypergraphic matroid by the
    partition formula: minimize k*rank(P) + (edges crossing P).

    Enumerates every partition of the vertex set, so this is the
    verification route for small instances.  With want_witness=True the
    lexicographically first minimizing partition is returned alongside.
    """
    ids = sorted(h.hyperedges) if subset is None else sorted(set(subset))
    unknown = [e for e in ids if e not in h.hyperedges]
    if unknown:
        raise InvalidArgumentError(f"unknown hyperedge ids {unknown}")
    edge_sets = {eid: h.hyperedges[eid] for eid in ids}
    best = None
    best_partition = None
    for p in iter_partitions(h.vertices):
        value = k * p.rank + p.classify(edge_sets).outer_count
        if best is None or value < best:
            best = value
            best_partition = p
    assert best is not None and best_partition is not None
    return (best, best_partition) if want_witness else best


def union_rank(h: Hypergraph, subset: Iterable[int] | None, k: int) -> int:
    """Rank in the k-fold union of the hypergraphic matroid: the size of a
    maximum packing of the subset into k independent parts.
    rank_by_partitions computes the same value by the partition formula.
    """
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    oracle = HypergraphicMatroid(h)
    ids = oracle.edge_ids_of(subset)
    parts, _ = pack_elements(oracle, k, ids)
    return sum(len(p) for p in parts)


# -- k-fold union packing -----------------------------------------------------


@dataclass(frozen=True)
class UnionBasisFamily:
    """Ordered disjoint independent parts of a k-fold matroid union."""

    parts: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for part in self.parts:
            if seen & part:
                raise InvalidArgumentError("family parts must be pairwise disjoint")
            seen |= part

    @property
    def union(self) -> frozenset[int]:
        out: set[int] = set()
        for part in self.parts:
            out |= part
        return frozenset(out)

    @property
    def size(self) -> int:
        return sum(len(p) for p in self.parts)


@dataclass(frozen=True)
class PackBasesResult:
    family: UnionBasisFamily
    size: int
    complete: bool       # size == k * rank(ground): parts are disjoint bases
    unplaced: tuple[int, ...]

    @property
    def parts(self) -> tuple[frozenset[int], ...]:
        return self.family.parts


def _union_augment(oracle: Matroid, parts: list[set[int]],
                   placement: dict[int, int], x: int) -> bool:
    """Shortest exchange chain inserting x into the part family."""
    k = len(parts)
    parent: dict[int, int | None] = {x: None}
    queue = deque([x])
    while queue:
        y = queue.popleft()
        y_at = placement.get(y)
        for i in range(k):
            if i == y_at:
                continue
            if oracle.independent(frozenset(parts[i]) | {y}):
                target = i
                cur: int | None = y
                while cur is not None:
                    old = placement.get(cur)
                    parts[target].add(cur)
                    placement[cur] = target
                    if old is not None:
                        parts[old].discard(cur)
                    target = old if old is not None else -1
                    cur = parent[cur]
                for i2, part in enumerate(parts):
                    if not oracle.independent(frozenset(part)):
                        raise InternalInvariantError(
                            f"union augmentation broke part {i2}; "
                            f"run check_matroid_axioms on oracle {oracle.name!r}")
                return True
        for i in range(k):
            if i == y_at:
                continue
            base = frozenset(parts[i])
            for z in sorted(parts[i]):
                if z in parent:
                    continue
                if oracle.independent((base - {z}) | {y}):
                    parent[z] = y
                    queue.append(z)
    return False


def pack_elements(oracle: Matroid, k: int, elements: Iterable[int]
                  ) -> tuple[list[set[int]], list[int]]:
    """Pack elements into k disjoint oracle-independent parts, maximally.

    Elements are attempted in ascending id order; each one is inserted by
    the first shortest augmenting chain found, or reported back as
    unplaceable.  The total placed count equals the k-fold union rank of
    the element set.
    """
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    parts: list[set[int]] = [set() for _ in range(k)]
    placement: dict[int, int] = {}
    unplaced: list[int] = []
    for x in sorted(set(elements)):
        if not _union_augment(oracle, parts, placement, x):
            unplaced.append(x)
    return parts, unplaced


def pack_bases(oracle: Matroid, k: int) -> PackBasesResult:
    """Maximum packing of the ground set into k disjoint independent parts.

    complete=True means every part is a basis (the union has full k-fold
    rank); otherwise the family plus its achieved size is the deficiency
    certificate.
    """
    parts, unplaced = pack_elements(oracle, k, oracle.ground)
    family = UnionBasisFamily(parts=tuple(frozenset(p) for p in parts))
    size = family.size
    complete = size == k * oracle.rank()
    return PackBasesResult(family=family, size=size, complete=complete,
                           unplaced=tuple(unplaced))


def adjust_union(oracle: Matroid, family: UnionBasisFamily,
                 required: Mapping[int, int]) -> UnionBasisFamily:
    """Rearrange the family so each pinned element lands in its named part.

    `required` maps element -> part index (0-based) and must be injective
    on part indices.  The union of the parts, the part count, and
    independence of every part are all preserved.  Each repair either
    moves the pinned element directly or swaps it against an exchange
    partner; the number of satisfied pins strictly grows, so the loop
    terminates within one pass per part.
    """
    k = len(family.parts)
    if len(set(required.values())) != len(required):
        raise InvalidArgumentError("required part indices must be injective")
    union = family.union
    for e, i in required.items():
        if e not in union:
            raise InvalidArgumentError(f"pinned element {e} is not in the family")
        if not 0 <= i < k:
            raise InvalidArgumentError(f"part index {i} out of range")
    parts = [set(p) for p in family.parts]
    by_part = {i: e for e, i in required.items()}

    for _ in range(k + 1):
        dirty = [i for i in sorted(by_part) if by_part[i] not in parts[i]]
        if not dirty:
            return UnionBasisFamily(parts=tuple(frozenset(p) for p in parts))
        for i in dirty:
            e = by_part[i]
            j = next(idx for idx, p in enumerate(parts) if e in p)
            if oracle.independent(frozenset(parts[i]) | {e}):
                parts[j].discard(e)
                parts[i].add(e)
                continue
            base_i = frozenset(parts[i])
            base_j = frozenset(parts[j])
            for f in sorted(parts[i]):
                if oracle.independent((base_i - {f}) | {e}) and \
                        oracle.independent((base_j - {e}) | {f}):
                    parts[i].discard(f)
                    parts[i].add(e)
                    parts[j].discard(e)
                    parts[j].add(f)
                    break
            else:
                raise InternalInvariantError(
                    "no exchange partner for a pinned element; "
                    f"run check_matroid_axioms on oracle {oracle.name!r}")
    raise InternalInvariantError("pin repair failed to converge")
