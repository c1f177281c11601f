"""Matroid oracles: graphic, hypergraphic, k-fold unions, and exchanges.

A hypergraph here carries edges of size 2 or 3.  A set of hyperedges is
independent when each hyperedge can be assigned an internal vertex pair so
the chosen pairs form a forest; independence is decided incrementally by a
breadth-first search over representative reassignments (insert one
hyperedge, displace blockers along a shortest exchange chain).  Rank has a
second, enumeration-based route: minimize rank(P) + crossing-edge-count
over all vertex partitions, which doubles as the verification oracle for
the incremental path.

The k-fold union engine (`pack_elements`) is Edmonds' matroid partition: it
packs elements into k disjoint independent parts by shortest augmenting
chains over the exchange digraph, whose arcs lead from an element y to the
elements of the fundamental circuit C(I, y) of each part I that y is not in.
An oracle keeps one state per part (`_part_state`) and reads circuits off
it (`_circuit`): the graphic oracle keeps the part's forest and reads the
tree path between y's ends; the hypergraphic oracle keeps the part's
representative forest and runs exchange searches from it.  The plain
`Matroid` probes its predicate once per candidate instead, and is the
reference both are tested against.
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

    The predicate must behave as a pure function of the queried set.
    `_part_state` and `_circuit` are what the k-fold union engine asks of
    an oracle; the defaults here probe the predicate, and subclasses that
    override them are tested against these defaults.
    """

    def __init__(self, ground: Iterable[int], indep: Callable[[frozenset[int]], bool],
                 name: str = "matroid"):
        self.ground: tuple[int, ...] = tuple(sorted(set(ground)))
        self._members = frozenset(self.ground)
        self._indep = indep
        self.name = name

    def members(self, subset: Iterable[int] | None) -> list[int]:
        """The subset (default: the ground set) in ascending order."""
        if subset is None:
            return list(self.ground)
        ids = sorted(set(subset))
        extra = [e for e in ids if e not in self._members]
        if extra:
            raise InvalidArgumentError(f"elements {extra} are not in the ground set")
        return ids

    def independent(self, subset: Iterable[int]) -> bool:
        key = frozenset(subset)
        extra = key - self._members
        if extra:
            raise InvalidArgumentError(f"elements {sorted(extra)} are not in the ground set")
        return self._indep(key)

    def rank(self, subset: Iterable[int] | None = None) -> int:
        return len(self.greedy_basis(subset))

    def greedy_basis(self, subset: Iterable[int] | None = None) -> frozenset[int]:
        picked: set[int] = set()
        for x in self.members(subset):
            if self.independent(picked | {x}):
                picked.add(x)
        return frozenset(picked)

    def _part_state(self, part: set[int]) -> object | None:
        """What `_circuit` needs to know of one part of a k-fold packing,
        or None when the part is dependent."""
        return part if self.independent(part) else None

    def _circuit(self, part: set[int], state: object, y: int) -> frozenset[int] | None:
        """The elements z of the independent `part` for which part - z + y is
        independent (the fundamental circuit of y, less y), or None when
        part + y is independent.  `y` is not in `part`."""
        if self.independent(part | {y}):
            return None
        return frozenset(z for z in part if self.independent((part - {z}) | {y}))


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


def _forest_adjacency(edges: Iterable[tuple[object, Pair]]) -> dict[int, list[tuple[int, object]]]:
    """vertex -> [(neighbour, label)] for labelled edges (label, (u, v))."""
    adj: dict[int, list[tuple[int, object]]] = {}
    for label, (a, b) in edges:
        adj.setdefault(a, []).append((b, label))
        adj.setdefault(b, []).append((a, label))
    return adj


def _forest_path(adj: Mapping[int, list[tuple[int, object]]], u: int, v: int) -> list | None:
    """Labels on the path of the forest `adj` between u and v, listed from
    v back to u; None when u and v lie in different trees."""
    if u == v:
        return []
    if u not in adj or v not in adj:
        return None
    prev: dict[int, tuple[int, object] | None] = {u: None}
    queue = deque([u])
    while v not in prev and queue:
        x = queue.popleft()
        for y, label in adj[x]:
            if y not in prev:
                prev[y] = (x, label)
                queue.append(y)
    if v not in prev:
        return None
    path = []
    x = v
    while x != u:
        x, label = prev[x]
        path.append(label)
    return path


class GraphicMatroid(Matroid):
    """Cycle matroid of a multigraph (loops are dependent).  A part's state
    is its forest; the circuit of an edge is the tree path between its ends."""

    def __init__(self, vertices: Iterable[int], edges: Mapping[int, tuple[int, int]]):
        self.vertices = frozenset(vertices)
        self.edges = dict(edges)
        for ends in self.edges.values():
            if not set(ends) <= self.vertices:
                raise InvalidArgumentError(f"edge endpoint outside vertex set: {ends}")
        super().__init__(self.edges.keys(), self._indep_query, name="graphic")

    def _indep_query(self, subset: frozenset[int]) -> bool:
        return graphic_independent(self.vertices, [self.edges[e] for e in subset])

    def rank(self, subset: Iterable[int] | None = None) -> int:
        dsu = _DSU()
        return sum(dsu.union(*self.edges[e]) for e in self.members(subset))

    def _part_state(self, part: set[int]) -> dict[int, list[tuple[int, object]]] | None:
        if not self.independent(part):
            return None
        return _forest_adjacency((e, self.edges[e]) for e in part)

    def _circuit(self, part: set[int], state: Mapping[int, list[tuple[int, object]]],
                 y: int) -> frozenset[int] | None:
        path = _forest_path(state, *self.edges[y])
        return None if path is None else frozenset(path)


def graphic_matroid(vertices: Iterable[int], edges: Mapping[int, tuple[int, int]]
                    ) -> GraphicMatroid:
    return GraphicMatroid(vertices, edges)


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

    def _augment(self, reps: dict[int, Pair], new_eid: int,
                 displaced: set[int] | None = None) -> bool:
        """Insert one hyperedge, reassigning representatives along a
        shortest exchange chain.  Mutates `reps` on success; on failure,
        adds to `displaced` (when given) every hyperedge the search tried
        to move."""
        chosen: dict[Pair, int] = {pair: e for e, pair in reps.items()}
        adj = _forest_adjacency((pair, pair) for pair in chosen)
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
            blockers = _forest_path(adj, *p)
            if blockers is None:
                cur: Pair | None = p
                while cur is not None:
                    reps[claimant[cur]] = cur
                    cur = parent[cur]
                self._assert_forest(reps)
                return True
            for q in blockers:
                needy = chosen[q]
                if displaced is not None:
                    displaced.add(needy)
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
        reps: dict[int, Pair] = {}
        return sum(self._augment(reps, eid) for eid in self.members(subset))

    rank = rank_greedy

    def _part_state(self, part: set[int]) -> dict[int, Pair] | None:
        return self.witness(part)

    def _circuit(self, part: set[int], state: Mapping[int, Pair],
                 y: int) -> frozenset[int] | None:
        # A failed search from the part's forest spans every hyperedge it
        # displaced together with y, so those hyperedges hold the circuit;
        # z is in it exactly when y fits once z is taken out.
        displaced: set[int] = set()
        if self._augment(dict(state), y, displaced):
            return None
        return frozenset(z for z in displaced if self._augment(
            {e: pair for e, pair in state.items() if e != z}, y))


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
    parts, _ = pack_elements(oracle, k, oracle.members(subset))
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


class _Part:
    """One part of a k-fold packing, the oracle's state for it, and the
    circuits read off that state, by element."""

    __slots__ = ("items", "state", "circuits")

    def __init__(self, oracle: Matroid, index: int, items: set[int]):
        state = oracle._part_state(items)
        if state is None:
            raise InternalInvariantError(
                f"union augmentation broke part {index}; "
                f"run check_matroid_axioms on oracle {oracle.name!r}")
        self.items = items
        self.state = state
        self.circuits: dict[int, frozenset[int] | None] = {}

    def circuit(self, oracle: Matroid, y: int) -> frozenset[int] | None:
        if y not in self.circuits:
            self.circuits[y] = oracle._circuit(self.items, self.state, y)
        return self.circuits[y]


def _union_augment(oracle: Matroid, parts: list[_Part],
                   placement: dict[int, int], x: int) -> bool:
    """Shortest exchange chain inserting x into the part family.

    The arcs from y are the circuits of y in the parts y is not in; the
    parts on a successful chain are rebuilt, which re-checks them."""
    parent: dict[int, int | None] = {x: None}
    queue = deque([x])
    while queue:
        y = queue.popleft()
        y_at = placement.get(y)
        circuits = []
        for i, part in enumerate(parts):
            if i == y_at:
                continue
            circuit = part.circuit(oracle, y)
            if circuit is None:
                changed = []
                target = i
                cur: int | None = y
                while cur is not None:
                    old = placement.get(cur)
                    parts[target].items.add(cur)
                    placement[cur] = target
                    changed.append(target)
                    if old is not None:
                        parts[old].items.discard(cur)
                    target = old if old is not None else -1
                    cur = parent[cur]
                for t in sorted(set(changed)):
                    parts[t] = _Part(oracle, t, parts[t].items)
                return True
            circuits.append(circuit)
        for circuit in circuits:
            for z in sorted(circuit):
                if z not in parent:
                    parent[z] = y
                    queue.append(z)
    return False


def pack_elements(oracle: Matroid, k: int, elements: Iterable[int]
                  ) -> tuple[list[set[int]], list[int]]:
    """Pack elements into k disjoint oracle-independent parts, maximally.

    Elements are attempted in ascending id order; each one is inserted by
    the first shortest augmenting chain found, or reported back as
    unplaceable.  The total placed count equals the k-fold union rank of
    the element set.  Each part keeps the oracle's state and the circuits
    read off it until a chain changes the part; only the parts a chain
    changes are rebuilt, and rebuilding re-checks their independence.
    """
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    parts = [_Part(oracle, i, set()) for i in range(k)]
    placement: dict[int, int] = {}
    unplaced: list[int] = []
    for x in sorted(set(elements)):
        if not _union_augment(oracle, parts, placement, x):
            unplaced.append(x)
    return [part.items for part in parts], unplaced


def pack_bases(oracle: Matroid, k: int) -> PackBasesResult:
    """Maximum packing of the ground set into k disjoint independent parts.

    complete=True means every part is a basis (the union has full k-fold
    rank); otherwise the family plus its achieved size is the deficiency
    certificate.  The graphic and hypergraphic oracles answer the rank
    without a replay: one union-find pass, one exchange search per element.
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
