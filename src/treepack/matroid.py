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
An oracle keeps one state per part (`_part_state`), reads circuits off it
(`_circuit`) and moves it past each chain that changes the part
(`_part_update`).  Both oracles keep one forest type as that state: a
`_RootedForest` labelled by element id, whose tree paths read off as
element ids, built once per part while the part is empty and from then on
updated in place, one cut or link per element that leaves or arrives.  The
graphic oracle's forest is the part's edges, and a circuit is the tree path
between y's ends.  The hypergraphic oracle's is the part's representative
forest, one pair per hyperedge; a circuit is what one failed exchange
search displaces, and a chain updates the forest by dropping the
representatives of the elements that left and inserting the ones that
arrived, as in the incremental matroid partition of Cunningham (1986) and
Gabow-Westermann (1992).  The plain `Matroid` probes its predicate once
per candidate instead, and is the reference both are tested against.  A
search that fails leaves its reached set behind.  Every part spans it, so
no later chain passes through it and later searches skip it; and the
union of those sets minimises |E - A| + k*rank(A), so certificates of
deficiency are read off the failed searches instead of enumerated.  Once
every part holds |V| - 1 elements, each is a basis and nothing more fits,
so the engine stops searching.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .errors import (
    InstanceParseError,
    InternalInvariantError,
    InvalidArgumentError,
    parse_int,
    read_lines,
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
    `_part_state`, `_part_update` and `_circuit` are what the k-fold union
    engine asks of an oracle; the defaults here probe the predicate, and
    subclasses that override them are tested against these defaults.
    `_rank_bound` is an upper bound on the rank known without a search, or
    None as here; the engine stops once every part holds that many elements.
    """

    _rank_bound: int | None = None

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

    def _part_update(self, part: set[int], state: object, left: set[int],
                     arrived: set[int]) -> object | None:
        """The state of `part` after an exchange chain took `left` out of it
        and put `arrived` in (`part` already reflects both), from its state
        before, which an override may update in place; None when the part
        is now dependent.  The default derives it afresh, which re-checks
        the whole part."""
        return self._part_state(part)

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


class _RootedForest:
    """A rooted forest of labelled edges, kept rooted as it changes.
    `ends` maps each label (an element id: a graph edge, or a hyperedge by
    its representative pair) to the edge's ends (u, v); `adj` maps each
    vertex to its linked edges, label -> other end; and each vertex keeps
    its tree (the root's id), its depth, its parent and the label of the
    edge to it.  A path query climbs from both ends to their lowest common
    ancestor, so it costs the length of the path, not a search of the
    tree.  The paths are a property of the edge set alone, so they do not
    depend on where the trees are rooted.

    The constructor roots all the edges at once; `exchange` then moves the
    forest past a change in place, re-labelling only the side of each cut
    or link that changes tree.  `acyclic` is False once the edges are not
    a forest (a loop, a repeated pair, or an edge that closes a cycle);
    such an edge stays in `ends` unlinked, so paths are then those of a
    spanning forest of them."""

    __slots__ = ("ends", "adj", "tree", "depth", "up", "acyclic")

    def __init__(self, ends: dict[int, Pair]):
        self.ends = ends
        nbrs: dict[int, list[tuple[int, int]]] = {}
        for label, (a, b) in ends.items():
            nbrs.setdefault(a, []).append((b, label))
            nbrs.setdefault(b, []).append((a, label))
        self.tree: dict[int, int] = {}
        self.depth: dict[int, int] = {}
        self.up: dict[int, tuple[int, int]] = {}
        self.adj: dict[int, dict[int, int]] = {v: {} for v in nbrs}
        for root in nbrs:
            if root in self.tree:
                continue
            self.tree[root] = root
            self.depth[root] = 0
            stack = [root]
            while stack:
                x = stack.pop()
                for y, label in nbrs[x]:
                    if y not in self.tree:
                        self.tree[y] = root
                        self.depth[y] = self.depth[x] + 1
                        self.up[y] = (x, label)
                        self.adj[x][label] = y
                        self.adj[y][label] = x
                        stack.append(y)
        self.acyclic = len(self.up) == len(ends)

    def exchange(self, left: Iterable[int], arrived: Mapping[int, Pair]) -> None:
        """Drop the linked edges labelled `left`, then link each of
        `arrived` (label -> ends) in turn.  An arrival whose ends one tree
        already joins is kept unlinked and sets `acyclic` to False; a
        forest in that state is only read before it is discarded."""
        ends, adj, tree, depth, up = self.ends, self.adj, self.tree, self.depth, self.up
        for label in left:
            a, b = ends.pop(label)
            del adj[a][label], adj[b][label]
            # The end below the cut heads a tree of its own.
            child = b if up.get(b) == (a, label) else a
            del up[child]
            self._relabel(child, child, 0)
        for label, (a, b) in arrived.items():
            ends[label] = (a, b)
            if a == b or (a in tree and b in tree and tree[a] == tree[b]):
                self.acyclic = False
                continue
            for v in (a, b):
                if v not in tree:
                    tree[v], depth[v], adj[v] = v, 0, {}
            # b's tree is re-rooted at b and hangs below a.
            self._relabel(b, tree[a], depth[a] + 1)
            up[b] = (a, label)
            adj[a][label] = b
            adj[b][label] = a

    def _relabel(self, top: int, root: int, top_depth: int) -> None:
        """Re-root the tree of `top` at `top`, which gets depth `top_depth`:
        every vertex of it gets the tree `root`, its distance from `top`
        added to that depth, and a parent link towards `top`."""
        adj, tree, depth, up = self.adj, self.tree, self.depth, self.up
        stack = [(top, None, top_depth)]
        while stack:
            x, via, d = stack.pop()
            tree[x] = root
            depth[x] = d
            for label, y in adj[x].items():
                if label != via:
                    up[y] = (x, label)
                    stack.append((y, label, d + 1))

    def path(self, u: int, v: int) -> list[int] | None:
        """Labels on the path between u and v, listed from v back to u; None
        when u and v lie in different trees."""
        tree = self.tree
        if u != v and (u not in tree or v not in tree or tree[u] != tree[v]):
            return None
        depth, up = self.depth, self.up
        from_v: list[int] = []
        from_u: list[int] = []
        # The deeper end (v on a tie) is never the common ancestor.
        while u != v:
            if depth[v] >= depth[u]:
                v, label = up[v]
                from_v.append(label)
            else:
                u, label = up[u]
                from_u.append(label)
        from_u.reverse()
        return from_v + from_u


class GraphicMatroid(Matroid):
    """Cycle matroid of a multigraph (loops are dependent).  A part's state
    is its forest; the circuit of an edge is the tree path between its ends.
    A forest on the vertex set has at most |V| - 1 edges, which bounds the
    rank."""

    def __init__(self, vertices: Iterable[int], edges: Mapping[int, tuple[int, int]]):
        self.vertices = frozenset(vertices)
        self.edges = dict(edges)
        for ends in self.edges.values():
            if not set(ends) <= self.vertices:
                raise InvalidArgumentError(f"edge endpoint outside vertex set: {ends}")
        super().__init__(self.edges.keys(), self._indep_query, name="graphic")
        self._rank_bound = len(self.vertices) - 1

    def _indep_query(self, subset: frozenset[int]) -> bool:
        return graphic_independent(self.vertices, [self.edges[e] for e in subset])

    def rank(self, subset: Iterable[int] | None = None) -> int:
        dsu = _DSU()
        return sum(dsu.union(*self.edges[e]) for e in self.members(subset))

    def _part_state(self, part: set[int]) -> _RootedForest | None:
        forest = _RootedForest({e: self.edges[e] for e in part})
        return forest if forest.acyclic else None

    def _part_update(self, part: set[int], state: _RootedForest, left: set[int],
                     arrived: set[int]) -> _RootedForest | None:
        """Cut the edges that left the forest and link the ones that
        arrived, in place.  Each forest on the way lies inside the new
        part, so while that is a forest no link closes a cycle."""
        state.exchange(left, {e: self.edges[e] for e in sorted(arrived)})
        return state if state.acyclic else None

    def _circuit(self, part: set[int], state: _RootedForest,
                 y: int) -> frozenset[int] | None:
        path = state.path(*self.edges[y])
        return None if path is None else frozenset(path)


def graphic_matroid(vertices: Iterable[int], edges: Mapping[int, tuple[int, int]]
                    ) -> GraphicMatroid:
    return GraphicMatroid(vertices, edges)


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
    for lineno, kind, fields in read_lines(text, "hypergraph"):
        values = [parse_int(x, lineno) for x in fields]
        if kind == "hypergraph":
            if len(values) != 2:
                raise InstanceParseError(lineno, "hypergraph header needs two counts")
            n, m = values
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
    if n != len(vertices) or m != len(edges):
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
    representative pairs, one pair chosen inside each hyperedge.  A part's
    state is its representative forest, a `_RootedForest` labelled by
    hyperedge id, which exchange chains update in place of a rebuild.  That
    forest has one edge per hyperedge, so |V| - 1 bounds the rank."""

    def __init__(self, h: Hypergraph):
        self.hypergraph = h
        self._pairs = {eid: list(itertools.combinations(sorted(vs), 2))
                       for eid, vs in h.hyperedges.items()}
        super().__init__(h.hyperedges.keys(), self._indep_query, name="hypergraphic")
        self._rank_bound = len(h.vertices) - 1

    def _augment(self, forest: _RootedForest, new_eid: int,
                 displaced: set[int] | None = None) -> dict[int, Pair] | None:
        """Insert one hyperedge into `forest` by a shortest exchange chain.

        Breadth-first over vertex pairs, starting from new_eid's: a claimed
        pair whose ends the forest joins displaces the hyperedges whose
        representatives lie on that path (the path's labels), and each
        displaced hyperedge claims its other pairs not yet claimed.  The
        first claimed pair whose ends lie in different trees ends the
        search: the result maps each hyperedge on its chain (new_eid
        included) to its new pair, for the caller to apply.  On failure the
        result is None and `displaced` (when given) has gained every
        hyperedge the search displaced.  `forest` is only read, so a failed
        search leaves nothing to undo."""
        ends = forest.ends
        path = forest.path
        pairs = self._pairs
        claimant: dict[Pair, int] = {}
        parent: dict[Pair, Pair | None] = {}
        queue: deque[Pair] = deque()
        for p in pairs[new_eid]:
            claimant[p] = new_eid
            parent[p] = None
            queue.append(p)
        while queue:
            p = queue.popleft()
            blockers = path(*p)
            if blockers is None:
                chain: dict[int, Pair] = {}
                cur: Pair | None = p
                while cur is not None:
                    chain[claimant[cur]] = cur
                    cur = parent[cur]
                return chain
            for needy in blockers:
                if displaced is not None:
                    displaced.add(needy)
                for p2 in pairs[needy]:
                    if p2 == ends[needy] or p2 in claimant:
                        continue
                    claimant[p2] = needy
                    parent[p2] = p
                    queue.append(p2)
        return None

    def _insert(self, forest: _RootedForest, ids: Iterable[int],
                strict: bool) -> _RootedForest | None:
        """Grow `forest` in place by each of `ids` in turn that fits, each
        applying its exchange chain (the displaced hyperedges' old pairs
        out, the chain's pairs in), then check it once by `acyclic` (pairs
        are never loops, and a repeated pair counts as a cycle); with
        strict=True, None at the first that does not fit."""
        for eid in ids:
            chain = self._augment(forest, eid)
            if chain is not None:
                forest.exchange([e for e in chain if e in forest.ends], chain)
            elif strict:
                return None
        if not forest.acyclic:
            raise InternalInvariantError(
                "representative exchange produced a non-forest; "
                "run check_matroid_axioms on the hypergraphic oracle")
        return forest

    def witness(self, subset: Iterable[int]) -> dict[int, Pair] | None:
        """Representative pairs forming a forest, or None when dependent."""
        forest = self._insert(_RootedForest({}), self.members(subset), strict=True)
        return None if forest is None else forest.ends

    def _indep_query(self, subset: frozenset[int]) -> bool:
        return self.witness(subset) is not None

    def rank(self, subset: Iterable[int] | None = None) -> int:
        return len(self._insert(_RootedForest({}), self.members(subset), strict=False).ends)

    def _part_state(self, part: set[int]) -> _RootedForest | None:
        """The part's representative forest as `witness` builds it: one
        exchange search per element.  The engine asks this only of its
        empty parts; after that, chains update the forest (`_part_update`)."""
        return self._insert(_RootedForest({}), self.members(part), strict=True)

    def _part_update(self, part: set[int], state: _RootedForest, left: set[int],
                     arrived: set[int]) -> _RootedForest | None:
        """Drop the representatives of `left` and insert each of `arrived`
        by one exchange search, all in place: |arrived| searches where a
        rebuild takes |part|.  Each set on the way lies inside the new
        part, so while that is independent every insertion fits; one that
        does not reports the part dependent."""
        state.exchange(left, {})
        return self._insert(state, sorted(arrived), strict=True)

    def _circuit(self, part: set[int], state: _RootedForest,
                 y: int) -> frozenset[int] | None:
        """One failed search from the part's forest displaces exactly the
        circuit C(part, y) less y.  Write D for its displaced set.

        C - y is inside D: when the search fails, every pair of y and of
        each hyperedge in D has its ends joined by forest paths made of
        representatives of D (they are what those paths displaced).  So
        D + y lies inside the trees that D's |D| representatives form, more
        hyperedges than the rank there, and y is spanned by D.

        D is inside C - y: take z in D and follow the parent links from the
        pair that first displaced z back to a pair of y.  That is a chain
        that alternately claims a pair and displaces the hyperedge whose
        representative blocks it, one search level per step.  It has no
        shortcut, since a pair whose path held the representative of a
        later hyperedge on the chain would have displaced it at an earlier
        level; and its last pair is its only one whose path held rep(z),
        since an earlier one would have displaced z sooner.  So in the
        forest of part - z, where the last pair joins two trees, the chain
        is a shortest augmenting path, and applying it gives a
        representative forest of part - z + y (the shortest-path lemma of
        matroid intersection)."""
        displaced: set[int] = set()
        if self._augment(state, y, displaced) is not None:
            return None
        return frozenset(displaced)


def hypergraphic_independent(h: Hypergraph, subset: Iterable[int]
                             ) -> tuple[bool, dict[int, Pair] | None]:
    """Independence plus a representative-forest witness on success."""
    reps = HypergraphicMatroid(h).witness(subset)
    return (reps is not None), reps


def hypergraphic_rank(h: Hypergraph, subset: Iterable[int] | None = None) -> int:
    """Matroid rank of the hyperedge subset via greedy augmentation."""
    return HypergraphicMatroid(h).rank(subset)


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
    """A maximum k-fold packing of the ground set.

    `reached` is the union of the element sets that the failed exchange
    searches reached (Edmonds 1965); each search stops at the part of it
    that earlier failures had reached, which leaves the union as it would
    be without that pruning.  It holds every unplaced element, each part
    spans it, and size == |ground - reached| + k * rank(reached): it is a
    minimiser of the matroid-union rank formula, empty when every element
    was placed and the parts are not full.  Once every part holds as many
    elements as the oracle's rank bound (|V| - 1 for graphic and
    hypergraphic oracles), no search runs and `reached` is the whole
    ground set instead: each part is then a basis, so
    size == k * rank(ground), which the formula gives at A = ground.
    """

    family: UnionBasisFamily
    size: int
    unplaced: tuple[int, ...]
    reached: frozenset[int]

    @property
    def parts(self) -> tuple[frozenset[int], ...]:
        return self.family.parts


class _Part:
    """One part of a k-fold packing, the oracle's state for it, and the
    circuits read off that state, by element."""

    __slots__ = ("index", "items", "state", "circuits")

    def __init__(self, oracle: Matroid, index: int, items: set[int]):
        self.index = index
        self.items = items
        self._settle(oracle, oracle._part_state(items))

    def update(self, oracle: Matroid, left: set[int], arrived: set[int]) -> None:
        """Move the state past a chain that changed `items` by these sets."""
        self._settle(oracle, oracle._part_update(self.items, self.state, left, arrived))

    def _settle(self, oracle: Matroid, state: object | None) -> None:
        if state is None:
            raise InternalInvariantError(
                f"union augmentation broke part {self.index}; "
                f"run check_matroid_axioms on oracle {oracle.name!r}")
        self.state = state
        self.circuits: dict[int, frozenset[int] | None] = {}

    def circuit(self, oracle: Matroid, y: int) -> frozenset[int] | None:
        if y not in self.circuits:
            self.circuits[y] = oracle._circuit(self.items, self.state, y)
        return self.circuits[y]


def _union_augment(oracle: Matroid, parts: list[_Part], placement: dict[int, int],
                   x: int, closed: set[int]) -> frozenset[int] | None:
    """Shortest exchange chain inserting x into the part family.

    The arcs from y are the circuits of y in the parts y is not in.  A
    successful chain tells each part it changed which elements left it and
    which arrived, and the oracle updates that part's state and re-checks
    it.  Returns None when x was placed; otherwise the elements the search
    reached outside `closed`.

    Every part spans the set a failed search reaches: each reached y
    outside a part has its circuit in that part inside the set, and y
    fits no part it is not in (Edmonds 1965).  `closed` is the union of
    those sets from earlier failed searches, and the search never enqueues
    an element of it.  That changes neither result:

    - An element z of `closed` fits no part it is not in, and its circuits
      lie inside `closed`.  So every search that reaches z reaches from it
      only elements of `closed`, and none of them ends a chain; no chain
      moves an element of `closed`, and the parts stay as they were on it,
      so all of this keeps holding as parts change elsewhere.
    - Hence an element outside `closed` is enqueued only from elements
      outside it, which the search dequeues in the same order with or
      without the pruning: every such element gets the same place in the
      queue and the same parent, and the chain found is the same.
    - On a failure, what the pruned search reaches is what the full one
      reaches less `closed`, so the union of reached sets is the same."""
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
                moves: dict[int, tuple[set[int], set[int]]] = {}
                target: int | None = i
                cur: int | None = y
                while cur is not None:
                    old = placement.get(cur)
                    parts[target].items.add(cur)
                    placement[cur] = target
                    moves.setdefault(target, (set(), set()))[1].add(cur)
                    if old is not None:
                        parts[old].items.discard(cur)
                        moves.setdefault(old, (set(), set()))[0].add(cur)
                    target = old
                    cur = parent[cur]
                for t in sorted(moves):
                    parts[t].update(oracle, *moves[t])
                return None
            circuits.append(circuit)
        for circuit in circuits:
            for z in sorted(circuit):
                if z not in parent and z not in closed:
                    parent[z] = y
                    queue.append(z)
    return frozenset(parent)


def _pack(oracle: Matroid, k: int, elements: Iterable[int]
          ) -> tuple[list[set[int]], list[int], frozenset[int]]:
    """The parts, the unplaced elements, and the union of the sets their
    failed searches reached; the whole element set instead once the parts
    are full.

    The parts are full when each holds `oracle._rank_bound` elements.  Then
    every part is a basis, and the elements not yet tried are unplaced
    without a search: an independent part of that size has rank(E) <= bound
    <= |part| <= rank(E), and k disjoint bases already hold the k-fold union
    rank k * rank(E), so no chain places another element (Edmonds 1965).
    The element set E is then a minimiser of |E - A| + k * rank(A), as the
    packed size k * rank(E) is its value at A = E; each part spans it and
    it holds every unplaced element."""
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    parts = [_Part(oracle, i, set()) for i in range(k)]
    full = None if oracle._rank_bound is None else k * oracle._rank_bound
    placement: dict[int, int] = {}
    unplaced: list[int] = []
    reached: set[int] = set()
    order = sorted(set(elements))
    for x in order:
        if len(placement) == full:
            unplaced.append(x)
        elif (seen := _union_augment(oracle, parts, placement, x, reached)) is not None:
            unplaced.append(x)
            reached |= seen
    if len(placement) == full:
        reached = set(order)
    return [part.items for part in parts], unplaced, frozenset(reached)


def pack_elements(oracle: Matroid, k: int, elements: Iterable[int]
                  ) -> tuple[list[set[int]], list[int]]:
    """Pack elements into k disjoint oracle-independent parts, maximally.

    Elements are attempted in ascending id order; each one is inserted by
    the first shortest augmenting chain found, or reported back as
    unplaceable.  The total placed count equals the k-fold union rank of
    the element set.  A search skips the elements that earlier failed
    searches reached, which hold no augmenting chain (`_union_augment`).
    Each part keeps the oracle's state and the circuits read off it until
    a chain changes the part.  Then the oracle updates that state in place
    from the elements that left and arrived (`_part_update`) and re-checks
    the part: the graphic oracle cuts and links forest edges, and the
    hypergraphic one runs one exchange search per arrival.  So the parts'
    forests are built from nothing only once, empty.  Once every part holds
    |V| - 1 elements (graphic and hypergraphic oracles), the rest are
    unplaced with no search: each part is then a basis, and k disjoint
    bases hold the whole k-fold union rank (`_pack`).
    """
    parts, unplaced, _ = _pack(oracle, k, elements)
    return parts, unplaced


def pack_bases(oracle: Matroid, k: int) -> PackBasesResult:
    """Maximum packing of the ground set into k disjoint independent parts.

    The family plus its achieved size is the deficiency certificate, and
    `reached` is a set A attaining the minimum of |ground - A| + k * rank(A),
    read off the failed exchange searches.  No rank pass runs: the parts
    are disjoint bases exactly when size == k * rank(ground), and the
    pipelines test size == k * (|V| - 1), which needs no rank.  At that
    size the search stops, since each part is a basis and no chain places
    another element; the rest are unplaced and `reached` is the ground set,
    a minimiser because size == k * rank(ground).  So it stops only where
    the pipelines take the packed branch and never read `reached`.
    """
    parts, unplaced, reached = _pack(oracle, k, oracle.ground)
    family = UnionBasisFamily(parts=tuple(frozenset(p) for p in parts))
    return PackBasesResult(family=family, size=family.size,
                           unplaced=tuple(unplaced), reached=reached)


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
