"""Matroid oracles: graphic, hypergraphic, k-fold unions, and exchanges.

A hypergraph here carries edges of size 2 or 3.  A set of hyperedges is
independent when each hyperedge can be assigned an internal vertex pair so
the chosen pairs form a forest; independence is decided incrementally by a
breadth-first search over representative reassignments (insert one
hyperedge, displace blockers along a shortest exchange chain).  Every
oracle's rank is the size of a maximum packing into one part by the union
engine below; the partition formula, minimising rank(P) plus the count of
crossing edges over all vertex partitions, is its enumeration check.

The k-fold union engine (`pack_elements`) is Edmonds' matroid partition: it
packs elements into k disjoint independent parts by shortest augmenting
chains over the exchange digraph, whose arcs lead from an element y to the
elements of the fundamental circuit C(I, y) of each part I that y is not in.
An oracle keeps one state per part (`_part_state`), reads circuits off it
(`_circuit`) and moves it past each chain that changes the part
(`_part_update`).  Both oracles keep one forest type as that state: a
`_RootedForest` labelled by element id, whose tree paths read off as
element ids, which starts empty and changes only in place, one cut or
link per element that leaves or arrives (`_RootedForest.exchange`).  A
link that brings in a new vertex hangs it as a leaf; only a cut, or a
link of two trees, re-labels a subtree.  The
graphic oracle's forest is the part's edges, and a circuit is the tree path
between y's ends.  The hypergraphic oracle's is the part's representative
forest, one pair per hyperedge; a circuit less y is the least tight set of
the part that holds y's vertices, closed along forest paths with no
exchange search, and a chain updates the forest by dropping the
representatives of the elements that left and inserting the ones that
arrived, as in the incremental matroid partition of Cunningham (1986) and
Gabow-Westermann (1992).  The plain `Matroid` probes its predicate once
per candidate instead, and is the reference both are tested against.  A
search that fails leaves its reached set behind.  Every part spans it, so
no later chain passes through it and later searches skip it; and the
union of those sets minimises |E - A| + k*rank(A), so certificates of
deficiency are read off the failed searches instead of enumerated.  A part
that holds |V| - 1 elements is a basis and takes nothing, so a search asks
such full parts last; once every part is full, the engine stops searching.
A circuit query only reads the part's state; the chain update is what
moves it, and for the hypergraphic oracle the only place an exchange
search runs.  Most elements fit a part at once; those cost one arrival at
that part, and the union engine's search state is built only for an
element that every part refuses.  An exact fit test (`_fits`), where the
oracle has one, goes before any circuit, and a search ends at the first
element it enqueues that fits.  `pack_bases` hands back each part's final
state, so a hypergraphic basis comes with its representative forest.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

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

    def classify(self, edge_sets: Mapping[int, Collection[int]]) -> "EdgeClassification":
        """Split the edges of `edge_sets` into those inside one block and
        the rest, in one pass over their vertices.  An edge with a vertex
        in no block is outer."""
        home = {v: i for i, block in enumerate(self.blocks) for v in block}
        inner, outer = [], []
        for eid, ends in edge_sets.items():
            homes = set(map(home.get, ends))
            if len(homes) == 1 and None not in homes:
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


# -- generic matroid oracle ---------------------------------------------------


class Matroid:
    """Matroid given by its ground set and an independence predicate.

    The predicate must behave as a pure function of the queried set.
    `_part_state`, `_part_update` and `_circuit` are what the k-fold union
    engine asks of an oracle; the defaults here probe the predicate, and
    subclasses that override them are tested against these defaults.
    `_rank_bound` is an upper bound on the rank known without a search, or
    None as here; the engine stops once every part holds that many elements.
    `_fits` is an exact fit test cheaper than `_circuit`, or None as here:
    `_fits(part, state, y)` is `_circuit(part, state, y) is None`.
    """

    _rank_bound: int | None = None
    _fits: Callable[[set[int], object, int], bool] | None = None

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
        """The size of a maximum packing of the subset into one part;
        `greedy_basis` is the probing reference."""
        return _packed_size(self, 1, subset)

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

    def _part_update(self, part: set[int], state: object, left: Collection[int],
                     arrived: Collection[int]) -> object | None:
        """The state of `part` after an exchange chain took `left` out of it
        and put `arrived` in (`part` already reflects both), from its state
        before, which an override may update in place; None when the part
        is now dependent.  The default derives it afresh, which re-checks
        the whole part."""
        return self._part_state(part)

    def _circuit(self, part: set[int], state: object, y: int) -> frozenset[int] | None:
        """The elements z of the independent `part` for which part - z + y is
        independent (the fundamental circuit of y, less y), or None when
        part + y is independent.  `y` is not in `part`.  A query only reads
        `state`; `_part_update` alone changes it."""
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

    A forest starts empty, and `exchange` is the only change to it: it
    cuts and links in place.  A link that brings in a new vertex hangs it
    as a leaf; only a cut, or a link of two trees, re-labels the side that
    changes tree.  `acyclic` is False once the edges are not a forest (a
    loop, a repeated pair, or an edge that closes a cycle); such an edge
    stays in `ends` unlinked, so paths are those of a spanning forest."""

    __slots__ = ("ends", "adj", "tree", "depth", "up", "acyclic")

    def __init__(self):
        self.ends: dict[int, Pair] = {}
        self.adj: dict[int, dict[int, int]] = {}
        self.tree: dict[int, int] = {}
        self.depth: dict[int, int] = {}
        self.up: dict[int, tuple[int, int]] = {}
        self.acyclic = True

    def exchange(self, left: Iterable[int], arrived: Iterable[int],
                 pairs: Mapping[int, Pair]) -> None:
        """Drop the linked edges labelled `left`, then link each label of
        `arrived` in turn, by its ends in `pairs`.  A new end hangs as a
        leaf below the other (a new root, if both are new); only a link of
        two trees re-roots one.  An arrival whose ends one tree already
        joins is kept unlinked and sets `acyclic` to False; a forest in
        that state is only read before it is discarded."""
        ends, adj, tree, depth, up = self.ends, self.adj, self.tree, self.depth, self.up
        for label in left:
            a, b = ends.pop(label)
            del adj[a][label], adj[b][label]
            # The end below the cut heads a tree of its own.
            child = b if up.get(b) == (a, label) else a
            del up[child]
            self._relabel(child, child, 0)
        for label in arrived:
            a, b = ends[label] = pairs[label]
            if a == b or (a in tree and b in tree and tree[a] == tree[b]):
                self.acyclic = False
                continue
            if b in tree and a not in tree:
                a, b = b, a
            if a not in tree:
                tree[a], depth[a], adj[a] = a, 0, {}
            if b in tree:
                # b's tree is re-rooted at b and hangs below a.
                self._relabel(b, tree[a], depth[a] + 1)
            else:
                tree[b], depth[b], adj[b] = tree[a], depth[a] + 1, {}
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
        self.vertices = vset = frozenset(vertices)
        self.edges = dict(edges)
        for ends in self.edges.values():
            u, v = ends
            if u not in vset or v not in vset:
                raise InvalidArgumentError(f"edge endpoint outside vertex set: {ends}")
        super().__init__(self.edges.keys(), self._indep_query, name="graphic")
        self._rank_bound = len(self.vertices) - 1

    def _indep_query(self, subset: frozenset[int]) -> bool:
        return graphic_independent(self.vertices, [self.edges[e] for e in subset])

    def _part_state(self, part: set[int]) -> _RootedForest | None:
        return self._part_update(part, _RootedForest(), (), part)

    def _part_update(self, part: set[int], state: _RootedForest, left: Collection[int],
                     arrived: Collection[int]) -> _RootedForest | None:
        """Cut the edges that left the forest and link the ones that
        arrived, in place.  Each forest on the way lies inside the new
        part, so while that is a forest no link closes a cycle.  The
        arrivals are linked in the order given: that order moves only the
        roots, while `acyclic` and every path are properties of the edge
        set alone."""
        state.exchange(left, arrived, self.edges)
        return state if state.acyclic else None

    def _circuit(self, part: set[int], state: _RootedForest,
                 y: int) -> frozenset[int] | None:
        path = state.path(*self.edges[y])
        return None if path is None else frozenset(path)

    def _fits(self, part: set[int], state: _RootedForest, y: int) -> bool:
        """y is no loop and its ends lie in different trees of `state`."""
        u, v = self.edges[y]
        tree = state.tree
        return u != v and (u not in tree or v not in tree or tree[u] != tree[v])


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
    declared: set[int] = set()  # by 'v' lines; hyperedges declare theirs too
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
            if values[0] in declared:
                raise InstanceParseError(lineno, f"vertex {values[0]} declared twice")
            declared.add(values[0])
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
        self._setup(h.vertices, {eid: tuple(sorted(vs)) for eid, vs in h.hyperedges.items()})

    @classmethod
    def of_tuples(cls, vertices: frozenset[int], hyperedges: Mapping[int, tuple[int, ...]]
                  ) -> "HypergraphicMatroid":
        """The matroid of `hyperedges`, each a sorted tuple of 2 or 3
        distinct members of `vertices`, taken as they are, unchecked: for
        a caller whose hyperedges are built that way, such as the
        normal-form scan."""
        oracle = cls.__new__(cls)
        oracle._setup(vertices, hyperedges)
        return oracle

    def _setup(self, vertices: frozenset[int], hyperedges: Mapping[int, tuple[int, ...]]) -> None:
        self._vertices = hyperedges
        self._pairs = {eid: list(itertools.combinations(vs, 2))
                       for eid, vs in hyperedges.items()}
        super().__init__(hyperedges.keys(), self._indep_query, name="hypergraphic")
        self._rank_bound = len(vertices) - 1

    def _augment(self, forest: _RootedForest, new_eid: int) -> dict[int, Pair] | None:
        """Insert one hyperedge into `forest` by a shortest exchange chain.

        Breadth-first over vertex pairs, starting from new_eid's: a claimed
        pair whose ends the forest joins displaces the hyperedges whose
        representatives lie on that path (the path's labels), and each
        displaced hyperedge claims its other pairs not yet claimed.  The
        first claimed pair whose ends lie in different trees ends the
        search: the result maps each hyperedge on its chain (new_eid
        included) to its new pair, for the caller to apply, or is None when
        no chain exists.  new_eid's own pairs head the queue, so when one
        of them already joins two trees the first such pair is the chain,
        and it is returned before any search state is built.  `forest` is
        only read, so a failed search leaves nothing to undo."""
        tree = forest.tree
        for a, b in self._pairs[new_eid]:
            if a not in tree or b not in tree or tree[a] != tree[b]:
                return {new_eid: (a, b)}
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
                for p2 in pairs[needy]:
                    if p2 == ends[needy] or p2 in claimant:
                        continue
                    claimant[p2] = needy
                    parent[p2] = p
                    queue.append(p2)
        return None

    def witness(self, subset: Iterable[int]) -> dict[int, Pair] | None:
        """Representative pairs forming a forest, or None when dependent."""
        forest = self._part_state(subset)
        return None if forest is None else forest.ends

    def _indep_query(self, subset: frozenset[int]) -> bool:
        return self._part_state(subset) is not None

    def _part_state(self, part: Iterable[int]) -> _RootedForest | None:
        """The representative forest of `part`, grown from an empty one by
        `_part_update`, or None when `part` is dependent."""
        return self._part_update(part, _RootedForest(), (), self.members(part))

    def _part_update(self, part: Iterable[int], state: _RootedForest, left: Collection[int],
                     arrived: Collection[int]) -> _RootedForest | None:
        """Drop the representatives of `left`, then insert each of
        `arrived` in ascending order by one exchange search, applying its
        chain (the displaced hyperedges' old pairs out, the chain's pairs
        in), all in place: |arrived| searches where a rebuild takes |part|.
        Each set on the way lies inside the new part, so while that is
        independent every insertion fits; the first that does not reports
        the part dependent.  This is the only caller of `_augment`.  The
        result is checked once by `acyclic` (pairs are never loops, and a
        repeated pair counts as a cycle)."""
        if left:
            state.exchange(left, (), {})
        for eid in sorted(arrived):
            chain = self._augment(state, eid)
            if chain is None:
                return None
            state.exchange([e for e in chain if e in state.ends], chain, chain)
        if not state.acyclic:
            raise InternalInvariantError(
                "representative exchange produced a non-forest; "
                "run check_matroid_axioms on the hypergraphic oracle")
        return state

    def _circuit(self, part: set[int], state: _RootedForest,
                 y: int) -> frozenset[int] | None:
        """The circuit C(part, y) less y, by the closure of tight sets
        (Lorea 1975; Frank-Kiraly-Kriesell 2003).

        A set S of hyperedges is tight when |S| = |V(S)| - 1.  A subset of
        the independent part is tight exactly when its representatives
        form one tree on V(S), a subtree of the part's forest, so the
        forest path between two vertices of V(S) is made of S.  C - y is
        the least tight subset of the part whose vertices hold V(y): part
        + y is dependent exactly when some X inside the part has
        |X + y| > |V(X + y)| - 1, and as X is independent that makes X
        tight with V(y) inside V(X); X + y then holds the unique circuit,
        so C - y lies inside every such X, and is one itself.

        The closure starts at one vertex of y and joins each other vertex
        of y to the subtree held so far by its forest path, up to the first
        vertex already joined; then it does the same for each vertex of
        every hyperedge whose representative it has taken in.  Every
        tight set that holds V(y) holds each path taken, by induction; and
        at the fixpoint the labels held form one tree on the joined
        vertices, which are their vertex set, so they are tight.  They are
        C - y.  The joined vertices are a subtree whose top, its vertex
        nearest the root, is the only one a path from outside can enter
        from above: a climb from a vertex below the top meets the subtree,
        and one from elsewhere meets the top's climb at their common
        ancestor, the new top.  So each vertex joins once, with one step up
        the forest.

        A vertex in another tree, or outside the forest, is in no tight
        set with V(y), so y fits.  The forest is only read: inserting y is
        `_part_update`'s."""
        tree, depth, up = state.tree, state.depth, state.up
        vertices = self._vertices
        first, *todo = vertices[y]
        root = tree.get(first)
        joined = {first}
        top = first
        held: set[int] = set()
        while todo:
            a = todo.pop()
            if a in joined:
                continue
            if root is None or tree.get(a) != root:
                return None
            while a not in joined:
                if depth[a] >= depth[top]:
                    joined.add(a)
                    a, label = up[a]
                else:
                    top, label = up[top]
                    joined.add(top)
                held.add(label)
                todo.extend(vertices[label])
        return frozenset(held)


def hypergraphic_independent(h: Hypergraph, subset: Iterable[int]
                             ) -> tuple[bool, dict[int, Pair] | None]:
    """Independence plus a representative-forest witness on success."""
    reps = HypergraphicMatroid(h).witness(subset)
    return (reps is not None), reps


def hypergraphic_rank(h: Hypergraph, subset: Iterable[int] | None = None) -> int:
    """Matroid rank of the hyperedge subset: a one-part packing."""
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
    return _packed_size(HypergraphicMatroid(h), k, subset)


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
    was placed and the parts are not full.  Once the parts are full, the
    search stops and `reached` is the whole ground set, which is then
    such a minimiser too (`_pack`).

    `states` holds each part's final oracle state, in part order, outside
    equality: for the hypergraphic oracle, the part's representative forest,
    whose `ends` maps each hyperedge of the part to its pair.
    """

    family: UnionBasisFamily
    size: int
    unplaced: tuple[int, ...]
    reached: frozenset[int]
    states: tuple[object, ...] = field(compare=False)

    @property
    def parts(self) -> tuple[frozenset[int], ...]:
        return self.family.parts


class _Part:
    """One part of a k-fold packing and the oracle's state for it.

    A circuit query only reads the state, and `update` alone moves it.  An
    element placed with no exchange arrives alone, as `((), (x,))`."""

    __slots__ = ("index", "items", "state")

    def __init__(self, oracle: Matroid, index: int, items: set[int]):
        self.index = index
        self.items = items
        self._settle(oracle, oracle._part_state(items))

    def update(self, oracle: Matroid, left: Collection[int],
               arrived: Collection[int]) -> None:
        """Move the state past a chain that took `left` out of `items` and
        put `arrived` in; `items` already reflects both."""
        self._settle(oracle, oracle._part_update(self.items, self.state, left, arrived))

    def _settle(self, oracle: Matroid, state: object | None) -> None:
        if state is None:
            raise InternalInvariantError(
                f"union augmentation broke part {self.index}; "
                f"run check_matroid_axioms on oracle {oracle.name!r}")
        self.state = state

    def circuit(self, oracle: Matroid, y: int) -> frozenset[int] | None:
        return oracle._circuit(self.items, self.state, y)


def _apply_chain(oracle: Matroid, parts: list[_Part], asked: list[_Part],
                 placement: dict[int, int], part: _Part, y: int,
                 parent: Mapping[int, int | None] | None) -> None:
    """Put y into `part` and each element before it on the chain (`parent`;
    None for x alone) into the part the next one left, update the changed
    parts in index order, and move `part` last in `asked` once it fills."""
    if parent is None:
        part.items.add(y)
        placement[y] = part.index
        part.update(oracle, (), (y,))
    else:
        moves: dict[int, tuple[set[int], set[int]]] = {}
        target: int | None = part.index
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
    if len(part.items) == oracle._rank_bound:
        asked.remove(part)
        asked.append(part)


def _first_fit(fits: Callable[[set[int], object, int], bool], asked: list[_Part],
               y: int, y_at: int | None) -> _Part | None:
    """The first part of `asked` but y's own (`y_at`) that fits y, or None."""
    for part in asked:
        if part.index != y_at and fits(part.items, part.state, y):
            return part
    return None


def _union_augment(oracle: Matroid, parts: list[_Part], asked: list[_Part],
                   placement: dict[int, int], x: int,
                   closed: set[int]) -> frozenset[int] | None:
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
      reaches less `closed`, so the union of reached sets is the same.

    A part that holds `oracle._rank_bound` elements is full: it is a
    basis, so it takes no y.  `asked` holds the parts, those not full
    first and in index order, so a full part is asked about y only when
    every other part y is not in has refused y.  The part that takes y is
    then the first in index order that does, and the circuits are enqueued
    in index order, so the chain and the reached set are those of asking
    every part in index order.  Only the part a chain ends in grows, so
    when it fills it moves to the end of `asked`.

    Most elements fit a part at once (all 27 edges of an nwt graph on 9
    vertices at k=4, for one).  So the search state, the parent map and
    the queue, is built only once every part has refused x, and x's
    circuits seed it in index order as above; a part that takes x at once
    gets it as a single arrival, with no chain to walk.  An oracle's exact
    fit test (`Matroid._fits`) is asked first, of x and of each element as
    it is enqueued, and the first enqueued element that a part takes ends
    the chain: with a first-in, first-out queue and parts that stay still
    during a search, it is the first dequeued one that fits, and a failed
    search still enqueues all."""
    fits = oracle._fits
    if fits is not None and (part := _first_fit(fits, asked, x, None)) is not None:
        _apply_chain(oracle, parts, asked, placement, part, x, None)
        return None
    parent: dict[int, int | None] | None = None
    queue: deque[int] | None = None
    y = x
    while True:
        y_at = placement.get(y)
        circuits: list[Iterable[int]] = [()] * len(parts)
        for part in asked:
            if part.index == y_at:
                continue
            circuit = part.circuit(oracle, y)
            if circuit is not None:
                circuits[part.index] = circuit
                continue
            _apply_chain(oracle, parts, asked, placement, part, y, parent)
            return None
        if parent is None:
            parent, queue = {x: None}, deque()
        for circuit in circuits:
            for z in sorted(circuit):
                if z not in parent and z not in closed:
                    parent[z] = y
                    if fits is not None and \
                            (part := _first_fit(fits, asked, z, placement[z])) is not None:
                        _apply_chain(oracle, parts, asked, placement, part, z, parent)
                        return None
                    queue.append(z)
        if not queue:
            return frozenset(parent)
        y = queue.popleft()


def _pack(oracle: Matroid, k: int, order: Sequence[int]
          ) -> tuple[list[_Part], list[int], frozenset[int]]:
    """The parts, each with its oracle state, the unplaced elements, and
    the union of the sets their failed searches reached, for `order`,
    distinct ground-set elements in ascending order; once the parts are
    full, the element set E = `order` instead of that union.

    The parts are full when each holds `oracle._rank_bound` elements (|V| - 1
    for the graphic and hypergraphic oracles), and then the search stops:
    the elements not yet tried are unplaced with no search.  That loses no
    element.  An independent part of that size has rank(E) <= bound <=
    |part| <= rank(E), so every part is a basis of E, and k disjoint bases
    already hold the k-fold union rank k * rank(E) (Edmonds 1965), so no
    chain places another element.  E is then a minimiser of
    |E - A| + k * rank(A), as the packed size k * rank(E) is its value at
    A = E; each part spans it and it holds every unplaced element."""
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    parts = [_Part(oracle, i, set()) for i in range(k)]
    asked = list(parts)
    full = None if oracle._rank_bound is None else k * oracle._rank_bound
    placement: dict[int, int] = {}
    unplaced: list[int] = []
    reached: set[int] = set()
    for x in order:
        if len(placement) == full:
            unplaced.append(x)
        elif (seen := _union_augment(oracle, parts, asked, placement, x, reached)) is not None:
            unplaced.append(x)
            reached |= seen
    if len(placement) == full:
        reached = set(order)
    return parts, unplaced, frozenset(reached)


def _packed_size(oracle: Matroid, k: int, subset: Iterable[int] | None) -> int:
    """The size of a maximum packing of the subset (default: the ground
    set) into k parts: the k-fold union rank."""
    return sum(len(part.items) for part in _pack(oracle, k, oracle.members(subset))[0])


def pack_elements(oracle: Matroid, k: int, elements: Iterable[int]
                  ) -> tuple[list[set[int]], list[int]]:
    """Pack elements into k disjoint oracle-independent parts, maximally.

    Elements are attempted in ascending id order; each one is inserted by
    the first shortest augmenting chain found, or reported back as
    unplaceable.  The total placed count equals the k-fold union rank of
    the element set.  How a search runs and how it moves the parts'
    states is `_union_augment`'s; when the search stops, `_pack`'s.
    """
    parts, unplaced, _ = _pack(oracle, k, oracle.members(elements))
    return [part.items for part in parts], unplaced


def pack_bases(oracle: Matroid, k: int) -> PackBasesResult:
    """Maximum packing of the ground set into k disjoint independent parts.

    The family plus its achieved size is the deficiency certificate, and
    `reached` is a set A attaining the minimum of |ground - A| + k * rank(A),
    read off the failed exchange searches, or the ground set once the
    parts are full and the search stops (`_pack`); `states` carries each
    part's representative forest, so no caller grows it again.  No rank
    pass runs: the parts are disjoint bases exactly when
    size == k * rank(ground), and the pipelines test size == k * (|V| - 1),
    which needs no rank.  That size is where the parts are full, so the
    pipelines then take the packed branch and never read `reached`.
    """
    parts, unplaced, reached = _pack(oracle, k, oracle.ground)
    family = UnionBasisFamily(parts=tuple(frozenset(part.items) for part in parts))
    return PackBasesResult(family=family, size=family.size, unplaced=tuple(unplaced),
                           reached=reached, states=tuple(part.state for part in parts))


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
