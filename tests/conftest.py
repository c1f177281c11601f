"""Shared brute-force oracles and instance builders.

The oracles here are deliberately independent of the library's primary
code paths: cuts by subset enumeration, terminal connectivity by vertex
bipartitions, hypergraphic independence by full representative products,
forest paths by breadth-first search, and convex decomposability by an
exact rational phase-one simplex.  Tests compare the fast implementations
against these.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

import pytest

from treepack import Hypergraph, Multigraph
from treepack.rng import SplitMix64


@pytest.fixture(autouse=True)
def _default_capacity_caps(monkeypatch):
    """Run every test at the default enumeration caps: the exhaustive
    oracles need them.  Tests of TREEPACK_CAPACITY set it themselves."""
    monkeypatch.delenv("TREEPACK_CAPACITY", raising=False)


# -- builders ----------------------------------------------------------------


def graph_from_pairs(n: int, pairs) -> Multigraph:
    g = Multigraph()
    for v in range(n):
        g.add_vertex(v)
    for u, v in pairs:
        g.add_edge(u, v)
    return g


def triangle() -> Multigraph:
    return graph_from_pairs(3, [(0, 1), (1, 2), (0, 2)])


def doubled_triangle() -> Multigraph:
    return graph_from_pairs(3, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])


def c4() -> Multigraph:
    return graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def k4() -> Multigraph:
    return graph_from_pairs(4, list(itertools.combinations(range(4), 2)))


def random_multigraph(seed: int, max_vertices: int = 5, max_edges: int = 9,
                      loops: bool = True, connected: bool = False) -> Multigraph:
    """Seeded random multigraph; with connected=True a random spanning tree
    is laid down first."""
    rng = SplitMix64(seed)
    n = 2 + rng.below(max_vertices - 1)
    g = Multigraph()
    for v in range(n):
        g.add_vertex(v)
    m = rng.below(max_edges + 1)
    start = 0
    if connected:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            g.add_edge(order[i], order[rng.below(i)])
        start = n - 1
    for _ in range(max(0, m - start)):
        u = rng.below(n)
        v = rng.below(n)
        if u == v and not loops:
            v = (u + 1) % n
        g.add_edge(u, v)
    return g


def random_hypergraph(seed: int, n: int, m: int) -> Hypergraph:
    """Seeded hypergraph on n vertices with m hyperedges of 2 or 3 vertices."""
    rng = SplitMix64(seed)
    h = Hypergraph(range(n))
    for eid in range(m):
        size = 2 + rng.below(2)
        h.add_hyperedge(eid, rng.sample(range(n), size))
    return h


# -- oracles -----------------------------------------------------------------


def brute_min_cut(g: Multigraph, s: int, t: int) -> int:
    """Smallest edge set whose removal separates s from t, by trying all
    2^|E| subsets (loops never matter)."""
    edges = [e for e in sorted(g.edges) if not g.is_loop(e)]
    best = len(edges)
    for size in range(len(edges) + 1):
        if size >= best:
            break
        for combo in itertools.combinations(edges, size):
            removed = set(combo)
            if not _reachable(g, s, t, removed):
                best = size
                break
        else:
            continue
        break
    return best


def _reachable(g: Multigraph, s: int, t: int, removed: set[int]) -> bool:
    seen = {s}
    stack = [s]
    while stack:
        x = stack.pop()
        if x == t:
            return True
        for eid in g.incident_edges(x):
            if eid in removed or g.is_loop(eid):
                continue
            y = g.other_end(eid, x)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return t in seen


def brute_steiner_connectivity(g: Multigraph, terminals) -> int:
    """Minimum crossing-edge count over all vertex bipartitions splitting
    the terminal set (the graph must be connected for this to equal the
    cut-based definition)."""
    tset = frozenset(terminals)
    vs = sorted(g.vertices)
    best = None
    for mask in range(1, 1 << (len(vs) - 1)):
        side = {vs[i] for i in range(len(vs)) if mask >> i & 1}
        if not (side & tset) or tset <= side:
            continue
        crossing = 0
        for u, v in g.edges.values():
            if (u in side) != (v in side):
                crossing += 1
        if best is None or crossing < best:
            best = crossing
    assert best is not None
    return best


def brute_hypergraphic_independent(h, subset) -> bool:
    """Try every representative assignment (up to 3^|A|)."""
    from treepack import graphic_independent
    ids = sorted(subset)
    choices = [list(itertools.combinations(sorted(h.hyperedges[e]), 2)) for e in ids]
    for combo in itertools.product(*choices):
        if graphic_independent(h.vertices, combo):
            return True
    return False


def forest_path(edges, u: int, v: int) -> list | None:
    """Labels on the path between u and v of the forest given by labelled
    edges (label, (a, b)), listed from v back to u, by breadth-first
    search; None when u and v lie in different trees."""
    adj: dict[int, list] = {}
    for label, (a, b) in edges:
        adj.setdefault(a, []).append((b, label))
        adj.setdefault(b, []).append((a, label))
    if u == v:
        return []
    if u not in adj or v not in adj:
        return None
    prev = {u: None}
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


def all_pairwise_cuts(g: Multigraph, vertices) -> dict:
    from treepack import min_cut
    vs = sorted(vertices)
    return {(x, y): min_cut(g, x, y)[0]
            for i, x in enumerate(vs) for y in vs[i + 1:]}


def reference_mader_split(g: Multigraph, u: int) -> tuple[tuple[int, int], int]:
    """First-fit splitting pair at u, each candidate checked by recomputing
    every pairwise min-cut among the other vertices; also returns how many
    candidates were rejected before it."""
    from treepack import split_off
    others = g.vertices - {u}
    before = all_pairwise_cuts(g, others)
    candidates = [e for e in g.incident_edges(u) if not g.is_loop(e)]
    rejected = 0
    for i, e1 in enumerate(candidates):
        for e2 in candidates[i + 1:]:
            trial, _ = split_off(g, u, e1, e2)
            if all_pairwise_cuts(trial, others) == before:
                return (e1, e2), rejected
            rejected += 1
    raise AssertionError(f"no cut-preserving pair at vertex {u}")


# -- exact rational feasibility ------------------------------------------------


def convex_combination_exists(vectors: list[dict[int, Fraction]],
                              target: dict[int, Fraction]) -> bool:
    """Is `target` a convex combination of `vectors`?  Exact phase-one
    simplex with Bland's rule over Fractions."""
    keys = sorted(target)
    rows: list[list[Fraction]] = []
    for key in keys:
        rows.append([Fraction(vec.get(key, 0)) for vec in vectors] + [Fraction(target[key])])
    rows.append([Fraction(1)] * len(vectors) + [Fraction(1)])  # weights sum to 1
    return _phase_one_feasible(rows, len(vectors))


def _phase_one_feasible(rows: list[list[Fraction]], n_vars: int) -> bool:
    # Minimize the sum of one artificial variable per row, subject to
    # Ax + a = b with x, a >= 0; feasible iff the optimum is 0.  Bland's
    # rule keeps the pivoting finite.
    m = len(rows)
    for r in rows:
        if r[-1] < 0:
            for i in range(len(r)):
                r[i] = -r[i]
    tab = []
    for i, r in enumerate(rows):
        art = [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        tab.append(r[:-1] + art + [r[-1]])
    width = n_vars + m + 1
    # Reduced-cost row with the artificials basic: real columns get minus
    # their column sums, artificial columns start at zero, and the last
    # entry tracks minus the objective.
    cost = [Fraction(0)] * width
    for j in list(range(n_vars)) + [width - 1]:
        cost[j] = -sum(tab[i][j] for i in range(m))
    basis = [n_vars + i for i in range(m)]
    while True:
        enter = next((j for j in range(n_vars + m) if cost[j] < 0), None)
        if enter is None:
            break
        ratios = [(tab[i][-1] / tab[i][enter], basis[i], i)
                  for i in range(m) if tab[i][enter] > 0]
        if not ratios:
            break
        _, _, leave = min(ratios)
        pivot = tab[leave][enter]
        tab[leave] = [v / pivot for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                factor = tab[i][enter]
                tab[i] = [a - factor * b for a, b in zip(tab[i], tab[leave])]
        factor = cost[enter]
        if factor != 0:
            cost = [a - factor * b for a, b in zip(cost, tab[leave])]
        basis[leave] = enter
    return -cost[-1] == 0
