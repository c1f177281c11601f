"""Shared brute-force oracles and instance builders.

The oracles here are deliberately independent of the library's primary
code paths: cuts by subset enumeration, terminal connectivity by vertex
bipartitions, hypergraphic independence by full representative products,
forest paths by breadth-first search, and convex decomposability by an
exact rational phase-one simplex.  The reducer's slow paths live here
too: bridges by one search per edge, split trials by a fresh min_cut per
tree edge, and the scalar-bound deletion guard that recounts λ_T whenever
its bound has no slack.  Tests compare the fast implementations against
these.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import replace
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


def brute_source_side(g: Multigraph, s: int, t: int) -> frozenset[int]:
    """The s-side of the minimum s-t cut closest to s: the intersection of
    the s-sides of all minimum cuts, found by trying every vertex set."""
    others = sorted(g.vertices - {s, t})
    sides = []
    for mask in range(1 << len(others)):
        side = {s} | {v for i, v in enumerate(others) if mask >> i & 1}
        size = sum((a in side) != (b in side) for a, b in g.edges.values())
        sides.append((size, side))
    best = min(size for size, _ in sides)
    return frozenset(set.intersection(*(side for size, side in sides if size == best)))


def is_flow(g: Multigraph, flow, s: int, t: int, value: int) -> bool:
    """Is `flow` (a list indexed by edge id, +1 along the stored edge
    direction) a unit-capacity s-t flow of `value` that idles on loops?"""
    net = dict.fromkeys(g.vertices, 0)
    for eid, (a, b) in g.edges.items():
        f = flow[eid] if eid < len(flow) else 0
        if f not in (-1, 0, 1) or (a == b and f):
            return False
        net[a] += f
        net[b] -= f
    return all(net[v] == (value if v == s else -value if v == t else 0) for v in net)


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


def reference_has_incident_cut_edge(g: Multigraph, u: int) -> bool:
    """One search from u per non-loop edge at u, with that edge removed."""
    return any(not g.is_loop(eid) and not _reachable(g, u, g.other_end(eid, u), {eid})
               for eid in g.incident_edges(u))


def reference_flow_tree(g: Multigraph, vertices: list[int]) -> list[tuple[int, int, int]]:
    """Gusfield's equivalent-flow tree as (x, p, λ(x, p)), one fresh
    min_cut per edge."""
    from treepack import min_cut
    parent = {v: vertices[0] for v in vertices[1:]}
    tree = []
    for i, x in enumerate(vertices[1:], start=1):
        p = parent[x]
        value, side = min_cut(g, x, p)
        tree.append((x, p, value))
        for y in vertices[i + 1:]:
            if parent[y] == p and y in side:
                parent[y] = x
    return tree


def reference_split_verdict(g: Multigraph, u: int, e1: int, e2: int, tree) -> bool:
    """Does the split keep every tree edge's value?  A fresh min_cut per
    tree edge in the split graph."""
    from treepack import min_cut, split_off
    trial, _ = split_off(g, u, e1, e2)
    return all(min_cut(trial, x, p)[0] >= value for x, p, value, *_ in tree)


def reference_tree_split(g: Multigraph, u: int) -> tuple[int, int]:
    """mader_split with a fresh flow tree per call and a fresh min_cut per
    tree edge per trial, raising PreconditionViolationError where it does."""
    from treepack import PreconditionViolationError
    candidates = [e for e in g.incident_edges(u) if not g.is_loop(e)]
    if g.degree(u) == 3 or len(candidates) < 2 or not g.is_connected() \
            or reference_has_incident_cut_edge(g, u):
        raise PreconditionViolationError(f"cannot split at {u}")
    tree = reference_flow_tree(g, sorted(g.vertices - {u}))
    for i, e1 in enumerate(candidates):
        for e2 in candidates[i + 1:]:
            if reference_split_verdict(g, u, e1, e2, tree):
                return e1, e2
    raise AssertionError(f"no cut-preserving pair at vertex {u}")


def _reference_drain(g: Multigraph, u: int) -> list:
    from treepack import split_off
    from treepack.graphcore import DeleteEdgeStep, RemoveIsolatedStep
    steps = []
    while True:
        for eid in [e for e in g.incident_edges(u) if g.is_loop(e)]:
            steps.append(DeleteEdgeStep(edge=eid, ends=g.endpoints(eid)))
            g.delete_edge(eid)
        if g.degree(u) == 0:
            break
        if g.degree(u) == 2:
            _, step = split_off(g, u, *g.incident_edges(u))
            steps.append(replace(step, removed=u))
            steps[-1].apply(g)
            return steps
        _, step = split_off(g, u, *reference_tree_split(g, u))
        step.apply(g)
        steps.append(step)
    g.remove_vertex(u)
    steps.append(RemoveIsolatedStep(vertex=u))
    return steps


def reference_reduce_instance(g: Multigraph, terminals, threshold: int):
    """The scalar-bound reducer: components without terminals deleted
    first, then one lower bound on λ_T, spent one unit per deletion while
    above the threshold and otherwise replaced by a full
    steiner_connectivity recount, a deletion that disconnects the graph
    refused at a positive threshold, and a fresh tree split per split.
    Returns the reduced graph and the trace steps."""
    from treepack import PreconditionViolationError, split_off, steiner_connectivity
    from treepack.graphcore import DeleteEdgeStep, RemoveIsolatedStep
    tset = frozenset(terminals)
    work = g.copy()
    trace = []
    bound = steiner_connectivity(g, tset)
    reached = {v for v in work.vertices if any(_reachable(work, t, v, set()) for t in tset)}
    for eid in sorted(work.edges):
        if work.endpoints(eid)[0] not in reached:
            trace.append(DeleteEdgeStep(edge=eid, ends=work.endpoints(eid)))
            work.delete_edge(eid)
    for v in sorted(work.vertices - reached):
        trace.append(RemoveIsolatedStep(vertex=v))
        work.remove_vertex(v)

    def candidate(eid):
        a, b = work.endpoints(eid)
        if a == b or (a not in tset and b not in tset):
            return True
        if a in tset and b in tset:
            return False
        hub = a if a not in tset else b
        return work.degree(hub) == 1 or any(
            other != eid and sorted(work.endpoints(other)) == sorted((a, b))
            for other in work.incident_edges(hub))

    changed = True
    while changed:
        changed = False
        for eid in sorted(work.edges):
            if not work.has_edge(eid) or not candidate(eid):
                continue
            ends = work.endpoints(eid)
            probe = work.copy()
            probe.delete_edge(eid)
            steps = [DeleteEdgeStep(edge=eid, ends=ends)]
            for v in sorted(set(ends)):
                if v not in tset and probe.degree(v) == 0:
                    probe.remove_vertex(v)
                    steps.append(RemoveIsolatedStep(vertex=v))
            if ends[0] != ends[1]:
                if threshold > 0 and not probe.is_connected():
                    continue
                if bound - 1 >= threshold:
                    bound -= 1
                else:
                    exact = steiner_connectivity(probe, tset)
                    if exact < threshold:
                        continue
                    bound = exact
            work = probe
            trace.extend(steps)
            changed = True
        for u in sorted(work.vertices - tset):
            if not work.has_vertex(u):
                continue
            deg = work.degree(u)
            if deg == 0:
                work.remove_vertex(u)
                trace.append(RemoveIsolatedStep(vertex=u))
                changed = True
            elif deg % 2 == 0:
                probe = work.copy()
                try:
                    steps = _reference_drain(probe, u)
                except PreconditionViolationError:
                    continue
                work = probe
                trace.extend(steps)
                changed = True
            elif deg >= 5:
                while work.degree(u) > 3:
                    try:
                        pair = reference_tree_split(work, u)
                    except PreconditionViolationError:
                        break
                    _, step = split_off(work, u, *pair)
                    step.apply(work)
                    trace.append(step)
                    changed = True
    return work, trace


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
