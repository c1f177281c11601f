"""Shared brute-force oracles and instance builders.

The oracles here are deliberately independent of the library's primary
code paths: cuts by subset enumeration, terminal connectivity by vertex
bipartitions, hypergraphic independence by full representative products,
forest paths by breadth-first search, and convex decomposability by an
exact rational phase-one simplex.  The reducer's slow paths live here
too: bridges by one search per edge, split trials by a fresh min_cut per
tree edge, the terminal cut with every flow run in full, and the
scalar-bound deletion guard that recounts λ_T whenever its bound has no
slack.  So does the union engine's: the exchange search with no pruning,
over part states rebuilt after every chain, and the hypergraphic circuit
as what one failed exchange search displaces.  So does the leaf pruning
that rescans the whole edge set per leaf, the packing verifier that
finds every vertex a part must span, and the normal form read three
times: its test, its hypergraph built through `add_hyperedge`, and its
flow-free cut on hyperedges read off the incidence lists.  So does the kriesell model's
draw that builds every graph and runs the flows before rejecting it.
Tests compare the fast implementations against these.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import replace
from fractions import Fraction

from treepack import Hypergraph, Multigraph
from treepack.rng import SplitMix64


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


# (terminals low, high, non-terminals low, high, probabilities of a terminal end)
PROBE_SETTINGS = {
    "small": (3, 5, 8, 30, (0.3, 0.45, 0.6)),
    "large": (3, 4, 30, 70, (0.45, 0.6, 0.75)),
    "many-terminals": (6, 10, 20, 50, (0.5, 0.7)),
}


def probe_family(setting: str, seed: int) -> tuple[Multigraph, frozenset[int]]:
    """A draw of the probe family and its terminals: t terminals 0..t-1
    with no edge between two of them, and N degree-3 non-terminals
    t..t+N-1, many adjacent to non-terminals.  Each end of each
    non-terminal, in ascending order, goes to a random terminal with
    probability p, or else onto a list of loose ends; the shuffled loose
    ends are joined two by two from the back, and an odd one left goes to
    a random terminal."""
    tl, th, nl, nh, ps = PROBE_SETTINGS[setting]
    r = random.Random(seed)
    t, n, p = r.randint(tl, th), r.randint(nl, nh), r.choice(ps)
    terminals = list(range(t))
    g = graph_from_pairs(t + n, [])
    loose: list[int] = []
    for u in range(t, t + n):
        for _ in range(3):
            if r.random() < p:
                g.add_edge(u, r.choice(terminals))
            else:
                loose.append(u)
    r.shuffle(loose)
    while len(loose) >= 2:
        g.add_edge(loose.pop(), loose.pop())
    if loose:
        g.add_edge(loose.pop(), r.choice(terminals))
    return g, frozenset(terminals)


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
    """Is `flow` (a map from edge id to +1 along the stored edge direction
    or -1 against it, holding only the edges that carry a unit) a
    unit-capacity s-t flow of `value` that idles on loops?"""
    assert all(f != 0 and g.has_edge(eid) for eid, f in flow.items()), flow
    net = dict.fromkeys(g.vertices, 0)
    for eid, (a, b) in g.edges.items():
        f = flow.get(eid, 0)
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


def reference_steiner_min_cut(g: Multigraph, terminals) -> tuple[int, frozenset[int]]:
    """steiner_min_cut with no cap: a full min_cut from t0 = min T to every
    other terminal in ascending order, keeping the side of the first strict
    minimum; t0's component when some terminal lies outside it."""
    from treepack import min_cut
    tset = frozenset(terminals)
    t0 = min(tset)
    component = {t0}
    queue = deque([t0])
    while queue:
        for y in g.neighbors(queue.popleft()):
            if y not in component:
                component.add(y)
                queue.append(y)
    if not tset <= component:
        return 0, frozenset(component)
    best = None
    for t in sorted(tset - {t0}):
        size, side = min_cut(g, t0, t)
        if best is None or size < best[0]:
            best = size, side
    return best


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


def reference_split_verdict(g: Multigraph, u: int, e1: int, e2: int, tree) -> bool:
    """Does the split keep every tree edge's value?  A fresh min_cut per
    tree edge in the split graph."""
    from treepack import min_cut, split_off
    trial, _ = split_off(g, u, e1, e2)
    return all(min_cut(trial, x, p)[0] >= value for x, p, value, *_ in tree)


def reference_threshold_split(g: Multigraph, u: int, tset, threshold: int) -> tuple[int, int]:
    """The reducer's split at u: the first candidate pair, in ascending
    edge-id order, after whose split a fresh steiner_connectivity is still
    at or above `threshold`, raising PreconditionViolationError where
    mader_split does."""
    from treepack import PreconditionViolationError, split_off, steiner_connectivity
    candidates = [e for e in g.incident_edges(u) if not g.is_loop(e)]
    if g.degree(u) == 3 or len(candidates) < 2 or not g.is_connected() \
            or reference_has_incident_cut_edge(g, u):
        raise PreconditionViolationError(f"cannot split at {u}")
    for i, e1 in enumerate(candidates):
        for e2 in candidates[i + 1:]:
            trial, _ = split_off(g, u, e1, e2)
            if steiner_connectivity(trial, tset) >= threshold:
                return e1, e2
    raise AssertionError(f"no threshold-preserving pair at vertex {u}")


def _reference_drain(g: Multigraph, u: int, tset, threshold: int, steps: list) -> None:
    """Split the even non-terminal u of g to isolation and remove it,
    appending each step to `steps`; a split precondition stops it with
    the steps made so far kept."""
    from treepack import split_off
    from treepack.graphcore import DeleteEdgeStep, RemoveIsolatedStep
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
            return
        _, step = split_off(g, u, *reference_threshold_split(g, u, tset, threshold))
        step.apply(g)
        steps.append(step)
    g.remove_vertex(u)
    steps.append(RemoveIsolatedStep(vertex=u))


def reference_reduce_instance(g: Multigraph, terminals, threshold: int):
    """The scalar-bound reducer: components without terminals deleted
    first, then one lower bound on λ_T, spent one unit per deletion while
    above the threshold and otherwise replaced by a full
    steiner_connectivity recount, a deletion that disconnects the graph
    refused at a positive threshold, and per split the first pair that
    keeps a fresh steiner_connectivity at or above the threshold; a split
    precondition stops the splits at a vertex, and those made stay.  Such
    a split may lower λ_T by up to 2, so the bound is recounted after each
    vertex pass.  Returns the reduced graph and the trace steps."""
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
                made = len(trace)
                try:
                    _reference_drain(work, u, tset, threshold, trace)
                except PreconditionViolationError:
                    pass  # the splits made so far stay, as in the odd branch
                changed = changed or len(trace) > made
            elif deg >= 5:
                while work.degree(u) > 3:
                    try:
                        pair = reference_threshold_split(work, u, tset, threshold)
                    except PreconditionViolationError:
                        break
                    _, step = split_off(work, u, *pair)
                    step.apply(work)
                    trace.append(step)
                    changed = True
        bound = steiner_connectivity(work, tset)
    return work, trace


def reference_pack(oracle, k: int, elements):
    """Edmonds' matroid partition with no pruning and no in-place updates:
    every search runs over the whole exchange digraph, into the sets that
    earlier failed searches closed as well, and each part a chain changed
    gets its state anew from `_part_state`.  Returns the parts, the
    unplaced elements, the union of the failed searches' reached sets and
    the summed size of those sets."""
    parts: list[set[int]] = [set() for _ in range(k)]
    states = [oracle._part_state(part) for part in parts]
    placement: dict[int, int] = {}
    unplaced: list[int] = []
    reached: set[int] = set()
    reach = 0
    for x in sorted(set(elements)):
        parent = {x: None}
        queue = deque([x])
        placed = False
        while queue and not placed:
            y = queue.popleft()
            circuits = []
            for i in range(k):
                if i == placement.get(y):
                    continue
                circuit = oracle._circuit(parts[i], states[i], y)
                if circuit is None:
                    changed, target, cur = set(), i, y
                    while cur is not None:
                        old = placement.get(cur)
                        parts[target].add(cur)
                        placement[cur] = target
                        changed.add(target)
                        if old is not None:
                            parts[old].discard(cur)
                            changed.add(old)
                        target, cur = old, parent[cur]
                    for t in changed:
                        states[t] = oracle._part_state(parts[t])
                        assert states[t] is not None
                    placed = True
                    break
                circuits.append(circuit)
            else:
                for circuit in circuits:
                    for z in sorted(circuit):
                        if z not in parent:
                            parent[z] = y
                            queue.append(z)
        if not placed:
            unplaced.append(x)
            reached |= parent.keys()
            reach += len(parent)
    return parts, unplaced, frozenset(reached), reach


def reference_hypergraphic_circuit(oracle, forest, y: int):
    """The hypergraphic circuit C(part, y) less y as the set one failed
    exchange search displaces, or None when y fits the part, whose
    representative forest is `forest`.

    Breadth-first over vertex pairs from y's: a claimed pair whose ends
    the forest joins displaces the hyperedges whose representatives lie on
    that path, and each displaced hyperedge claims its other pairs not yet
    claimed.  The first claimed pair whose ends lie in different trees ends
    the search with a chain.  When none does, the displaced set is C - y:
    every pair of y and of each displaced hyperedge is joined by paths of
    displaced representatives, so y is spanned by them; and a displaced z
    heads a shortest augmenting chain in the forest of part - z, so part -
    z + y is independent."""
    ends = forest.ends
    pairs = oracle._pairs
    claimed = set(pairs[y])
    queue = deque(pairs[y])
    displaced = set()
    while queue:
        blockers = forest.path(*queue.popleft())
        if blockers is None:
            return None
        for needy in blockers:
            displaced.add(needy)
            for p2 in pairs[needy]:
                if p2 == ends[needy] or p2 in claimed:
                    continue
                claimed.add(p2)
                queue.append(p2)
    return frozenset(displaced)


def reference_prune_to_terminal_tree(g: Multigraph, terminals, edge_ids) -> frozenset[int]:
    """prune_to_terminal_tree removing one leaf per rescan: the same
    breadth-first tree from the least terminal, then rounds that each
    recount every degree of the tree, drop the edge at its least
    non-terminal leaf, and stop when there is none."""
    from treepack import InternalInvariantError
    adj: dict[int, list[tuple[int, int]]] = {}
    for eid in sorted(edge_ids):
        u, v = g.endpoints(eid)
        adj.setdefault(u, []).append((v, eid))
        adj.setdefault(v, []).append((u, eid))
    root = min(terminals)
    tree: set[int] = set()
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for x in frontier:
            for y, eid in sorted(adj.get(x, ())):
                if y not in seen:
                    seen.add(y)
                    tree.add(eid)
                    nxt.append(y)
        frontier = nxt
    if not terminals <= seen:
        raise InternalInvariantError("pruning disconnected a terminal")
    while True:
        deg: dict[int, int] = {}
        for eid in tree:
            for v in g.endpoints(eid):
                deg[v] = deg.get(v, 0) + 1
        drop = next((v for v in sorted(deg) if deg[v] == 1 and v not in terminals), None)
        if drop is None:
            return frozenset(tree)
        tree.discard(next(eid for eid in tree if drop in g.endpoints(eid)))


def reference_verify_packing(g: Multigraph, terminals, packing):
    """verify_packing's part checks as their own scan: one union-find per
    part over its edges, a cycle when some union finds its ends already
    joined, and connectivity by a `find` of every vertex the part must
    span.  The reasons and their order are verify_packing's."""
    from treepack.matroid import _DSU
    from treepack.packing import VerifyResult
    seen: dict[int, int] = {}
    for i, part in enumerate(packing.parts):
        for eid in part:
            if eid in seen:
                return VerifyResult(ok=False, part_index=i,
                                    reason=f"edge {eid} also in part {seen[eid]}")
            seen[eid] = i
    tset = frozenset(terminals or ())
    canonical = True
    for i, part in enumerate(packing.parts):
        if packing.mode == "spanning":
            if len(part) != len(g.vertices) - 1:
                return VerifyResult(ok=False, part_index=i,
                                    reason=f"{len(part)} edges cannot span "
                                           f"{len(g.vertices)} vertices as a tree")
            vertices = set(g.vertices)
        else:
            if not part:
                if len(tset) != 1:
                    return VerifyResult(ok=False, part_index=i, reason="empty part")
                continue
            vertices = {v for eid in part for v in g.endpoints(eid)}
            if not tset <= vertices:
                return VerifyResult(ok=False, part_index=i, reason="part misses a terminal")
        dsu = _DSU()
        acyclic = True
        for eid in part:
            acyclic &= dsu.union(*g.endpoints(eid))
        if packing.mode != "connector" and not acyclic:
            return VerifyResult(ok=False, part_index=i, reason="part has a cycle")
        if not dsu.joins(vertices):
            return VerifyResult(ok=False, part_index=i, reason="part is disconnected")
        if packing.mode == "connector":
            deg: dict[int, int] = {}
            for eid in part:
                for v in g.endpoints(eid):
                    deg[v] = deg.get(v, 0) + 1
            for v in sorted(vertices - tset):
                if deg.get(v, 0) % 2:
                    return VerifyResult(ok=False, part_index=i,
                                        reason=f"non-terminal {v} has odd degree {deg[v]}")
                canonical &= deg.get(v, 0) in (0, 2)
    if packing.mode == "connector":
        return VerifyResult(ok=True, canonical=canonical,
                            note=None if canonical else "unverified connector shape")
    return VerifyResult(ok=True)


def reference_normal_form_violation(g: Multigraph, tset) -> tuple[str, int] | None:
    """The normal-form test as its own scan: every non-terminal, in
    ascending order, by its degree and neighbour set, then every edge, in
    ascending id, for a loop.  None when g is in the form."""
    for u in sorted(g.vertices - tset):
        nbrs = g.neighbors(u)
        if g.degree(u) != 3 or len(nbrs) != 3 or not nbrs <= tset:
            return "vertex", u
    for eid in sorted(g.edges):
        u, v = g.endpoints(eid)
        if u == v:
            return "loop", eid
    return None


def reference_steiner_hypergraph(g: Multigraph, tset):
    """The hypergraph of a normal-form graph built through
    `Hypergraph.add_hyperedge`, with its origin map: terminal-terminal
    edges under their ids, then the hubs in ascending order from
    max(edge id) + 1, each on its neighbour set."""
    origin: dict[int, tuple[str, int]] = {}
    h = Hypergraph(tset)
    next_id = (max(g.edges) + 1) if g.edges else 0
    for eid in sorted(g.edges):
        u, v = g.endpoints(eid)
        if u in tset and v in tset:
            h.add_hyperedge(eid, (u, v))
            origin[eid] = ("edge", eid)
    for u in sorted(g.vertices - tset):
        h.add_hyperedge(next_id, g.neighbors(u))
        origin[next_id] = ("vertex", u)
        next_id += 1
    return h, origin


def reference_normal_form_cut(g: Multigraph, tset) -> int:
    """The flow-free terminal cut of a normal-form graph with its
    hyperedges read off the incidence lists (each hub's arcs, each
    terminal's forward arcs to a terminal) and `best` starting at the
    least terminal incidence."""
    arcs = g._incidence
    edges: list[tuple[int, ...]] = []
    for v, inc in arcs.items():
        if v not in tset:
            edges.append(tuple([w for _, w, _ in inc]))
        else:
            edges.extend((v, w) for _, w, direction in inc if direction == 1 and w in tset)
    best = min(len(arcs[t]) for t in tset)
    labels = sorted(tset)
    while best > 0 and len(labels) > 1:
        meets: dict[int, list[int]] = {x: [] for x in labels}
        for i, ends in enumerate(edges):
            for x in ends:
                meets[x].append(i)
        key = dict.fromkeys(labels[1:], 0)
        v = labels[0]
        order, attach = [v], [0]
        counted = [False] * len(edges)
        while key:
            for i in meets[v]:
                if not counted[i]:
                    counted[i] = True
                    for x in edges[i]:
                        if x in key:
                            key[x] += 1
            v = max(key, key=key.__getitem__)
            order.append(v)
            attach.append(key.pop(v))
        best = min(best, attach[-1])
        merged = {}
        for i, x in enumerate(order):
            if i == 0 or (attach[i] < best and i < len(order) - 1):
                run = x
            merged[x] = run
        edges = [ends for ends in (tuple({merged[x] for x in e}) for e in edges)
                 if len(ends) > 1]
        labels = sorted(set(merged.values()))
    return best


def reference_generate_kriesell(n: int, k: int, seed: int,
                                min_connectivity: int | None = None,
                                max_edges: int | None = None):
    """generate_kriesell with no early rejection: every draw adds its edges,
    then is refused over `max_edges`, refused when disconnected, and
    otherwise measured by the exact terminal flows."""
    from treepack import GenerationFailureError, Thresholds, steiner_connectivity
    from treepack.generate import RETRY_BUDGET, GeneratedInstance
    target = Thresholds.for_k(k).f_k if min_connectivity is None else min_connectivity
    pair_count = n * (n - 1) // 2
    mean = max(1, (target + 2) // max(1, n - 1))
    if max_edges is not None:
        mean = max(1, min(mean, max_edges // pair_count + 1))
    rng = SplitMix64(seed)
    for attempt in range(1, RETRY_BUDGET + 1):
        g = graph_from_pairs(n, [])
        t_count = 2 + (rng.below(n - 1) if n > 2 else 0)
        terminals = frozenset(rng.sample(range(n), t_count))
        for u, v in itertools.combinations(range(n), 2):
            mult = 0
            while mult < target + 2 and rng.chance(mean, mean + 1):
                mult += 1
            for _ in range(mult):
                g.add_edge(u, v)
        if max_edges is not None and g.edge_count() > max_edges:
            continue
        if not g.is_connected():
            continue
        conn = steiner_connectivity(g, terminals)
        if conn >= target:
            return GeneratedInstance(model="kriesell", n=n, k=k, seed=seed, graph=g,
                                     terminals=terminals, connectivity=conn,
                                     target=target, attempts=attempt)
    raise GenerationFailureError(
        f"kriesell model failed to reach connectivity {target} after "
        f"{RETRY_BUDGET} attempts (n={n}, k={k}, max_edges={max_edges})")


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
