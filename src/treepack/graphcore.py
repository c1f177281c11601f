"""Multigraphs with stable edge ids, unit-capacity cuts, and splitting-off.

The graph model is deliberately small: integer vertex ids, integer edge ids
mapping to unordered endpoint pairs, parallel edges and loops allowed.  Edge
ids are never reused, even after deletions, so a reduction trace can be
replayed forward (original -> reduced) or backward (reduced -> original)
and reproduce ids exactly.

Cut routines use unit-capacity augmenting paths; a loop never counts toward
any cut.  A multigraph's incidence lists are its residual network, and
every flow runs over them: flows are lists indexed by edge id, and one
search (`_route`) sends a unit from supply vertices to demand vertices.
`min_cut`, `steiner_min_cut`, the flow tree and every check of an edit
use it, and a flow computed before an edit is repaired after it
(`_reroute`) instead of being recomputed.  A flow from zero (`_max_flow`)
is seeded with its one- and two-edge paths in one pass before any
search, and a caller that needs only a bound caps it at exactly that
value: the terminal cut (`_terminal_cut`) caps each flow at the smallest
value so far, starting from a cap its caller may give, so below that cap
its value and side are exact and at it the value only bounds λ_T from
below.  The public `steiner_min_cut` gives no cap and is exact; the
packing pipeline caps its entry cut at the most it decides on, and the
reducer caps its flows and its exit recount at the threshold.  Input
already in the reduced normal form needs no flow for its terminal
connectivity: `_normal_form_cut` reads it off maximum-adjacency orderings
of the hypergraph the non-terminals make on the terminals.  The
splitting-off routines implement the classical degree-lowering operation
(replace edges uv, uv' at u by a single edge vv') together with a
verified search for a pair at a vertex, whose preconditions (a connected
graph, no cut-edge at the vertex) take one search of G - u
(`_split_candidates`), and a reducer that drives all
non-terminals toward the bipartite degree-3 normal form used by the
hypergraph packing pipeline, by one splitting-off rule at every
non-terminal.  A pair search splits each candidate off, repairs a list
of flows through it (at most two units each), and undoes the split when
one does not repair.  The public `mader_split` checks against the flows
of one Gusfield equivalent-flow tree, which keeps every pairwise cut;
the reducer checks its edits against one flow per terminal pair that
makes up the terminal connectivity, each of value exactly the threshold,
built once and repaired through every deletion and split, so it keeps
just the terminal connectivity at or above the threshold.

The reducer logs three kinds of step: a split (which, at a degree-2 vertex,
also removes that vertex), an edge deletion, and an isolated-vertex removal.
Each step knows how to apply itself to a graph and how to undo itself, so
replaying and rewinding a trace is one call per step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import KeysView, Mapping

from .errors import (
    InstanceParseError,
    InternalInvariantError,
    InvalidArgumentError,
    PreconditionViolationError,
    parse_int,
    read_lines,
)


class Multigraph:
    """Labeled multigraph; loops and parallel edges permitted.

    Edge ids are allocated from a monotone counter and never recycled, even
    across deletions.  A loop contributes 2 to the degree of its vertex.
    The vertex set is the key set of the incidence map.

    Each vertex's incidence is its list of arcs (edge id, other end,
    direction), which is also the graph's unit-capacity residual network:
    edge i = (a, b) is listed at a as (i, b, +1) and at b as (i, a, -1),
    and a loop once, as (i, a, +1).  A flow is a list indexed by edge id:
    flow[i] is +1 when one unit runs from a to b, -1 for the reverse, 0
    when idle, and an arc with direction d has residual capacity while
    flow[i] != d.  A loop's arc leads back to its own vertex, so no search
    ever takes it.
    """

    __slots__ = ("_edges", "_incidence", "_next_edge_id")

    def __init__(self):
        self._edges: dict[int, tuple[int, int]] = {}
        self._incidence: dict[int, list[tuple[int, int, int]]] = {}
        self._next_edge_id = 0

    # -- construction ------------------------------------------------------

    def add_vertex(self, v: int) -> None:
        if v not in self._incidence:
            self._incidence[v] = []

    def add_edge(self, u: int, v: int, eid: int | None = None) -> int:
        if u not in self._incidence or v not in self._incidence:
            raise InvalidArgumentError(f"edge endpoints {u},{v} must be existing vertices")
        if eid is None:
            eid = self._next_edge_id
        elif eid < 0:
            raise InvalidArgumentError(f"edge id {eid} is negative")
        elif eid in self._edges:
            raise InvalidArgumentError(f"edge id {eid} already in use")
        self._next_edge_id = max(self._next_edge_id, eid + 1)
        self._edges[eid] = (u, v)
        self._incidence[u].append((eid, v, 1))
        if u != v:
            self._incidence[v].append((eid, u, -1))
        return eid

    def delete_edge(self, eid: int) -> None:
        u, v = self.endpoints(eid)
        del self._edges[eid]
        self._incidence[u] = [arc for arc in self._incidence[u] if arc[0] != eid]
        if v != u:
            self._incidence[v] = [arc for arc in self._incidence[v] if arc[0] != eid]

    def retract_edge(self, eid: int) -> None:
        """Undo an add_edge: delete the edge and, when it holds the newest
        id, hand that id back to the counter."""
        self.delete_edge(eid)
        if eid == self._next_edge_id - 1:
            self._next_edge_id = eid

    def remove_vertex(self, v: int) -> None:
        if v not in self._incidence:
            raise InvalidArgumentError(f"no vertex {v}")
        if self._incidence[v]:
            raise InvalidArgumentError(f"vertex {v} is not isolated")
        del self._incidence[v]

    def copy(self) -> "Multigraph":
        g = Multigraph()
        g._edges = dict(self._edges)
        g._incidence = {v: list(arcs) for v, arcs in self._incidence.items()}
        g._next_edge_id = self._next_edge_id
        return g

    # -- queries -----------------------------------------------------------

    @property
    def vertices(self) -> KeysView[int]:
        """Live read-only view; copy it before mutating the graph under it."""
        return self._incidence.keys()

    @property
    def edges(self) -> Mapping[int, tuple[int, int]]:
        """Live read-only view of edge id -> endpoints."""
        return MappingProxyType(self._edges)

    @property
    def next_edge_id(self) -> int:
        return self._next_edge_id

    def has_vertex(self, v: int) -> bool:
        return v in self._incidence

    def has_edge(self, eid: int) -> bool:
        return eid in self._edges

    def endpoints(self, eid: int) -> tuple[int, int]:
        try:
            return self._edges[eid]
        except KeyError:
            raise InvalidArgumentError(f"no edge {eid}") from None

    def other_end(self, eid: int, v: int) -> int:
        a, b = self.endpoints(eid)
        if v == a:
            return b
        if v == b:
            return a
        raise InvalidArgumentError(f"edge {eid} is not incident to {v}")

    def is_loop(self, eid: int) -> bool:
        a, b = self.endpoints(eid)
        return a == b

    def incident_edges(self, v: int) -> list[int]:
        if v not in self._incidence:
            raise InvalidArgumentError(f"no vertex {v}")
        return sorted([eid for eid, _, _ in self._incidence[v]])

    def degree(self, v: int) -> int:
        d = 0
        for _, w, _ in self._incidence[v]:
            d += 2 if w == v else 1
        return d

    def neighbors(self, v: int) -> set[int]:
        out = {w for _, w, _ in self._incidence[v]}
        out.discard(v)
        return out

    def edge_count(self) -> int:
        return len(self._edges)

    def vertex_count(self) -> int:
        return len(self._incidence)

    def is_connected(self) -> bool:
        if not self._incidence:
            return True
        start = min(self._incidence)
        return len(self._component_of(start)) == len(self._incidence)

    def _component_of(self, start: int, goal: int | None = None) -> set[int]:
        """Vertices reachable from `start`; the search stops as soon as it
        reaches `goal`."""
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for _, w, _ in self._incidence[v]:
                if w not in seen:
                    seen.add(w)
                    if w == goal:
                        return seen
                    queue.append(w)
        return seen

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        # Raw maps first: a rewound trace restores each edge's orientation.
        return (self._incidence.keys() == other._incidence.keys()
                and (self._edges == other._edges
                     or self._normalized() == other._normalized()))

    def _normalized(self) -> dict[int, tuple[int, int]]:
        return {eid: (min(u, v), max(u, v)) for eid, (u, v) in self._edges.items()}

    def __repr__(self) -> str:
        return f"Multigraph(|V|={len(self._incidence)}, |E|={len(self._edges)})"


# -- reduction trace ---------------------------------------------------------


@dataclass(frozen=True)
class SplitStep:
    """Edges e1=(center,v), e2=(center,v') replaced by child=(v,v').

    `removed` is set when this was the last split at a degree-2 vertex,
    which the step then also removes (a suppression).
    """

    center: int
    e1: int
    e1_ends: tuple[int, int]
    e2: int
    e2_ends: tuple[int, int]
    child: int
    child_ends: tuple[int, int]
    removed: int | None = None

    def apply(self, g: Multigraph) -> None:
        g.delete_edge(self.e1)
        g.delete_edge(self.e2)
        g.add_edge(*self.child_ends, eid=self.child)
        if self.removed is not None:
            g.remove_vertex(self.removed)

    def undo(self, g: Multigraph) -> None:
        if self.removed is not None:
            g.add_vertex(self.removed)
        g.retract_edge(self.child)
        g.add_edge(*self.e1_ends, eid=self.e1)
        g.add_edge(*self.e2_ends, eid=self.e2)


@dataclass(frozen=True)
class DeleteEdgeStep:
    edge: int
    ends: tuple[int, int]

    def apply(self, g: Multigraph) -> None:
        g.delete_edge(self.edge)

    def undo(self, g: Multigraph) -> None:
        g.add_vertex(self.ends[0])
        g.add_vertex(self.ends[1])
        g.add_edge(*self.ends, eid=self.edge)


@dataclass(frozen=True)
class RemoveIsolatedStep:
    vertex: int

    def apply(self, g: Multigraph) -> None:
        g.remove_vertex(self.vertex)

    def undo(self, g: Multigraph) -> None:
        g.add_vertex(self.vertex)


TraceStep = SplitStep | DeleteEdgeStep | RemoveIsolatedStep


@dataclass
class SplitTrace:
    """Ordered, replayable log of reduction steps.

    apply() maps the original graph to the reduced one with identical edge
    ids; unapply() inverts it exactly.
    """

    steps: list[TraceStep] = field(default_factory=list)

    def append(self, step: TraceStep) -> None:
        self.steps.append(step)

    def extend(self, steps) -> None:
        self.steps.extend(steps)

    def __len__(self) -> int:
        return len(self.steps)

    def apply(self, g: Multigraph) -> Multigraph:
        out = g.copy()
        for step in self.steps:
            step.apply(out)
        return out

    def unapply(self, g: Multigraph) -> Multigraph:
        out = g.copy()
        for step in reversed(self.steps):
            step.undo(out)
        return out


# -- cuts --------------------------------------------------------------------


def _route(g: Multigraph, flow: list[int], supply: dict[int, int],
           demand: dict[int, int]) -> dict | None:
    """One residual search: send one unit from a vertex of `supply` to a
    vertex of `demand` along a shortest residual path of g.

    Both maps count the units still to leave or reach each vertex.  On
    success the path is augmented into `flow`, its two ends are counted
    off, and None is returned.  Otherwise nothing changes and the search's
    parent map is returned; its keys are the vertices the supply can
    reach.  Routing until a search fails is the augmenting path method on
    the network with a super-source feeding the supply and a super-sink
    draining the demand, so all of the supply routes exactly when some
    flow in the residual network has these imbalances.
    """
    arcs = g._incidence
    parent: dict[int, tuple[int, int, int] | None] = dict.fromkeys(supply)
    queue = list(supply)
    for x in queue:
        for i, y, direction in arcs[x]:
            if y not in parent and flow[i] != direction:
                parent[y] = (x, i, direction)
                if y in demand:
                    _count_off(demand, y)
                    while (step := parent[y]) is not None:
                        y, i, direction = step
                        flow[i] += direction
                    _count_off(supply, y)
                    return None
                queue.append(y)
    return parent


def _count_off(counts: dict[int, int], v: int) -> None:
    if counts[v] == 1:
        del counts[v]
    else:
        counts[v] -= 1


def _max_flow(g: Multigraph, s: int, t: int, limit: int | None = None
              ) -> tuple[int, list[int], frozenset[int] | None]:
    """An s-t flow from zero: its value, the flow, and the set reachable
    from s in its residual graph.

    Without `limit` the flow is maximum.  With it, the flow stops growing
    once its value reaches `limit`, so its value is exactly
    min(limit, λ(s, t)): at `limit` the side is None, and a flow that
    stops below `limit` is maximum, with its side, as without one.

    One pass over the arcs of s and t first seeds the flow: it saturates
    every s-t edge and every two-edge path s-w-t whose edges are both
    still idle, the bulk of a dense multigraph's paths, until the value
    reaches `limit`.  Augmenting any feasible flow until a search fails
    gives a maximum flow, and every maximum flow leaves the same set
    reachable from s, so the seeding changes neither the value nor the
    side.
    """
    arcs = g._incidence
    flow = [0] * g.next_edge_id
    into_t: dict[int, list[tuple[int, int]]] = {}
    for i, w, direction in arcs[t]:
        if w != t:
            into_t.setdefault(w, []).append((i, -direction))
    value = 0
    for i, w, direction in arcs[s]:
        if value == limit:
            break
        if w == t:
            flow[i] = direction
            value += 1
        elif w != s and into_t.get(w):
            j, last = into_t[w].pop()
            flow[i], flow[j] = direction, last
            value += 1
    # Each unit leaves s on its own edge, so one unit more than s has arcs
    # is never all sent and the last search always fails.
    supply = {s: len(arcs[s]) + 1}
    demand = {t: len(arcs[t]) + 1}
    while limit is None or value < limit:
        reached = _route(g, flow, supply, demand)
        if reached is not None:
            return value, flow, frozenset(reached)
        value += 1
    return value, flow, None


def _reroute(g: Multigraph, flow: list[int],
             dropped: tuple[tuple[int, tuple[int, int]], ...]) -> list[int] | None:
    """Repair a flow of the graph before an edit into g, the graph after
    it.  `dropped` lists the removed edges as (edge id, ends); edges the
    edit added start idle, and so does a removed edge newer than the flow
    (the child of a split made after it was last routed), whose id lies
    beyond the flow's end.

    The flow's units on the removed edges are dropped, which leaves each
    vertex that sent one a unit to send and each that received one a unit
    to receive; routing that imbalance through g's residual network gives
    a flow of g of the same value.  Returns it (the flow itself when it
    left every removed edge idle, else a copy), or None when the imbalance
    does not all route.  By the transshipment argument of `_split_trial`,
    it all routes exactly when g still has a flow of that value.
    """
    balance: dict[int, int] = {}
    for eid, (a, b) in dropped:
        if eid < len(flow) and flow[eid]:
            balance[a] = balance.get(a, 0) + flow[eid]
            balance[b] = balance.get(b, 0) - flow[eid]
    if not balance:
        return flow
    flow = flow + [0] * (g.next_edge_id - len(flow))
    for eid, _ in dropped:
        flow[eid] = 0
    supply = {v: n for v, n in balance.items() if n > 0}
    demand = {v: -n for v, n in balance.items() if n < 0}
    while supply:
        if _route(g, flow, supply, demand) is not None:
            return None
    return flow


def _repair(g: Multigraph, flows: list[list[int]],
            dropped: tuple[tuple[int, tuple[int, int]], ...]) -> list[list[int]] | None:
    """Every flow of `flows` repaired into g through an edit that removed
    `dropped` (see `_reroute`), or None as soon as one does not repair.
    The given flows are left as they were."""
    repaired = []
    for flow in flows:
        flow = _reroute(g, flow, dropped)
        if flow is None:
            return None
        repaired.append(flow)
    return repaired


def min_cut(g: Multigraph, s: int, t: int) -> tuple[int, frozenset[int]]:
    """Minimum number of edges separating s from t, plus the s-side of one
    minimum cut.

    Unit-capacity augmenting paths in g's residual network: each non-loop
    edge carries at most one unit of flow in one direction.  The returned
    size equals the maximum number of edge-disjoint s-t paths.  The
    returned side is the set reachable from s in the final residual graph,
    which is the same for every maximum flow, so the order in which paths
    are found does not change it.
    """
    if s == t:
        raise InvalidArgumentError("min_cut needs two distinct vertices")
    if not g.has_vertex(s) or not g.has_vertex(t):
        raise InvalidArgumentError("min_cut endpoints must be vertices of the graph")
    value, _, side = _max_flow(g, s, t)
    return value, side


def steiner_connectivity(g: Multigraph, terminals: frozenset[int] | set[int]) -> int:
    """Size of a minimum edge cut separating the terminal set.

    Equals the minimum over pairwise terminal min-cuts: 0 when some
    terminal lies in another component than the rest.  Components without
    terminals do not matter.
    """
    size, _ = steiner_min_cut(g, terminals)
    return size


def steiner_min_cut(g: Multigraph, terminals) -> tuple[int, frozenset[int]]:
    """Like steiner_connectivity but also returns one side of a minimum
    terminal-separating cut: the component of t0 = min T when some terminal
    lies outside it, else the side of the first t0-t flow, in ascending t,
    whose value is the minimum.

    Each t0-t flow after the first is capped at the smallest value found
    so far (see `_terminal_cut`).  A flow that reaches the cap cannot be
    strictly smaller, so it would not have replaced the side anyway; one
    that stops below it is exact.  The value and the side are those of the
    uncapped loop.
    """
    tset = frozenset(terminals)
    if len(tset) < 2:
        raise InvalidArgumentError("terminal connectivity needs at least two terminals")
    if not tset <= g.vertices:
        raise InvalidArgumentError("terminals must be vertices of the graph")
    size, side = _terminal_cut(g, tset)
    assert side is not None
    return size, side


def _terminal_cut(g: Multigraph, tset: frozenset[int], limit: int | None = None
                  ) -> tuple[int, frozenset[int] | None]:
    """min over t != t0 = min T of λ(t0, t), with the side of the first
    t0-t flow that attains it, for a terminal set of at least two vertices
    of g.  Each flow is capped at the smallest value so far, starting from
    `limit`, and only a flow that stops below its cap replaces the side.
    So a result below `limit` is exact, with its side; a result of
    `limit` says only that the terminal connectivity is at least that, and
    its side is None unless the terminals are apart."""
    t0 = min(tset)
    component = g._component_of(t0)
    if not tset <= component:
        return 0, frozenset(component)
    best, best_side = limit, None
    for t in sorted(tset - {t0}):
        size, _, side = _max_flow(g, t0, t, best)
        if side is not None:
            best, best_side = size, side
    assert best is not None
    return best, best_side


def _normal_form_cut(g: Multigraph, tset: frozenset[int]) -> int:
    """The terminal connectivity of g in the reduced normal form (see
    `_normal_form_violation`), by maximum-adjacency orderings and no flow.

    In that form λ_T is the global minimum cut of the hypergraph on T whose
    hyperedges are each non-terminal's three neighbours and each
    terminal-terminal edge: a cut of g splits a non-terminal's neighbours
    at most 2-1 and is cheapest with it on its majority side, where it
    costs 1.  `best` starts at the least terminal degree, since a lone
    terminal is a T-cut.  Each phase orders the current groups of
    terminals from the least: the next is one with the largest key, the
    number of hyperedges that contain it and meet the groups before it.
    The last group's key is its degree, a cut, and the least cut that
    separates it from the one before (Klimmek-Wagner 1996; Queyranne
    1998).  A prefix v_1 ... v_i of the order is such an order of the
    hypergraph with every hyperedge trimmed to the prefix, where v_i's key
    is its degree; trimming only shrinks cuts, so key(v_i) <=
    λ(v_{i-1}, v_i).  After recording the last group's key, the phase
    merges every consecutive pair whose later key is at least `best`, the
    last pair included: no cut below `best` separates such a pair, so
    every cut below `best` survives the merge.  The phases stop when one
    group is left.  A hyperedge counts once toward each group it meets,
    however many of its ends that group holds, and not at all once one
    group holds all of them.
    """
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
        # Each run of merged pairs becomes the group of its first member.
        merged = {}
        for i, x in enumerate(order):
            if i == 0 or (attach[i] < best and i < len(order) - 1):
                run = x
            merged[x] = run
        edges = [ends for ends in (tuple({merged[x] for x in e}) for e in edges)
                 if len(ends) > 1]
        labels = sorted(set(merged.values()))
    return best


# -- splitting-off -----------------------------------------------------------


def _split_inplace(g: Multigraph, u: int, e1: int, e2: int) -> SplitStep:
    """Mutating core of split_off; returns the trace step."""
    if e1 == e2:
        raise InvalidArgumentError("split needs two distinct edges")
    for eid in (e1, e2):
        a, b = g.endpoints(eid)
        if u not in (a, b):
            raise InvalidArgumentError(f"edge {eid} is not incident to {u}")
        if a == b:
            raise InvalidArgumentError(f"edge {eid} is a loop at {u} and cannot be split")
    step = SplitStep(center=u, e1=e1, e1_ends=g.endpoints(e1), e2=e2,
                     e2_ends=g.endpoints(e2), child=g.next_edge_id,
                     child_ends=(g.other_end(e1, u), g.other_end(e2, u)))
    step.apply(g)
    return step


def split_off(g: Multigraph, u: int, e1: int, e2: int) -> tuple[Multigraph, SplitStep]:
    """Replace edges uv, uv' by a fresh edge vv' (a loop when v = v').

    Pure: returns a new graph plus the trace step describing the move.
    """
    out = g.copy()
    step = _split_inplace(out, u, e1, e2)
    return out, step


_FlowTree = list[tuple[int, int, int, list[int]]]


def _flow_tree(g: Multigraph, vertices: list[int]) -> _FlowTree:
    """Gusfield's equivalent-flow tree on `vertices`, as edges
    (x, p, λ(x, p), a maximum x-p flow).

    One maximum flow per edge, taken in the graph itself (no contraction).
    For every pair of `vertices`, the smallest λ on the tree path between
    them is their min-cut in the graph (Gusfield 1990, "Very simple methods
    for all pairs network flow analysis").
    """
    parent = {v: vertices[0] for v in vertices[1:]}
    tree = []
    for i, x in enumerate(vertices[1:], start=1):
        p = parent[x]
        value, flow, side = _max_flow(g, x, p)
        tree.append((x, p, value, flow))
        for y in vertices[i + 1:]:
            if parent[y] == p and y in side:
                parent[y] = x
    return tree


def _all_pairs_flows(g: Multigraph, u: int) -> list[list[int]]:
    """The flows of an equivalent-flow tree of g on V - u.  A split at u
    that keeps every one of them keeps every pairwise cut among V - u (see
    `mader_split`), and the repaired flows are again such a tree's flows."""
    return [flow for *_, flow in _flow_tree(g, sorted(g.vertices - {u}))]


def _split_trial(g: Multigraph, flows: list[list[int]], u: int, e1: int, e2: int
                 ) -> tuple[SplitStep, list[list[int]]] | None:
    """Split e1 = u v1, e2 = u v2 off at u in g, and keep the split when
    every flow of `flows` keeps its value: returns the step and the flows
    repaired into the split graph.  Otherwise undoes the split, leaving g
    as it was, and returns None.

    The repair of a flow from x to p (neither is u) drops its units on e1
    and e2 and leaves every other edge as it was.  That unbalances only u,
    v1 and v2, by at most two units in all; the child edge v1 v2 starts
    idle.  Routing that imbalance through the residual network of the split
    graph is a transshipment of at most two units.  A flow of value λ from
    x to p in the split graph differs from the dropped one by exactly such
    a transshipment (edge by edge, the difference of two unit-capacity
    flows fits in the residual capacities), so all of it routes exactly
    when the split graph still has λ(x, p) >= λ.  The same holds for any
    edit that only removes edges, which is how the reducer checks its
    deletions.
    """
    step = _split_inplace(g, u, e1, e2)
    repaired = _repair(g, flows, ((e1, step.e1_ends), (e2, step.e2_ends)))
    if repaired is None:
        step.undo(g)
        return None
    return step, repaired


def _split_candidates(g: Multigraph, u: int) -> list[int]:
    """The non-loop edges at u, once mader_split's preconditions hold; the
    first that fails raises.  Loops affect none but the degree check.

    Connectivity and the cut-edges at u take one search of G - u, started
    from each neighbour of u that no earlier start reached: it labels every
    vertex it reaches with the neighbour that found it, one label per
    component, and counts u's non-loop edges into each component.  Every
    vertex of u's component other than u lies in one of them, so a vertex
    left unlabelled means g is disconnected; and an edge uv is a cut-edge
    exactly when it is u's only edge into v's component.
    """
    if not g.has_vertex(u):
        raise InvalidArgumentError(f"no vertex {u}")
    if g.degree(u) == 3:
        raise PreconditionViolationError("cannot split at a degree-3 vertex")
    candidates = [eid for eid in g.incident_edges(u) if not g.is_loop(eid)]
    if len(candidates) < 2:
        raise PreconditionViolationError("need at least two non-loop edges at the vertex")
    arcs = g._incidence
    label = {u: u}
    joins: dict[int, int] = {}
    for _, v, _ in arcs[u]:
        if v == u:
            continue
        if v not in label:
            label[v] = v
            queue = [v]
            for x in queue:
                for _, y, _ in arcs[x]:
                    if y not in label:
                        label[y] = v
                        queue.append(y)
        joins[label[v]] = joins.get(label[v], 0) + 1
    if len(label) < len(arcs):
        raise PreconditionViolationError("graph must be connected")
    if 1 in joins.values():
        raise PreconditionViolationError(f"vertex {u} is incident with a cut-edge")
    return candidates


def _mader_split_inplace(g: Multigraph, u: int, candidates: list[int],
                         flows: list[list[int]]) -> tuple[SplitStep, list[list[int]]]:
    """Mutating mader_split: split off in g the first pair of `candidates`
    (what `_split_candidates` returned for u in g), in ascending edge-id
    order, that keeps every flow of `flows` (none of which starts or ends
    at u), and return the step and the flows repaired into the split
    graph, for the next call.

    Under the preconditions some pair keeps every λ among V - u (Mader
    1978), so it keeps each flow's value, and a search that finds no pair
    signals a flow bug.  `mader_split` passes the flows of an
    equivalent-flow tree on V - u, and so keeps every pairwise cut; the
    reducer passes its terminal flows, each of value the threshold, and so
    keeps the terminal connectivity at or above it.
    """
    for i, e1 in enumerate(candidates):
        for e2 in candidates[i + 1:]:
            found = _split_trial(g, flows, u, e1, e2)
            if found is not None:
                return found
    raise InternalInvariantError(
        f"no flow-preserving pair at vertex {u}: flow computation is suspect")


def mader_split(g: Multigraph, u: int) -> tuple[int, int]:
    """Find two edges at u whose split preserves every pairwise min-cut
    among the remaining vertices.

    Candidate pairs are tried in ascending edge-id order; the first one
    that passes the check wins.  The check runs against one equivalent-flow
    tree of g on V - u (|V| - 2 maximum flows, built once, each kept).  A
    split never raises a pairwise cut, and in the split graph
    λ(a, b) >= min(λ(a, c), λ(c, b)) still holds, so every pairwise cut
    survives exactly when each tree edge (x, p, λ) still has λ(x, p) >= λ.
    A trial repairs each tree edge's flow into the split graph (at most two
    units to route, see `_split_trial`) and stops at the first edge whose
    flow does not repair.
    Such a pair always exists when deg(u) != 3, u meets at least two
    non-loop edges and no cut-edge, and the graph is connected, so
    exhausting the search signals a cut-computation bug.  The preconditions
    are checked before any flow is built.  The trials run on a copy of g,
    which is left unchanged.
    """
    candidates = _split_candidates(g, u)
    step, _ = _mader_split_inplace(g.copy(), u, candidates, _all_pairs_flows(g, u))
    return step.e1, step.e2


def _reduce_vertex(g: Multigraph, u: int, steps: list[TraceStep],
                   flows: list[list[int]], candidates: list[int] | None = None) -> None:
    """Mutating: split off at the non-terminal u toward its normal-form
    degree, appending each step to `steps` and replacing the contents of
    `flows` by the flows repaired through it.  `candidates`, when given, is
    what `_split_candidates` already returned for u in g, and serves the
    first pair search in place of a second check.

    At even degree u's loops are deleted first (they never affect a cut
    or carry flow, and a split at u joins two other ends, so it never
    makes one).  Pairs are then split off while deg(u) > 3, each keeping
    every flow (`_mader_split_inplace`), so an odd u ends at degree 3 or
    1 and an even one at 2 or 0.  At 2 the last two edges are split and
    logged as a suppression (a split step that also removes u): any path
    through u uses both and reroutes over the child edge, so no pair
    search is needed.  At 0, u is removed.  A split precondition (a
    cut-edge at u, say) stops the helper with its error, and every step
    made so far stays in g, `steps` and `flows`, each already checked.
    """
    if g.degree(u) % 2 == 0:
        for eid in [eid for eid in g.incident_edges(u) if g.is_loop(eid)]:
            steps.append(DeleteEdgeStep(edge=eid, ends=g.endpoints(eid)))
            g.delete_edge(eid)
    while g.degree(u) > 3:
        step, flows[:] = _mader_split_inplace(
            g, u, candidates or _split_candidates(g, u), flows)
        steps.append(step)
        candidates = None
    if g.degree(u) == 2:
        found = _split_trial(g, flows, u, *g.incident_edges(u))
        if found is None:
            raise InternalInvariantError(
                f"suppressing vertex {u} lost a flow: flow computation is suspect")
        split, flows[:] = found
        g.remove_vertex(u)
        steps.append(replace(split, removed=u))
    elif g.degree(u) == 0:
        g.remove_vertex(u)
        steps.append(RemoveIsolatedStep(vertex=u))


def isolate_even_nonterminal(g: Multigraph, terminals, u: int) -> tuple[Multigraph, list[TraceStep]]:
    """Split an even-degree non-terminal down to degree 0 and remove it.

    All pairwise min-cuts among the remaining vertices are preserved, so in
    particular the terminal connectivity is unchanged.  The splits run on
    a copy, so a split precondition that stops them (a cut-edge at u, say)
    raises its PreconditionViolationError and leaves g as it was.  Flows
    are built only when a pair search will run, at four or more non-loop
    edges, and only once the split preconditions hold in g: loops affect
    neither its connectivity nor its cut-edges, so the check can precede
    their deletion, and it serves the first split, which is not checked
    again.
    """
    tset = frozenset(terminals)
    if u in tset:
        raise InvalidArgumentError(f"vertex {u} is a terminal")
    if not g.has_vertex(u):
        raise InvalidArgumentError(f"no vertex {u}")
    if g.degree(u) % 2 != 0:
        raise PreconditionViolationError(f"vertex {u} has odd degree")
    flows: list[list[int]] = []
    candidates = None
    if sum(not g.is_loop(eid) for eid in g.incident_edges(u)) > 2:
        candidates = _split_candidates(g, u)
        flows = _all_pairs_flows(g, u)
    out = g.copy()
    steps: list[TraceStep] = []
    _reduce_vertex(out, u, steps, flows, candidates)
    return out, steps


# -- instance reduction ------------------------------------------------------


@dataclass
class ReduceResult:
    graph: Multigraph
    terminals: frozenset[int]
    trace: SplitTrace
    form: str  # "fkk" when every non-terminal is degree-3 with three distinct
    #            terminal neighbors and no loop is left; "partial" otherwise


def _normal_form_violation(g: Multigraph, tset: frozenset[int]
                           ) -> tuple[str, int] | None:
    """What first keeps g from the reduced normal form, or None when g is in
    it.  The form asks every non-terminal to have degree 3 and three
    distinct terminal neighbors, and the graph to have no loops.  The
    report is ("vertex", u) for the least non-terminal that breaks the
    first rule, else ("loop", eid) for the least loop."""
    for u in sorted(g.vertices - tset):
        nbrs = g.neighbors(u)
        if g.degree(u) != 3 or len(nbrs) != 3 or not nbrs <= tset:
            return "vertex", u
    for eid in sorted(g.edges):
        u, v = g.endpoints(eid)
        if u == v:
            return "loop", eid
    return None


def _has_twin(g: Multigraph, eid: int) -> bool:
    """Does another edge join the two ends of `eid`?"""
    a, b = g.endpoints(eid)
    return any(other != eid and w == b for other, w, _ in g._incidence[a])


def reduce_instance(g: Multigraph, terminals, threshold: int) -> ReduceResult:
    """Drive every non-terminal toward degree 3 with distinct terminal
    neighbors while keeping the terminal connectivity at or above
    `threshold`.

    The components without terminals are deleted first.  Then a fixpoint
    loop: loops, edges between two non-terminals and parallel edges at a
    non-terminal are deleted whenever the deleted graph stays connected
    with terminal connectivity at or above the threshold; then one rule
    splits off at every non-terminal (`_reduce_vertex`): an even one is
    split to isolation and removed, an odd one above 3 split down to 3.
    Every change is logged so the caller can replay or invert the whole
    reduction.

    Every edit is checked against one set of flows, built once after the
    terminal-free components go: for each terminal t other than
    t0 = min T, a t0-t flow capped at `threshold` (none when the
    threshold is at most 0).  λ_T is the minimum of the λ(t0, t), so a
    flow short of the cap has value λ_T, and the input is refused; else
    an edit keeps λ_T >= threshold exactly when each flow repairs
    through the edges it removes (see `_split_trial`).  A deletion other
    than a loop's, each split trial and each suppression repair them, and
    the edit is kept exactly when all of them repair; the repaired flows
    then replace the old, while a refused deletion leaves the old flows
    with the old graph.  A split thus takes the first candidate pair that
    keeps λ_T at or above the threshold, and some pair always does: at a
    vertex of degree other than 3 with no incident cut-edge, one keeps
    every λ among the other vertices (Mader 1978).  When a split
    precondition stops the rule at a vertex, the steps it made there stay,
    each already checked, and a later pass may go on.
    With a positive threshold a deletion must also leave the graph
    connected, since a stranded component would stop every later split.
    The graph was connected (the terminal-free components are gone, and
    λ_T > 0 keeps the terminals together), so one search from one end of
    the deleted edge that stops at the other decides it; a pendant
    non-terminal end goes with its edge and leaves the rest connected.

    A non-empty trace is checked at the end by recounting the terminal
    connectivity of the reduced graph from nothing, independently of the
    carried flows, with every flow capped at `threshold`: the check only
    asks whether it fell below, and the error names the exact value when
    it did.
    """
    tset = frozenset(terminals)
    if not tset <= g.vertices:
        raise InvalidArgumentError("terminals must be vertices of the graph")
    if len(tset) < 2:
        raise InvalidArgumentError("terminal connectivity needs at least two terminals")
    work = g.copy()
    trace = SplitTrace()

    # Components without terminals carry no part of a packing.  Deleting
    # them first leaves a connected graph whenever λ_T > 0, which the
    # deletion check and the splits rely on.
    kept: set[int] = set()
    for t in sorted(tset):
        if t not in kept:
            kept |= work._component_of(t)
    if len(kept) < work.vertex_count():
        steps: list[TraceStep] = [DeleteEdgeStep(edge=eid, ends=ends)
                                  for eid, ends in sorted(work.edges.items())
                                  if ends[0] not in kept]
        steps += [RemoveIsolatedStep(vertex=v) for v in sorted(work.vertices - kept)]
        for step in steps:
            step.apply(work)
        trace.extend(steps)

    t0 = min(tset)
    capped = [_max_flow(work, t0, t, threshold)
              for t in sorted(tset - {t0})] if threshold > 0 else []
    if capped and (lowest := min(value for value, *_ in capped)) < threshold:
        raise InvalidArgumentError(
            f"terminal connectivity {lowest} is below the threshold {threshold}")
    flows = [flow for _, flow, _ in capped]

    def deletion_candidate(eid: int) -> bool:
        a, b = work.endpoints(eid)
        if a == b:
            return True  # loops never sit in a cut and never help a packing
        if a not in tset and b not in tset:
            return True
        if a in tset and b in tset:
            return False
        hub = a if a not in tset else b
        if work.degree(hub) == 1:
            # a pendant non-terminal can never carry part of a packing:
            # a tree would prune it as a leaf and a connector cannot give
            # it odd degree, so its edge is dead weight
            return True
        return _has_twin(work, eid)

    changed = True
    while changed:
        changed = False

        # Guarded deletions, each applied and undone when refused.  Loops
        # skip the check (they never lie in a cut).  The check judges the
        # composite move including the isolated-vertex cleanup that
        # follows, else pruning a pendant non-terminal would read as a
        # disconnect.
        for eid in sorted(work.edges):
            if not work.has_edge(eid) or not deletion_candidate(eid):
                continue
            a, b = ends = work.endpoints(eid)
            steps = [DeleteEdgeStep(edge=eid, ends=ends)]
            steps[0].apply(work)
            for v in sorted(set(ends) - tset):
                if work.degree(v) == 0:
                    steps.append(RemoveIsolatedStep(vertex=v))
                    steps[-1].apply(work)
            if a != b and threshold > 0:
                joined = (not work.has_vertex(a) or not work.has_vertex(b)
                          or b in work._component_of(a, goal=b))
                repaired = _repair(work, flows, ((eid, ends),)) if joined else None
                if repaired is None:
                    for step in reversed(steps):
                        step.undo(work)
                    continue
                flows = repaired
            trace.extend(steps)
            changed = True

        # Vertex rules, ascending id for reproducibility.
        for u in sorted(work.vertices - tset):
            if not work.has_vertex(u):
                continue
            made = len(trace)
            try:
                _reduce_vertex(work, u, trace.steps, flows)
            except PreconditionViolationError:
                pass  # the steps made stay; later passes may go on
            changed = changed or len(trace) > made

    # An empty trace left the input unchanged, and the flows measured it.
    if trace and (final := _terminal_cut(work, tset, threshold)[0]) < threshold:
        raise InternalInvariantError(
            f"reduction lowered terminal connectivity to {final} < {threshold}")
    form = "partial" if _normal_form_violation(work, tset) else "fkk"
    return ReduceResult(graph=work, terminals=tset, trace=trace, form=form)


# -- instance text format ----------------------------------------------------


def parse_instance(text: str) -> tuple[Multigraph, frozenset[int]]:
    """Parse the line-based instance format.

    Lines: '# ...' comments; 'graph <n> <m>' header; 'v <id>' vertex,
    't <id>' terminal, 'e <id> <u> <v>' edge.  Edge endpoints implicitly
    declare vertices; a vertex has at most one 'v' or 't' line.  The header
    counts must match what was declared.
    """
    g = Multigraph()
    declared: dict[int, str] = {}  # by 'v' and 't' lines, to their kind
    for lineno, kind, fields in read_lines(text, "graph"):
        values = [parse_int(x, lineno) for x in fields]
        if kind == "graph":
            if len(values) != 2:
                raise InstanceParseError(lineno, "graph header needs two counts")
            n, m = values
        elif kind in ("v", "t"):
            if len(values) != 1:
                what = "vertex" if kind == "v" else "terminal"
                raise InstanceParseError(lineno, f"{what} line needs one id")
            if values[0] in declared:
                raise InstanceParseError(lineno, f"vertex {values[0]} declared twice")
            declared[values[0]] = kind
            g.add_vertex(values[0])
        elif kind == "e":
            if len(values) != 3:
                raise InstanceParseError(lineno, "edge line needs id and two endpoints")
            eid, u, v = values
            if eid < 0:
                raise InstanceParseError(lineno, f"edge id {eid} is negative")
            if g.has_edge(eid):
                raise InstanceParseError(lineno, f"duplicate edge id {eid}")
            g.add_vertex(u)
            g.add_vertex(v)
            g.add_edge(u, v, eid=eid)
        else:
            raise InstanceParseError(lineno, f"unknown line kind {kind!r}")
    if n != g.vertex_count():
        raise InstanceParseError(
            0, f"header declares {n} vertices but {g.vertex_count()} appear")
    if m != g.edge_count():
        raise InstanceParseError(
            0, f"header declares {m} edges but {g.edge_count()} appear")
    return g, frozenset(v for v, kind in declared.items() if kind == "t")


def serialize_instance(g: Multigraph, terminals, comments: list[str] | None = None) -> str:
    """Canonical text form: sorted vertex, terminal and edge lines."""
    tset = frozenset(terminals)
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(f"graph {g.vertex_count()} {g.edge_count()}")
    for v in sorted(g.vertices - tset):
        lines.append(f"v {v}")
    for v in sorted(tset):
        lines.append(f"t {v}")
    for eid in sorted(g.edges):
        u, v = g.endpoints(eid)
        lines.append(f"e {eid} {min(u, v)} {max(u, v)}")
    return "\n".join(lines) + "\n"
