"""Multigraphs with stable edge ids, unit-capacity cuts, and splitting-off.

The graph model is deliberately small: integer vertex ids, integer edge ids
mapping to unordered endpoint pairs, parallel edges and loops allowed.  Edge
ids are never reused, even after deletions, so a reduction trace can be
replayed forward (original -> reduced) or backward (reduced -> original)
and reproduce ids exactly.

Cut routines use unit-capacity augmenting paths; a loop never counts toward
any cut.  Every flow runs in one private residual kernel, `_Residual`: an
arc list laid out once per graph, flows as lists indexed by edge id, and
one search that routes a unit from supply vertices to demand vertices.
`min_cut`, `steiner_min_cut`, the flow tree, the split trials and the
deletion guard all use it, so a flow computed before an edit can be
repaired after it instead of being recomputed.  The splitting-off
routines implement the classical degree-lowering operation (replace edges
uv, uv' at u by a single edge vv') together with a verified search for a
cut-preserving pair at a vertex, and a reducer that drives all
non-terminals toward the bipartite degree-3 normal form used by the
hypergraph packing pipeline.  The pair search checks each candidate
against one Gusfield equivalent-flow tree instead of all pairwise cuts,
by repairing the tree's flows (at most two units each), and consecutive
splits at one vertex share the tree.  The reducer's deletion guard keeps
a lower bound and, once known, a maximum flow for each terminal pair that
makes up the terminal connectivity: slack is spent without flows, and a
flow that the deleted edge carried is re-checked by one search.

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
)


class Multigraph:
    """Labeled multigraph; loops and parallel edges permitted.

    Edge ids are allocated from a monotone counter and never recycled, even
    across deletions.  A loop contributes 2 to the degree of its vertex.
    The vertex set is the key set of the incidence map.
    """

    __slots__ = ("_edges", "_incidence", "_next_edge_id")

    def __init__(self):
        self._edges: dict[int, tuple[int, int]] = {}
        self._incidence: dict[int, set[int]] = {}
        self._next_edge_id = 0

    # -- construction ------------------------------------------------------

    def add_vertex(self, v: int) -> None:
        if v not in self._incidence:
            self._incidence[v] = set()

    def add_edge(self, u: int, v: int, eid: int | None = None) -> int:
        if u not in self._incidence or v not in self._incidence:
            raise InvalidArgumentError(f"edge endpoints {u},{v} must be existing vertices")
        if eid is None:
            eid = self._next_edge_id
        elif eid in self._edges:
            raise InvalidArgumentError(f"edge id {eid} already in use")
        self._next_edge_id = max(self._next_edge_id, eid + 1)
        self._edges[eid] = (u, v)
        self._incidence[u].add(eid)
        self._incidence[v].add(eid)
        return eid

    def delete_edge(self, eid: int) -> None:
        u, v = self.endpoints(eid)
        del self._edges[eid]
        self._incidence[u].discard(eid)
        self._incidence[v].discard(eid)

    def remove_vertex(self, v: int) -> None:
        if v not in self._incidence:
            raise InvalidArgumentError(f"no vertex {v}")
        if self._incidence[v]:
            raise InvalidArgumentError(f"vertex {v} is not isolated")
        del self._incidence[v]

    def copy(self) -> "Multigraph":
        g = Multigraph()
        g._edges = dict(self._edges)
        g._incidence = {v: set(ids) for v, ids in self._incidence.items()}
        g._next_edge_id = self._next_edge_id
        return g

    @classmethod
    def from_edges(cls, vertices, edges) -> "Multigraph":
        """Build from an iterable of vertices and (eid, u, v) triples."""
        g = cls()
        for v in vertices:
            g.add_vertex(v)
        for eid, u, v in edges:
            g.add_edge(u, v, eid=eid)
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
        return sorted(self._incidence[v])

    def degree(self, v: int) -> int:
        d = 0
        for eid in self._incidence[v]:
            a, b = self._edges[eid]
            d += 2 if a == b else 1
        return d

    def neighbors(self, v: int) -> set[int]:
        out = set()
        for eid in self._incidence[v]:
            a, b = self._edges[eid]
            out.add(b if a == v else a)
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

    def _component_of(self, start: int, skip: int | None = None) -> set[int]:
        """Vertices reachable from `start`, not crossing edge `skip`."""
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for eid in self._incidence[v]:
                if eid == skip:
                    continue
                a, b = self._edges[eid]
                w = b if a == v else a
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (self._incidence.keys() == other._incidence.keys()
                and self._normalized() == other._normalized())

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
        g.delete_edge(self.child)
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


class _Residual:
    """Unit-capacity residual network of a multigraph, laid out once and
    shared by every flow over that graph.

    Non-loop edge i = (a, b) gives the arc a -> b with direction +1 and the
    arc b -> a with direction -1; loops give no arc.  A flow is a list
    indexed by edge id: flow[i] is +1 when one unit runs from a to b, -1
    for the reverse, 0 when idle, and an arc with direction d has residual
    capacity while flow[i] != d.  An edit of the graph (a split, a
    deletion) patches only the arc lists of the vertices it touches.
    """

    __slots__ = ("arcs", "size")

    def __init__(self, g: Multigraph):
        self.arcs: dict[int, list[tuple[int, int, int]]] = {v: [] for v in g.vertices}
        self.size = g.next_edge_id  # the length of a flow list
        for eid, (a, b) in g.edges.items():
            self.attach(eid, a, b)

    def attach(self, eid: int, a: int, b: int) -> None:
        if a != b:
            self.arcs[a].append((eid, b, 1))
            self.arcs[b].append((eid, a, -1))

    def detach(self, eids: tuple[int, ...], at) -> dict[int, list]:
        """Drop the arcs of `eids` from the vertices `at` (all their ends);
        returns the replaced arc lists, which `arcs.update` puts back."""
        arcs = self.arcs
        saved = {v: arcs[v] for v in at}
        for v, old in saved.items():
            arcs[v] = [arc for arc in old if arc[0] not in eids]
        return saved

    def route(self, flow: list[int], supply: dict[int, int],
              demand: dict[int, int]) -> dict | None:
        """One residual search: send one unit from a vertex of `supply` to
        a vertex of `demand` along a shortest residual path.

        Both maps count the units still to leave or reach each vertex.  On
        success the path is augmented into `flow`, its two ends are counted
        off, and None is returned.  Otherwise nothing changes and the
        search's parent map is returned; its keys are the vertices the
        supply can reach.  Routing until a search fails is the augmenting
        path method on the network with a super-source feeding the supply
        and a super-sink draining the demand, so all of the supply routes
        exactly when some flow in the residual network has these
        imbalances.
        """
        arcs = self.arcs
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

    def max_flow(self, s: int, t: int) -> tuple[int, list[int], frozenset[int]]:
        """A maximum s-t flow from zero: its value, the flow, and the set
        reachable from s in its residual graph."""
        flow = [0] * self.size
        # Each unit leaves s on its own edge, so one unit more than s has
        # arcs is never all sent and the last search always fails.
        supply = {s: len(self.arcs[s]) + 1}
        demand = {t: len(self.arcs[t]) + 1}
        value = 0
        while (reached := self.route(flow, supply, demand)) is None:
            value += 1
        return value, flow, frozenset(reached)


def _count_off(counts: dict[int, int], v: int) -> None:
    if counts[v] == 1:
        del counts[v]
    else:
        counts[v] -= 1


def min_cut(g: Multigraph, s: int, t: int) -> tuple[int, frozenset[int]]:
    """Minimum number of edges separating s from t, plus the s-side of one
    minimum cut.

    Unit-capacity augmenting paths in a `_Residual` network: each non-loop
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
    value, _, side = _Residual(g).max_flow(s, t)
    return value, side


def steiner_connectivity(g: Multigraph, terminals: frozenset[int] | set[int]) -> int:
    """Size of a minimum edge cut separating the terminal set.

    Equals the minimum over pairwise terminal min-cuts.  A disconnected
    graph reports 0.
    """
    size, _ = steiner_min_cut(g, terminals)
    return size


def steiner_min_cut(g: Multigraph, terminals) -> tuple[int, frozenset[int]]:
    """Like steiner_connectivity but also returns one side of a minimum
    terminal-separating cut (empty side when the graph is disconnected)."""
    tset = frozenset(terminals)
    if len(tset) < 2:
        raise InvalidArgumentError("terminal connectivity needs at least two terminals")
    if not tset <= g.vertices:
        raise InvalidArgumentError("terminals must be vertices of the graph")
    if not g.is_connected():
        return 0, frozenset()
    t0 = min(tset)
    net = _Residual(g)
    best = None
    best_side: frozenset[int] = frozenset()
    for t in sorted(tset - {t0}):
        size, _, side = net.max_flow(t0, t)
        if best is None or size < best:
            best, best_side = size, side
    assert best is not None
    return best, best_side


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


def _has_incident_cut_edge(g: Multigraph, u: int) -> bool:
    """Is some non-loop edge at u a bridge?  An edge with a parallel twin
    never is, so only a neighbour joined to u by a single edge is tested,
    by one BFS from u that skips that edge."""
    lone: dict[int, int | None] = {}
    for eid in g.incident_edges(u):
        v = g.other_end(eid, u)
        if v != u:
            lone[v] = None if v in lone else eid
    return any(eid is not None and v not in g._component_of(u, skip=eid)
               for v, eid in lone.items())


_FlowTree = list[tuple[int, int, int, list[int]]]


def _flow_tree(net: _Residual, vertices: list[int]) -> _FlowTree:
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
        value, flow, side = net.max_flow(x, p)
        tree.append((x, p, value, flow))
        for y in vertices[i + 1:]:
            if parent[y] == p and y in side:
                parent[y] = x
    return tree


def _split_trial(g: Multigraph, net: _Residual, tree: _FlowTree, u: int,
                 e1: int, e2: int) -> _FlowTree | None:
    """Does splitting e1 = u v1, e2 = u v2 off at u keep every tree edge's
    flow value?  Returns the tree with each flow repaired into the split
    graph, or None at the first tree edge whose flow cannot be repaired.

    The repair of a flow from x to p (neither is u) drops its units on e1
    and e2 and leaves every other edge as it was.  That unbalances only u,
    v1 and v2, by at most two units in all; the child edge v1 v2 starts
    idle.  Routing that imbalance through the residual network of the split
    graph is a transshipment of at most two units.  A flow of value λ from
    x to p in the split graph differs from the dropped one by exactly such
    a transshipment (edge by edge, the difference of two unit-capacity
    flows fits in the residual capacities), so all of it routes exactly
    when the split graph still has λ(x, p) >= λ.  A split never raises a
    pairwise cut, so that is the same as keeping λ(x, p).
    """
    v1, v2 = g.other_end(e1, u), g.other_end(e2, u)
    # The units that leave u on e1 and e2 under a flow are flow[e] times
    # these signs.
    sign1 = 1 if g.endpoints(e1)[0] == u else -1
    sign2 = 1 if g.endpoints(e2)[0] == u else -1
    child = g.next_edge_id
    saved = net.detach((e1, e2), {u, v1, v2})
    net.attach(child, v1, v2)
    try:
        repaired = []
        for x, p, value, flow in tree:
            out1, out2 = flow[e1] * sign1, flow[e2] * sign2
            if out1 or out2:
                flow = flow + [0] * (child + 1 - len(flow))
                flow[e1] = flow[e2] = 0
                # u still takes in the units it sent on e1 and e2; v1 and
                # v2 lack the units they received on them.
                balance = {u: out1 + out2, v1: -out1}
                balance[v2] = balance.get(v2, 0) - out2
                supply = {v: n for v, n in balance.items() if n > 0}
                demand = {v: -n for v, n in balance.items() if n < 0}
                while supply:
                    if net.route(flow, supply, demand) is not None:
                        return None
            repaired.append((x, p, value, flow))
        return repaired
    finally:
        net.arcs.update(saved)


def _find_split(g: Multigraph, u: int, carried: tuple[_Residual, _FlowTree] | None
                ) -> tuple[int, int, _Residual, _FlowTree]:
    """mader_split's preconditions and search, from the residual network
    and flow tree of the previous accepted split at u when `carried` has
    them.  Returns the pair with the network and the repaired tree, both
    of g before the split."""
    if not g.has_vertex(u):
        raise InvalidArgumentError(f"no vertex {u}")
    if g.degree(u) == 3:
        raise PreconditionViolationError("cannot split at a degree-3 vertex")
    candidates = [eid for eid in g.incident_edges(u) if not g.is_loop(eid)]
    if len(candidates) < 2:
        raise PreconditionViolationError("need at least two non-loop edges at the vertex")
    if not g.is_connected():
        raise PreconditionViolationError("graph must be connected")
    if _has_incident_cut_edge(g, u):
        raise PreconditionViolationError(f"vertex {u} is incident with a cut-edge")
    if carried is None:
        net = _Residual(g)
        tree = _flow_tree(net, sorted(g.vertices - {u}))
    else:
        net, tree = carried
    for i, e1 in enumerate(candidates):
        for e2 in candidates[i + 1:]:
            repaired = _split_trial(g, net, tree, u, e1, e2)
            if repaired is not None:
                return e1, e2, net, repaired
    raise InternalInvariantError(
        f"no cut-preserving pair at vertex {u}: flow computation is suspect")


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
    exhausting the search signals a cut-computation bug.
    """
    e1, e2, _, _ = _find_split(g, u, None)
    return e1, e2


def _split_at(g: Multigraph, u: int, carried: tuple[_Residual, _FlowTree] | None
              ) -> tuple[SplitStep, tuple[_Residual, _FlowTree]]:
    """Mutating mader_split: find the pair, split it off in g, and return
    the step with the network and flow tree of the split graph, for the
    next call at u.

    The tree stays an equivalent-flow tree of the split graph: the split
    kept every pairwise cut among V - u, so every tree edge keeps its value
    and every tree path minimum still equals its pair's cut.  Its repaired
    flows are maximum flows of the split graph, of those same values.
    """
    e1, e2, net, tree = _find_split(g, u, carried)
    v1, v2 = g.other_end(e1, u), g.other_end(e2, u)
    step = _split_inplace(g, u, e1, e2)
    net.detach((e1, e2), {u, v1, v2})
    net.attach(step.child, v1, v2)
    net.size = g.next_edge_id
    for _, _, _, flow in tree:
        flow.extend([0] * (net.size - len(flow)))
    return step, (net, tree)


def _drain_vertex(g: Multigraph, u: int) -> list[TraceStep]:
    """Mutating helper: split/delete at u until it is isolated, then remove.

    Requires even degree.  Loops at u are deleted (they never affect a
    cut); the final two edge ends are split and logged as a suppression
    (a split step that also removes u).
    A degree-2 split always preserves pairwise min-cuts among the other
    vertices because any path through u uses both of its edges and reroutes
    over the child edge, so no search is needed at that stage.  The splits
    before it hand their flow tree from one to the next.
    """
    steps: list[TraceStep] = []
    if g.degree(u) % 2 != 0:
        raise PreconditionViolationError(f"vertex {u} has odd degree")
    carried = None
    while True:
        loops = [eid for eid in g.incident_edges(u) if g.is_loop(eid)]
        for eid in loops:
            steps.append(DeleteEdgeStep(edge=eid, ends=g.endpoints(eid)))
            g.delete_edge(eid)
        deg = g.degree(u)
        if deg == 0:
            break
        if deg == 2:
            e1, e2 = g.incident_edges(u)
            split = _split_inplace(g, u, e1, e2)
            g.remove_vertex(u)
            steps.append(replace(split, removed=u))
            return steps
        step, carried = _split_at(g, u, carried)
        steps.append(step)
    g.remove_vertex(u)
    steps.append(RemoveIsolatedStep(vertex=u))
    return steps


def isolate_even_nonterminal(g: Multigraph, terminals, u: int) -> tuple[Multigraph, list[TraceStep]]:
    """Split an even-degree non-terminal down to degree 0 and remove it.

    All pairwise min-cuts among the remaining vertices are preserved, so in
    particular the terminal connectivity is unchanged.
    """
    tset = frozenset(terminals)
    if u in tset:
        raise InvalidArgumentError(f"vertex {u} is a terminal")
    if not g.has_vertex(u):
        raise InvalidArgumentError(f"no vertex {u}")
    if g.degree(u) % 2 != 0:
        raise PreconditionViolationError(f"vertex {u} has odd degree")
    out = g.copy()
    steps = _drain_vertex(out, u)
    return out, steps


# -- instance reduction ------------------------------------------------------


@dataclass
class ReduceResult:
    graph: Multigraph
    terminals: frozenset[int]
    trace: SplitTrace
    form: str  # "fkk" when every non-terminal is degree-3 with three distinct
    #            terminal neighbors; "partial" otherwise


def _is_normal_form(g: Multigraph, tset: frozenset[int]) -> bool:
    for u in g.vertices - tset:
        if g.degree(u) != 3:
            return False
        nbrs = g.neighbors(u)
        if len(nbrs) != 3 or not nbrs <= tset:
            return False
    return True


def _has_twin(g: Multigraph, eid: int) -> bool:
    """Does another edge join the two ends of `eid`?"""
    a, b = g.endpoints(eid)
    return any(other != eid and g.other_end(other, a) == b for other in g._incidence[a])


class _DeletionGuard:
    """reduce_instance's check that an edge deletion keeps the terminal
    connectivity at or above the threshold.

    λ_T is the minimum of λ(t0, t) over the terminals t other than
    t0 = min T, and the guard keeps, for each such t, a lower bound on
    λ(t0, t) together with a maximum flow of that value once one is known
    (the bound is then exact).  Deleting a non-loop edge e lowers each
    λ(t0, t) by at most one, so for each t:

    - a known flow that leaves e idle is still a flow of the same value in
      the smaller graph, so the bound and the flow stand;
    - a bound above the threshold is lowered by one, with no flow, and its
      flow is dropped;
    - a known flow that uses e drops its unit on e, which leaves one unit
      to route from e's tail to e's head.  One residual search decides it:
      if it routes, the repaired flow shows λ(t0, t) kept its value; if
      not, no flow of that value exists in the smaller graph (the
      difference of two flows of one value would route it), so λ(t0, t)
      fell by exactly one, to below the threshold;
    - any other terminal gets a fresh maximum flow.

    A deletion is kept when the graph stays connected and every terminal
    passes; only then do the new bounds and flows replace the old.  Splits
    and drains keep every pairwise cut among the vertices they leave, so
    they keep the bounds, but they change the edges, so the vertex pass
    makes the guard forget its flows and network.
    """

    def __init__(self, terminals: frozenset[int], start: int, threshold: int):
        self.t0 = min(terminals)
        self.threshold = threshold
        self.bounds = dict.fromkeys(sorted(terminals - {self.t0}), start)
        self.flows: dict[int, list[int]] = {}
        self.net: _Residual | None = None

    def forget_flows(self) -> None:
        self.flows.clear()
        self.net = None

    def allows(self, g: Multigraph, eid: int, dropped: list[int]) -> bool:
        """May non-loop edge `eid` go, with the non-terminal ends in
        `dropped` that it leaves isolated?  Keeps the guard's network in
        step with a deletion it allows."""
        if self.threshold <= 0:
            return True  # every λ_T clears it, even a disconnected graph's
        # With a positive threshold the graph is connected (λ_T reads 0
        # otherwise, and every edit keeps it so), and stays connected
        # unless e is a bridge; one with a parallel twin never is.  A
        # component without terminals would read as λ_T = 0.
        if not _has_twin(g, eid):
            kept = min(v for v in g.vertices if v not in dropped)
            if len(g._component_of(kept, skip=eid)) != g.vertex_count() - len(dropped):
                return False
        if self.net is None:
            self.net = _Residual(g)
        net, flows, threshold = self.net, self.flows, self.threshold
        a, b = g.endpoints(eid)
        bounds: dict[int, int] = {}
        repaired: dict[int, list[int]] = {}
        tight = []
        for t, bound in self.bounds.items():
            flow = flows.get(t)
            if flow is not None and flow[eid] == 0:
                continue
            if bound > threshold:
                bounds[t] = bound - 1
            else:
                tight.append(t)
        saved = net.detach((eid,), {a, b})
        for t in tight:
            flow = flows.get(t)
            if flow is None:
                value, flow, _ = net.max_flow(self.t0, t)
                bounds[t] = value
                holds = value >= threshold
            else:
                tail, head = (a, b) if flow[eid] == 1 else (b, a)
                flow = flow.copy()
                flow[eid] = 0
                holds = net.route(flow, {tail: 1}, {head: 1}) is None
            if not holds:
                net.arcs.update(saved)
                return False
            repaired[t] = flow
        for v in dropped:
            del net.arcs[v]
        for t, bound in bounds.items():
            self.bounds[t] = bound
            flows.pop(t, None)
        flows.update(repaired)
        return True


def reduce_instance(g: Multigraph, terminals, threshold: int, *,
                    connectivity: int | None = None) -> ReduceResult:
    """Drive every non-terminal toward degree 3 with distinct terminal
    neighbors while keeping the terminal connectivity at or above
    `threshold`.

    Fixpoint loop: even-degree non-terminals are split to isolation and
    removed; odd-degree non-terminals above 3 are split down to 3; loops,
    edges between two non-terminals and parallel edges at a non-terminal
    are deleted whenever the deleted graph stays connected with terminal
    connectivity at or above the threshold.  That check (`_DeletionGuard`)
    keeps a lower bound on each λ(t0, t) that makes up the terminal
    connectivity, and runs residual searches only for terminals whose
    bound has no slack left, one search per deletion once it holds a
    maximum flow.  Every change is logged so the caller can replay or
    invert the whole reduction.  A caller that already knows the terminal
    connectivity of g passes it as `connectivity`, which then is not
    computed again; it must be exact, since it is the bound the first
    deletions spend.
    """
    tset = frozenset(terminals)
    if not tset <= g.vertices:
        raise InvalidArgumentError("terminals must be vertices of the graph")
    start = steiner_connectivity(g, tset) if connectivity is None else connectivity
    if start < threshold:
        raise InvalidArgumentError(
            f"terminal connectivity {start} is below the threshold {threshold}")

    work = g.copy()
    trace = SplitTrace()
    guard = _DeletionGuard(tset, start, threshold)

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

        # Deletions guarded by the connectivity threshold.  Loops skip the
        # check (they never lie in a cut).  The guard judges the composite
        # move including the isolated-vertex cleanup that would follow,
        # else pruning a pendant non-terminal would read as a disconnect.
        for eid in sorted(work.edges):
            if not work.has_edge(eid):
                continue
            if not deletion_candidate(eid):
                continue
            ends = work.endpoints(eid)
            dropped = [v for v in sorted(set(ends))
                       if v not in tset and work.incident_edges(v) == [eid]]
            if ends[0] != ends[1] and not guard.allows(work, eid, dropped):
                continue
            steps: list[TraceStep] = [DeleteEdgeStep(edge=eid, ends=ends)]
            steps.extend(RemoveIsolatedStep(vertex=v) for v in dropped)
            for step in steps:
                step.apply(work)
            trace.extend(steps)
            changed = True

        # Vertex rules, ascending id for reproducibility.
        guard.forget_flows()
        for u in sorted(work.vertices - tset):
            if not work.has_vertex(u):
                continue
            deg = work.degree(u)
            if deg == 0:
                work.remove_vertex(u)
                trace.append(RemoveIsolatedStep(vertex=u))
                changed = True
                continue
            if deg % 2 == 0:
                # Drain on a copy: a cut-edge can appear mid-chain at degree
                # >= 4 and abort the drain, which must not leave the working
                # graph half-split.
                probe = work.copy()
                try:
                    steps = _drain_vertex(probe, u)
                except PreconditionViolationError:
                    continue  # not splittable right now; later passes may free it
                work = probe
                trace.extend(steps)
                changed = True
                continue
            if deg >= 5:
                carried = None
                while work.degree(u) > 3:
                    try:
                        step, carried = _split_at(work, u, carried)
                    except PreconditionViolationError:
                        break
                    trace.append(step)
                    changed = True

    # An empty trace left the input unchanged, so its connectivity is known.
    final = steiner_connectivity(work, tset) if trace else start
    if final < threshold:
        raise InternalInvariantError(
            f"reduction lowered terminal connectivity to {final} < {threshold}")
    form = "fkk" if _is_normal_form(work, tset) else "partial"
    return ReduceResult(graph=work, terminals=tset, trace=trace, form=form)


# -- instance text format ----------------------------------------------------


def parse_instance(text: str) -> tuple[Multigraph, frozenset[int]]:
    """Parse the line-based instance format.

    Lines: '# ...' comments; 'graph <n> <m>' header; 'v <id>' vertex,
    't <id>' terminal, 'e <id> <u> <v>' edge.  Edge endpoints implicitly
    declare vertices.  The header counts must match what was declared.
    """
    g = Multigraph()
    terminals: set[int] = set()
    header: tuple[int, int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *fields = line.split()
        values = [parse_int(x, lineno) for x in fields]
        if kind == "graph":
            if header is not None:
                raise InstanceParseError(lineno, "duplicate graph header")
            if len(values) != 2:
                raise InstanceParseError(lineno, "graph header needs two counts")
            header = (values[0], values[1])
        elif kind == "v":
            if len(values) != 1:
                raise InstanceParseError(lineno, "vertex line needs one id")
            g.add_vertex(values[0])
        elif kind == "t":
            if len(values) != 1:
                raise InstanceParseError(lineno, "terminal line needs one id")
            g.add_vertex(values[0])
            terminals.add(values[0])
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
    if header is None:
        raise InstanceParseError(0, "missing 'graph <n> <m>' header")
    n, m = header
    if n != g.vertex_count():
        raise InstanceParseError(
            0, f"header declares {n} vertices but {g.vertex_count()} appear")
    if m != g.edge_count():
        raise InstanceParseError(
            0, f"header declares {m} edges but {g.edge_count()} appear")
    return g, frozenset(terminals)


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
