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
`min_cut`, `steiner_min_cut`, the flow tree, the split trials and the
deletion guard all use it, and a flow computed before an edit is repaired
after it (`_reroute`) instead of being recomputed.  The splitting-off
routines implement the classical degree-lowering operation (replace edges
uv, uv' at u by a single edge vv') together with a verified search for a
cut-preserving pair at a vertex, and a reducer that drives all
non-terminals toward the bipartite degree-3 normal form used by the
hypergraph packing pipeline.  The pair search checks each candidate
against one Gusfield equivalent-flow tree instead of all pairwise cuts:
it splits the pair off, repairs the tree's flows (at most two units
each), and undoes the split when one does not repair; consecutive splits
at one vertex share the tree.  The reducer's deletion guard keeps a lower
bound and, once known, a maximum flow for each terminal pair that makes up
the terminal connectivity: slack is spent without flows, and a flow that
the deleted edge carried is re-checked by one search.

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

    def _component_of(self, start: int, skip: int | None = None) -> set[int]:
        """Vertices reachable from `start`, not crossing edge `skip`."""
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for eid, w, _ in self._incidence[v]:
                if w not in seen and eid != skip:
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


def _max_flow(g: Multigraph, s: int, t: int) -> tuple[int, list[int], frozenset[int]]:
    """A maximum s-t flow from zero: its value, the flow, and the set
    reachable from s in its residual graph."""
    flow = [0] * g.next_edge_id
    # Each unit leaves s on its own edge, so one unit more than s has arcs
    # is never all sent and the last search always fails.
    supply = {s: len(g._incidence[s]) + 1}
    demand = {t: len(g._incidence[t]) + 1}
    value = 0
    while (reached := _route(g, flow, supply, demand)) is None:
        value += 1
    return value, flow, frozenset(reached)


def _reroute(g: Multigraph, flow: list[int],
             dropped: tuple[tuple[int, tuple[int, int]], ...]) -> list[int] | None:
    """Repair a flow of the graph before an edit into g, the graph after
    it.  `dropped` lists the removed edges as (edge id, ends); edges the
    edit added start idle.

    The flow's units on the removed edges are dropped, which leaves each
    vertex that sent one a unit to send and each that received one a unit
    to receive; routing that imbalance through g's residual network gives
    a flow of g of the same value.  Returns it (the flow itself when it
    left every removed edge idle, else a copy), or None when the imbalance
    does not all route.
    """
    balance: dict[int, int] = {}
    for eid, (a, b) in dropped:
        if flow[eid]:
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
    lies outside it."""
    tset = frozenset(terminals)
    if len(tset) < 2:
        raise InvalidArgumentError("terminal connectivity needs at least two terminals")
    if not tset <= g.vertices:
        raise InvalidArgumentError("terminals must be vertices of the graph")
    t0 = min(tset)
    component = g._component_of(t0)
    if not tset <= component:
        return 0, frozenset(component)
    best = None
    best_side: frozenset[int] = frozenset()
    for t in sorted(tset - {t0}):
        size, _, side = _max_flow(g, t0, t)
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
    for eid, v, _ in g._incidence[u]:
        if v != u:
            lone[v] = None if v in lone else eid
    return any(eid is not None and v not in g._component_of(u, skip=eid)
               for v, eid in lone.items())


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


def _split_trial(g: Multigraph, tree: _FlowTree, u: int, e1: int, e2: int
                 ) -> tuple[SplitStep, _FlowTree] | None:
    """Split e1 = u v1, e2 = u v2 off at u in g, and keep the split when
    every tree edge keeps its flow value: returns the step and the tree
    with each flow repaired into the split graph.  Otherwise undoes the
    split, leaving g as it was, and returns None.

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
    step = _split_inplace(g, u, e1, e2)
    dropped = ((e1, step.e1_ends), (e2, step.e2_ends))
    repaired = []
    for x, p, value, flow in tree:
        flow = _reroute(g, flow, dropped)
        if flow is None:
            step.undo(g)
            return None
        repaired.append((x, p, value, flow))
    return step, repaired


def _mader_split_inplace(g: Multigraph, u: int, tree: _FlowTree | None
                         ) -> tuple[SplitStep, _FlowTree]:
    """Mutating mader_split: check its preconditions, find the pair, and
    split it off in g.  Returns the step and an equivalent-flow tree of the
    split graph on V - u, which the next call at u takes as `tree` (None
    builds one).

    The tree stays an equivalent-flow tree of the split graph: the split
    kept every pairwise cut among V - u, so every tree edge keeps its value
    and every tree path minimum still equals its pair's cut.  Its repaired
    flows are maximum flows of the split graph, of those same values.
    """
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
    if tree is None:
        tree = _flow_tree(g, sorted(g.vertices - {u}))
    for i, e1 in enumerate(candidates):
        for e2 in candidates[i + 1:]:
            found = _split_trial(g, tree, u, e1, e2)
            if found is not None:
                return found
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
    exhausting the search signals a cut-computation bug.  The trials run on
    a copy of g, which is left unchanged.
    """
    step, _ = _mader_split_inplace(g.copy(), u, None)
    return step.e1, step.e2


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
    tree = None
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
        step, tree = _mader_split_inplace(g, u, tree)
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
    return any(other != eid and w == b for other, w, _ in g._incidence[a])


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
    clears the flows.
    """

    def __init__(self, terminals: frozenset[int], start: int, threshold: int):
        self.t0 = min(terminals)
        self.threshold = threshold
        self.bounds = dict.fromkeys(sorted(terminals - {self.t0}), start)
        self.flows: dict[int, list[int]] = {}

    def allows(self, g: Multigraph, eid: int, ends: tuple[int, int]) -> bool:
        """May non-loop edge `eid`, joining `ends`, go?  g is the graph
        with the edge deleted, and with the non-terminal ends it left
        isolated removed."""
        if self.threshold <= 0:
            return True  # every λ_T clears it, even a disconnected graph's
        # With a positive threshold the graph was connected (reduce_instance
        # starts by dropping the components without terminals, λ_T reads 0
        # when the terminals are apart, and every edit keeps it so), and
        # stays connected unless e was a bridge; one with a parallel twin
        # never is.  A stranded component would stop every later split.
        a, b = ends
        twin = g.has_vertex(a) and b in g.neighbors(a)
        if not twin and not g.is_connected():
            return False
        flows, threshold = self.flows, self.threshold
        bounds: dict[int, int] = {}
        repaired: dict[int, list[int]] = {}
        for t, bound in self.bounds.items():
            flow = flows.get(t)
            if flow is not None and flow[eid] == 0:
                continue
            if bound > threshold:
                bounds[t] = bound - 1
                continue
            if flow is None:
                value, flow, _ = _max_flow(g, self.t0, t)
                bounds[t] = value
                if value < threshold:
                    return False
            else:
                flow = _reroute(g, flow, ((eid, ends),))
                if flow is None:
                    return False
            repaired[t] = flow
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

    The components without terminals are deleted first.  Then a fixpoint
    loop: even-degree non-terminals are split to isolation and removed;
    odd-degree non-terminals above 3 are split down to 3; loops, edges
    between two non-terminals and parallel edges at a non-terminal are
    deleted whenever the deleted graph stays connected with terminal
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

    # Components without terminals carry no part of a packing.  Deleting
    # them first leaves a connected graph whenever λ_T > 0, which the
    # deletion guard and the splits rely on.
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

        # Deletions guarded by the connectivity threshold, each applied
        # and undone when the guard refuses it.  Loops skip the check
        # (they never lie in a cut).  The guard judges the composite move
        # including the isolated-vertex cleanup that follows, else pruning
        # a pendant non-terminal would read as a disconnect.
        for eid in sorted(work.edges):
            if not work.has_edge(eid) or not deletion_candidate(eid):
                continue
            ends = work.endpoints(eid)
            steps = [DeleteEdgeStep(edge=eid, ends=ends)]
            steps[0].apply(work)
            for v in sorted(set(ends) - tset):
                if work.degree(v) == 0:
                    steps.append(RemoveIsolatedStep(vertex=v))
                    steps[-1].apply(work)
            if ends[0] != ends[1] and not guard.allows(work, eid, ends):
                for step in reversed(steps):
                    step.undo(work)
                continue
            trace.extend(steps)
            changed = True

        # Vertex rules, ascending id for reproducibility.
        guard.flows.clear()
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
                tree = None
                while work.degree(u) > 3:
                    try:
                        step, tree = _mader_split_inplace(work, u, tree)
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
