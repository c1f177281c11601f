"""Multigraphs with stable edge ids, unit-capacity cuts, and splitting-off.

The graph model is deliberately small: integer vertex ids, integer edge ids
mapping to unordered endpoint pairs, parallel edges and loops allowed.  Edge
ids are never reused, even after deletions, so a reduction trace can be
replayed forward (original -> reduced) or backward (reduced -> original)
and reproduce ids exactly.

Cut routines use unit-capacity augmenting paths; a loop never counts toward
any cut.  The splitting-off routines implement the classical degree-lowering
operation (replace edges uv, uv' at u by a single edge vv') together with a
verified search for a cut-preserving pair at a vertex, and a reducer that
drives all non-terminals toward the bipartite degree-3 normal form used by
the hypergraph packing pipeline.

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

    def _component_of(self, start: int) -> set[int]:
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for eid in self._incidence[v]:
                w = self.other_end(eid, v)
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


def min_cut(g: Multigraph, s: int, t: int) -> tuple[int, frozenset[int]]:
    """Minimum number of edges separating s from t, plus the s-side of one
    minimum cut.

    Unit-capacity augmenting paths: each non-loop edge carries at most one
    unit of flow in one direction.  The returned size equals the maximum
    number of edge-disjoint s-t paths.
    """
    if s == t:
        raise InvalidArgumentError("min_cut needs two distinct vertices")
    if not g.has_vertex(s) or not g.has_vertex(t):
        raise InvalidArgumentError("min_cut endpoints must be vertices of the graph")

    # flow[eid] is +1 when one unit runs from the stored first endpoint to
    # the second, -1 for the reverse, 0 when idle.
    flow: dict[int, int] = {}
    edges = g.edges

    def residual_neighbors(x: int):
        for eid in g.incident_edges(x):
            a, b = edges[eid]
            if a == b:
                continue
            if x == a and flow.get(eid, 0) < 1:
                yield eid, b, 1
            elif x == b and flow.get(eid, 0) > -1:
                yield eid, a, -1

    size = 0
    while True:
        parent: dict[int, tuple[int, int, int]] = {}
        seen = {s}
        queue = deque([s])
        found = False
        while queue and not found:
            x = queue.popleft()
            for eid, y, direction in residual_neighbors(x):
                if y in seen:
                    continue
                seen.add(y)
                parent[y] = (x, eid, direction)
                if y == t:
                    found = True
                    break
                queue.append(y)
        if not found:
            return size, frozenset(seen)
        y = t
        while y != s:
            x, eid, direction = parent[y]
            flow[eid] = flow.get(eid, 0) + direction
            y = x
        size += 1


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
    best = None
    best_side: frozenset[int] = frozenset()
    for t in sorted(tset - {t0}):
        size, side = min_cut(g, t0, t)
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
    for eid in g.incident_edges(u):
        if g.is_loop(eid):
            continue
        v = g.other_end(eid, u)
        probe = g.copy()
        probe.delete_edge(eid)
        if v not in probe._component_of(u):
            return True
    return False


def _pairwise_cuts(g: Multigraph, vertices: list[int]) -> dict[tuple[int, int], int]:
    cuts = {}
    for i, x in enumerate(vertices):
        for y in vertices[i + 1:]:
            cuts[(x, y)], _ = min_cut(g, x, y)
    return cuts


def mader_split(g: Multigraph, u: int) -> tuple[int, int]:
    """Find two edges at u whose split preserves every pairwise min-cut
    among the remaining vertices.

    Candidate pairs are tried in ascending edge-id order and each one is
    verified by recomputing all pairwise min-cuts on the split graph; the
    first verified pair wins.  Such a pair always exists when deg(u) != 3,
    u meets no cut-edge and the graph is connected, so exhausting the
    search signals a cut-computation bug.
    """
    if not g.has_vertex(u):
        raise InvalidArgumentError(f"no vertex {u}")
    deg = g.degree(u)
    if deg == 3:
        raise PreconditionViolationError("cannot split at a degree-3 vertex")
    if deg < 2:
        raise PreconditionViolationError("need at least two edge ends at the vertex")
    if not g.is_connected():
        raise PreconditionViolationError("graph must be connected")
    if _has_incident_cut_edge(g, u):
        raise PreconditionViolationError(f"vertex {u} is incident with a cut-edge")

    others = sorted(g.vertices - {u})
    before = _pairwise_cuts(g, others)
    candidates = [eid for eid in g.incident_edges(u) if not g.is_loop(eid)]
    for i, e1 in enumerate(candidates):
        for e2 in candidates[i + 1:]:
            trial, _ = split_off(g, u, e1, e2)
            ok = True
            for (x, y), value in before.items():
                after, _ = min_cut(trial, x, y)
                if after != value:
                    ok = False
                    break
            if ok:
                return e1, e2
    raise InternalInvariantError(
        f"no cut-preserving pair at vertex {u}: min_cut computation is suspect")


def _drain_vertex(g: Multigraph, u: int) -> list[TraceStep]:
    """Mutating helper: split/delete at u until it is isolated, then remove.

    Requires even degree.  Loops at u are deleted (they never affect a
    cut); the final two edge ends are split and logged as a suppression
    (a split step that also removes u).
    A degree-2 split always preserves pairwise min-cuts among the other
    vertices because any path through u uses both of its edges and reroutes
    over the child edge, so no search is needed at that stage.
    """
    steps: list[TraceStep] = []
    if g.degree(u) % 2 != 0:
        raise PreconditionViolationError(f"vertex {u} has odd degree")
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
        e1, e2 = mader_split(g, u)
        steps.append(_split_inplace(g, u, e1, e2))
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


def reduce_instance(g: Multigraph, terminals, threshold: int) -> ReduceResult:
    """Drive every non-terminal toward degree 3 with distinct terminal
    neighbors while keeping the terminal connectivity at or above
    `threshold`.

    Fixpoint loop: even-degree non-terminals are split to isolation and
    removed; odd-degree non-terminals above 3 are split down to 3; loops,
    edges between two non-terminals and parallel edges at a non-terminal
    are deleted whenever the connectivity check on the deleted graph still
    meets the threshold.  Every change is logged so the caller can replay
    or invert the whole reduction.
    """
    tset = frozenset(terminals)
    if not tset <= g.vertices:
        raise InvalidArgumentError("terminals must be vertices of the graph")
    start = steiner_connectivity(g, tset)
    if start < threshold:
        raise InvalidArgumentError(
            f"terminal connectivity {start} is below the threshold {threshold}")

    work = g.copy()
    trace = SplitTrace()

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
        key = (min(a, b), max(a, b))
        for other in work.incident_edges(hub):
            if other == eid:
                continue
            oa, ob = work.endpoints(other)
            if (min(oa, ob), max(oa, ob)) == key:
                return True
        return False

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
            probe = work.copy()
            probe.delete_edge(eid)
            steps: list[TraceStep] = [DeleteEdgeStep(edge=eid, ends=ends)]
            for v in sorted(set(ends)):
                if v not in tset and probe.degree(v) == 0:
                    probe.remove_vertex(v)
                    steps.append(RemoveIsolatedStep(vertex=v))
            if ends[0] != ends[1] and steiner_connectivity(probe, tset) < threshold:
                continue
            work = probe
            trace.extend(steps)
            changed = True

        # Vertex rules, ascending id for reproducibility.
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
                if not work.is_connected() or _has_incident_cut_edge(work, u):
                    continue
                while work.degree(u) > 3:
                    try:
                        e1, e2 = mader_split(work, u)
                    except PreconditionViolationError:
                        break
                    trace.append(_split_inplace(work, u, e1, e2))
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
