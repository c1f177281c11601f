"""End-to-end packing pipelines and their ground-truth oracle.

Spanning-tree packing runs the k-fold union of the graphic matroid.
Terminal-tree ("steiner") and connector packing share one pipeline: check
the requested cut threshold, reduce the instance until non-terminals form
an independent set of degree-3 vertices, replace every non-terminal by a
3-vertex hyperedge, pack k disjoint bases of the hypergraphic matroid,
decode the bases back to edge sets of the reduced graph, and lift the
result through the reduction trace to the original graph.  Input already
in that normal form has its cut threshold checked without flows and skips
the reduction and the lift: it is its own reduced graph.  Both modes decode
a basis from the representative forest the packing left for it, a tree on
the terminals, with each hub's pair as the path through that hub
(Frank-Kiraly-Kriesell 2003); the lift only swaps edges, and a lifted
Steiner part is pruned once.  When a union packing falls short, both
pipelines take the same certificate off the failed search: the components
of the edges or hyperedges it reached form a vertex partition with too few
crossing elements, found without enumerating partitions.

Every packing any pipeline hands back has already passed verify_packing;
a verification failure after a claimed success raises an internal error
rather than returning a wrong answer.  brute_force_pack is the
capacity-bounded exhaustive oracle that the test suite plays against the
pipelines; it accepts a search leaf only when verify_packing does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping

from . import limits
from .errors import (
    CapacityError,
    InstanceParseError,
    InternalInvariantError,
    InvalidArgumentError,
    parse_int,
    read_lines,
)
from .graphcore import (
    Multigraph,
    NormalForm,
    ReduceResult,
    SplitStep,
    SplitTrace,
    _normal_form,
    _normal_form_cut,
    _terminal_cut,
    reduce_instance,
    steiner_min_cut,  # unused here, but bench/tracing.py wraps packing.steiner_min_cut
)
from .matroid import (
    _DSU,
    Hypergraph,
    HypergraphicMatroid,
    Partition,
    graphic_matroid,
    iter_partitions,  # unused here, but bench/tracing.py wraps packing.iter_partitions
    pack_bases,
)

MODES = ("spanning", "steiner", "connector")


@dataclass(frozen=True)
class Thresholds:
    """The cut thresholds the pipelines and experiments care about, by k."""

    k: int
    f_k: int
    g_k: int
    nwt: int
    fkk: int

    @classmethod
    def for_k(cls, k: int) -> "Thresholds":
        if k < 1:
            raise InvalidArgumentError("k must be at least 1")
        f_k = 2 * ((5 * k + 4) // 2)
        return cls(k=k, f_k=f_k, g_k=6 * k + 6, nwt=2 * k, fkk=3 * k)


def connectivity_cap(k: int, threshold: int) -> int:
    """max(threshold, 3k), the most a terminal pipeline measures of λ_T
    (see `PackResult`)."""
    return max(threshold, Thresholds.for_k(k).fkk)


def threshold_value(name: str, k: int) -> int:
    """Resolve a threshold flag: nwt | fkk | paper-f | paper-g | <integer>."""
    t = Thresholds.for_k(k)
    table = {"nwt": t.nwt, "fkk": t.fkk, "paper-f": t.f_k, "paper-g": t.g_k}
    if name in table:
        return table[name]
    try:
        value = parse_int(name, 0)
    except InstanceParseError:
        raise InvalidArgumentError(f"unknown threshold {name!r}") from None
    if value < 0:
        raise InvalidArgumentError("threshold must be nonnegative")
    return value


@dataclass(frozen=True)
class Packing:
    mode: str
    parts: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidArgumentError(f"unknown packing mode {self.mode!r}")
        seen: set[int] = set()
        for part in self.parts:
            if seen & part:
                raise InvalidArgumentError("packing parts must be pairwise edge-disjoint")
            seen |= part

    @property
    def k(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class Certificate:
    kind: str  # "violating-partition" | "cut-too-small" | "reduction-incomplete"
    scope: str = "graph"  # "graph" | "reduced-hypergraph"
    partition: tuple[frozenset[int], ...] | None = None
    lambda_out: int | None = None
    bound: int | None = None
    cut_side: frozenset[int] | None = None
    cut_size: int | None = None
    threshold: int | None = None
    reduced_graph: Multigraph | None = None
    reduced_form: str | None = None


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    part_index: int | None = None
    reason: str | None = None
    canonical: bool | None = None  # connectors: every non-terminal degree in {0, 2}
    note: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class PackResult:
    """What a pipeline returns.

    `connectivity` is what the terminal pipelines measured of the terminal
    connectivity λ_T: min(λ_T, `connectivity_cap(k, threshold)`), exact
    below the cap and a lower bound at it, since λ_T decides only whether
    it is below the threshold and whether it reaches 3k.  It is None for
    spanning trees and for a single terminal.  `steiner_connectivity`
    gives λ_T exactly.  `reduced_graph` is the reduction's graph, or the
    input itself, not a copy, when the input is already in the normal
    form and no reduction ran.
    """

    outcome: str  # "packed" | "certificate" | "infeasible"
    packing: Packing | None = None
    certificate: Certificate | None = None
    trace: SplitTrace | None = None
    reduced_graph: Multigraph | None = None
    pre_lift: Packing | None = None
    method: str = ""  # "pipeline" | "brute-force" | "trivial"
    threshold: int | None = None
    connectivity: int | None = None

    @property
    def succeeded(self) -> bool:
        return self.outcome == "packed"


# -- edge-set helpers ---------------------------------------------------------


def _part_vertices(g: Multigraph, edge_ids: Iterable[int]) -> set[int]:
    out: set[int] = set()
    for eid in edge_ids:
        out.update(g.endpoints(eid))
    return out


def _part_degrees(g: Multigraph, edge_ids: Iterable[int]) -> dict[int, int]:
    deg: dict[int, int] = {}
    for eid in edge_ids:
        u, v = g.endpoints(eid)
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def prune_to_terminal_tree(g: Multigraph, terminals: frozenset[int],
                           edge_ids: Iterable[int]) -> frozenset[int]:
    """Shrink a connected terminal-spanning edge set to a tree whose leaves
    are all terminals: a breadth-first spanning tree rooted at the lowest
    terminal id, over the edges in id order, with its non-terminal leaves
    peeled.  Peeling in any order ends in the smallest subtree holding every
    terminal, so one pass up from the deepest vertex keeps a vertex's edge
    to its parent exactly when the vertex is a terminal or keeps a child.
    """
    if not terminals:
        raise InvalidArgumentError("pruning needs at least one terminal")
    adj: dict[int, list[tuple[int, int]]] = {}
    for eid in sorted(edge_ids):
        u, v = g.endpoints(eid)
        adj.setdefault(u, []).append((v, eid))
        adj.setdefault(v, []).append((u, eid))
    root = min(terminals)
    up: dict[int, tuple[int, int] | None] = {root: None}  # vertex -> (parent, edge to it)
    order = [root]  # the breadth-first queue, read as it grows
    for x in order:
        for y, eid in sorted(adj.get(x, ())):
            if y not in up:
                up[y] = (x, eid)
                order.append(y)
    if not terminals <= up.keys():
        raise InternalInvariantError("pruning disconnected a terminal")
    kept = set(terminals)
    tree: set[int] = set()
    for y in reversed(order[1:]):
        if y in kept:
            x, eid = up[y]
            kept.add(x)
            tree.add(eid)
    return frozenset(tree)


# -- verification -------------------------------------------------------------


def verify_packing(g: Multigraph, terminals: frozenset[int] | None,
                   packing: Packing) -> VerifyResult:
    """Check a packing claim against its host graph.

    Parts must be pairwise disjoint and every edge id must exist.  Then by
    mode: spanning parts are spanning trees of the whole graph; steiner
    parts are trees containing every terminal; connector parts are
    connected, contain every terminal, and give every non-terminal an even
    degree.  Connectors whose non-terminal degrees all lie in {0, 2} are
    the canonical pipeline shape; anything else even is reported ok but
    flagged, since general connector recognition is not attempted.
    """
    for part in packing.parts:
        for eid in part:
            if not g.has_edge(eid):
                raise InvalidArgumentError(f"packing refers to unknown edge id {eid}")
    seen: dict[int, int] = {}
    for i, part in enumerate(packing.parts):
        for eid in part:
            if eid in seen:
                return VerifyResult(ok=False, part_index=i,
                                    reason=f"edge {eid} also in part {seen[eid]}")
            seen[eid] = i

    tset = frozenset(terminals) if terminals is not None else frozenset()
    if packing.mode in ("steiner", "connector") and not tset:
        raise InvalidArgumentError("terminal modes need a terminal set")

    canonical = True
    for i, part in enumerate(packing.parts):
        if packing.mode == "spanning":
            if len(part) != g.vertex_count() - 1:
                return VerifyResult(ok=False, part_index=i,
                                    reason=f"{len(part)} edges cannot span "
                                           f"{g.vertex_count()} vertices as a tree")
            vertices = g.vertices
        else:
            if not part:
                if len(tset) != 1:
                    return VerifyResult(ok=False, part_index=i, reason="empty part")
                continue
            vertices = _part_vertices(g, part)
            if not tset <= vertices:
                return VerifyResult(ok=False, part_index=i,
                                    reason="part misses a terminal")
        dsu = _DSU()
        acyclic = True
        for eid in part:
            acyclic &= dsu.union(*g.endpoints(eid))
        if packing.mode != "connector" and not acyclic:
            return VerifyResult(ok=False, part_index=i, reason="part has a cycle")
        if not dsu.joins(vertices):
            return VerifyResult(ok=False, part_index=i, reason="part is disconnected")
        if packing.mode == "connector":
            deg = _part_degrees(g, part)
            for v in sorted(vertices - tset):
                d = deg.get(v, 0)
                if d % 2 != 0:
                    return VerifyResult(ok=False, part_index=i,
                                        reason=f"non-terminal {v} has odd degree {d}")
                if d not in (0, 2):
                    canonical = False

    if packing.mode == "connector":
        note = None if canonical else "unverified connector shape"
        return VerifyResult(ok=True, canonical=canonical, note=note)
    return VerifyResult(ok=True)


def _verified(g: Multigraph, terminals: frozenset[int] | None, packing: Packing,
              route: str) -> Packing:
    """The packing, once verify_packing accepts it on g; an internal error
    naming the route that produced it otherwise."""
    check = verify_packing(g, terminals, packing)
    if not check.ok:
        raise InternalInvariantError(f"{route} packing failed verification: {check.reason}")
    return packing


# -- violating partitions -----------------------------------------------------


def _violating_partition_certificate(vertices: frozenset[int],
                                     edge_sets: Mapping[int, Collection[int]], k: int,
                                     reached: frozenset[int],
                                     scope: str = "graph") -> Certificate:
    """A partition certificate for a failed k-fold packing whose exchange
    searches reached the element set A = `reached` (`PackBasesResult.reached`),
    for graphs and hypergraphs alike.

    The blocks are the components of (vertices, A), isolated vertices as
    singletons; no partition is enumerated.  For a partition Q write
    rank(Q) = |vertices| - |Q| and cross(Q) for the elements that meet two
    blocks.  Every partition has k * rank(Q) + cross(Q) >= size, and the
    components attain it (Edmonds 1965; Frank-Kiraly-Kriesell 2003):

    - Every part spans A, so B = part_0 & A is a basis of A.
    - For each e in A - part_0, the vertex set X of the circuit C(part_0, e)
      is tight for B: B has exactly |X| - 1 elements inside X.
    - Tight sets that meet have a tight union.  So the merged sets Q satisfy
      k * rank(Q) + cross(Q) <= |E - A| + k * |B| = size, the minimum.  For
      k >= 2 this forces every element of A inside a block; for k = 1, A is
      just the unplaced elements plus their circuits.
    - So Q is the set of components of (vertices, A).

    Hence the partition falls short of k(|Q|-1) by k(|vertices|-1) - size,
    the largest deficiency of any partition.  Its crossing count is
    recounted all the same, and a count that does not violate the bound is
    an internal error.
    """
    dsu = _DSU()
    for eid in reached:
        u, *rest = edge_sets[eid]
        for v in rest:
            dsu.union(u, v)
    blocks: dict[int, set[int]] = {}
    for v in vertices:
        blocks.setdefault(dsu.find(v), set()).add(v)
    p = Partition(blocks=tuple(frozenset(b) for b in sorted(blocks.values(), key=min)))
    out = p.classify(edge_sets).outer_count
    bound = k * (len(p) - 1)
    if out >= bound:
        raise InternalInvariantError("extracted partition does not violate the bound")
    return Certificate(kind="violating-partition", scope=scope,
                       partition=p.blocks, lambda_out=out, bound=bound)


# -- spanning-tree packing ----------------------------------------------------


def pack_spanning_trees(g: Multigraph, k: int) -> PackResult:
    """k edge-disjoint spanning trees via the k-fold graphic matroid union,
    or a partition whose crossing-edge count certifies there are none."""
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    if not g.vertices:
        raise InvalidArgumentError("graph must have at least one vertex")
    n = g.vertex_count()
    result = pack_bases(graphic_matroid(g.vertices, g.edges), k)
    if result.size == k * (n - 1):
        packing = _verified(g, None, Packing(mode="spanning", parts=result.parts), "spanning")
        return PackResult(outcome="packed", packing=packing, method="pipeline")
    cert = _violating_partition_certificate(g.vertices, g.edges, k, result.reached)
    return PackResult(outcome="certificate", certificate=cert, method="pipeline")


# -- hypergraph construction and decoding -------------------------------------


def build_steiner_hypergraph(g: Multigraph, terminals: frozenset[int]
                             ) -> tuple[Hypergraph, dict[int, tuple[str, int]]]:
    """Replace each degree-3 non-terminal by a hyperedge on its three
    neighbors; terminal-terminal edges become 2-vertex hyperedges.

    Requires the reduced normal form: every non-terminal has degree 3 and
    three distinct terminal neighbors, and the graph has no loops.  The
    origin map records, per hyperedge id, either ("edge", edge-id) or
    ("vertex", non-terminal-id) for decoding packings back to edges; a
    hub is the other end of any edge of its star.
    """
    tset = frozenset(terminals)
    scan = _normal_form(g, tset)
    if not isinstance(scan, NormalForm):
        kind, ref = scan
        if kind == "vertex":
            raise InvalidArgumentError(
                f"vertex {ref} breaks the reduced form needed for the hypergraph step")
        raise InvalidArgumentError(f"loop {ref} cannot enter the hypergraph")
    origin = {hid: ("edge", hid) for hid in scan.hyperedges}
    for hid, star in scan.stars.items():
        terminal, eid = next(iter(star.items()))
        origin[hid] = ("vertex", g.other_end(eid, terminal))
    return Hypergraph(tset, scan.hyperedges), origin


def _decode(form: NormalForm, reps: Mapping[int, tuple[int, int]]) -> frozenset[int]:
    """The edges of the graph read as `form` behind one packed basis, given
    by its representative forest `reps` (`PackBasesResult.states[i].ends`):
    a 2-vertex hyperedge is its edge, and a hub gives the two star edges
    to its pair.  The pairs form a tree on the terminals, so the result is
    a tree in which every hub it uses has degree 2, a canonical connector
    that needs no pruning.
    """
    edges: set[int] = set()
    for hid, (a, b) in reps.items():
        star = form.stars.get(hid)
        if star is None:
            edges.add(hid)
        else:
            edges.add(star[a])
            edges.add(star[b])
    return frozenset(edges)


# -- lifting through the reduction trace ---------------------------------------


def lift_parts(parts: Iterable[frozenset[int]], trace: SplitTrace,
               reduced: Multigraph) -> tuple[list[frozenset[int]], Multigraph]:
    """Walk the reduction trace backwards, swapping each used child edge
    for its two parent edges.

    A swap keeps a part connected and its degrees' parities, but can close
    a cycle where the split vertex already carries part edges; Steiner
    parts are pruned after the walk (`_lift_verified`).  Returns the lifted
    parts plus the reconstructed original graph.
    """
    g = reduced.copy()
    work = [set(p) for p in parts]
    for step in reversed(trace.steps):
        step.undo(g)
        if isinstance(step, SplitStep):
            for part in work:
                if step.child in part:
                    part.discard(step.child)
                    part.add(step.e1)
                    part.add(step.e2)
                    break
    return [frozenset(p) for p in work], g


def _lift_verified(parts: Iterable[frozenset[int]], rr: ReduceResult, g: Multigraph,
                   mode: str, route: str) -> tuple[Packing, Packing]:
    """Verify reduced-graph parts there, lift them back to g through the
    reduction trace, prune Steiner parts, and verify them again on g; the
    rewind must restore g exactly.  Returns the packing before and after
    the lift.  With an empty trace the reduced graph is g, and the parts
    are verified once, on g."""
    if not rr.trace.steps:
        packing = _verified(g, rr.terminals, Packing(mode=mode, parts=tuple(parts)), route)
        return packing, packing
    pre_lift = _verified(rr.graph, rr.terminals, Packing(mode=mode, parts=tuple(parts)),
                         f"{route} (reduced graph)")
    lifted, original = lift_parts(pre_lift.parts, rr.trace, rr.graph)
    if original != g:
        raise InternalInvariantError("trace rewind did not restore the input graph")
    if mode == "steiner":
        lifted = [prune_to_terminal_tree(g, rr.terminals, part) for part in lifted]
    return pre_lift, _verified(g, rr.terminals, Packing(mode=mode, parts=tuple(lifted)), route)


# -- exhaustive oracle --------------------------------------------------------


@dataclass(frozen=True)
class BruteResult:
    packing: Packing | None
    infeasible: bool


def brute_force_pack(g: Multigraph, terminals: frozenset[int] | None, k: int,
                     mode: str) -> BruteResult:
    """Exhaustive packing search with symmetry breaking and pruning.

    Edges are assigned, in ascending id order, to one of k parts or left
    unused; a part label may only be opened after all lower labels are in
    use, so part families are enumerated once each.  Tree modes keep every
    part acyclic while searching; every node also checks that each part
    can still reach all its required vertices using the unassigned
    remainder, and a complete assignment is accepted only when
    verify_packing accepts it.  Exhaustion is a proof that no packing
    exists (loops are never needed by any mode and are left unused).
    """
    if mode not in MODES:
        raise InvalidArgumentError(f"unknown packing mode {mode!r}")
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    limits.require("brute-parts", limits.BRUTE_PARTS, k, "exhaustive packing search")
    limits.require("brute-edges", limits.BRUTE_EDGES, g.edge_count(),
                   "exhaustive packing search")
    tset = frozenset(terminals) if terminals is not None else frozenset()
    if mode == "spanning":
        required = set(g.vertices)
    else:
        if not tset:
            raise InvalidArgumentError("terminal modes need a terminal set")
        if not tset <= g.vertices:
            raise InvalidArgumentError("terminals must be vertices of the graph")
        required = set(tset)
        if len(tset) == 1:
            packing = Packing(mode=mode, parts=tuple(frozenset() for _ in range(k)))
            return BruteResult(packing=packing, infeasible=False)

    edges = [eid for eid in sorted(g.edges) if not g.is_loop(eid)]
    m = len(edges)
    ends = {eid: g.endpoints(eid) for eid in edges}
    min_part_edges = max(0, (g.vertex_count() if mode == "spanning" else len(required)) - 1)
    parts: list[set[int]] = [set() for _ in range(k)]

    def part_can_reach(part_idx: int, next_i: int) -> bool:
        dsu = _DSU()
        for eid in parts[part_idx]:
            dsu.union(*ends[eid])
        for i in range(next_i, m):
            dsu.union(*ends[edges[i]])
        return dsu.joins(required)

    tree_mode = mode in ("spanning", "steiner")
    found: list[Packing] = []

    def search(i: int, used_parts: int) -> bool:
        if i == m:
            packing = Packing(mode=mode, parts=tuple(frozenset(p) for p in parts))
            if verify_packing(g, tset, packing).ok:
                found.append(packing)
                return True
            return False
        remaining = m - i
        deficit = sum(max(0, min_part_edges - len(p)) for p in parts)
        if deficit > remaining:
            return False
        eid = edges[i]
        top = min(k, used_parts + 1)
        for label in range(top + 1):
            if label == 0:
                ok = all(part_can_reach(j, i + 1) for j in range(k))
                if ok and search(i + 1, used_parts):
                    return True
                continue
            j = label - 1
            if tree_mode:
                if mode == "spanning" and len(parts[j]) >= min_part_edges:
                    continue
                dsu = _DSU()
                if not all(dsu.union(*ends[e]) for e in (*parts[j], eid)):
                    continue
            parts[j].add(eid)
            if all(part_can_reach(jj, i + 1) for jj in range(k)) \
                    and search(i + 1, max(used_parts, label)):
                return True
            parts[j].discard(eid)
        return False

    if search(0, 0):
        return BruteResult(packing=found[0], infeasible=False)
    return BruteResult(packing=None, infeasible=True)


# -- terminal pipelines -------------------------------------------------------


def _pipeline(g: Multigraph, terminals, k: int, mode: str,
              threshold: int | None, brute_fallback: bool) -> PackResult:
    tset = frozenset(terminals)
    if k < 1:
        raise InvalidArgumentError("k must be at least 1")
    if not tset:
        raise InvalidArgumentError("need at least one terminal")
    if not tset <= g.vertices:
        raise InvalidArgumentError("terminals must be vertices of the graph")
    if len(tset) == 1:
        packing = Packing(mode=mode, parts=tuple(frozenset() for _ in range(k)))
        return PackResult(outcome="packed", packing=packing, method="trivial")

    t_values = Thresholds.for_k(k)
    if threshold is None:
        threshold = t_values.f_k if mode == "steiner" else t_values.g_k
    # λ_T is measured up to the cap, with the flow loop's side below it.
    # Input already in the normal form needs no flow to find λ_T, and no
    # reduction: it is its own reduced graph, with an empty trace.
    cap = connectivity_cap(k, threshold)
    scan = _normal_form(g, tset)
    normal = isinstance(scan, NormalForm)
    if normal:
        connectivity, side = min(_normal_form_cut(scan.hyperedges.values(), tset), cap), None
    else:
        connectivity, side = _terminal_cut(g, tset, cap)
    rr: ReduceResult | None = None

    def result(outcome: str, **fields) -> PackResult:
        return PackResult(outcome=outcome, threshold=threshold, connectivity=connectivity,
                          trace=rr.trace if rr else None,
                          reduced_graph=rr.graph if rr else None, **fields)

    if connectivity < threshold:
        if side is None:
            # The certificate reports the flow loop's side on every input.
            size, side = _terminal_cut(g, tset, cap)
            if size != connectivity:
                raise InternalInvariantError(
                    f"normal-form cut {connectivity} differs from the flow cut {size}")
        return result("certificate", certificate=Certificate(
            kind="cut-too-small", cut_side=side, cut_size=connectivity, threshold=threshold))

    if normal:
        rr = ReduceResult(graph=g, terminals=tset, trace=SplitTrace(), normal_form=scan)
    else:
        # Reduction runs at the hypergraph-packing threshold when the
        # instance affords it; below that (probing regimes) it preserves
        # what was asked.
        reduce_threshold = t_values.fkk if connectivity >= t_values.fkk else threshold
        rr = reduce_instance(g, tset, reduce_threshold)
        if rr.normal_form is None and threshold < reduce_threshold:
            # Keeping λ_T at 3k can leave no slack for the deletions the
            # normal form needs; the requested threshold may leave enough.
            # The stalled trace is dropped, and every packing is verified.
            rr = reduce_instance(g, tset, threshold)

    packed = None
    if rr.normal_form is not None:
        # The form was read at entry or by the reduction, and its
        # hyperedges go to the matroid as they are.
        oracle = HypergraphicMatroid.of_tuples(tset, rr.normal_form.hyperedges)
        packed = pack_bases(oracle, k)
        if packed.size == k * (len(tset) - 1):
            decoded = [_decode(rr.normal_form, state.ends) for state in packed.states]
            pre_lift, packing = _lift_verified(decoded, rr, g, mode, "pipeline")
            return result("packed", packing=packing, pre_lift=pre_lift, method="pipeline")

    if mode == "steiner" and k == 1 and rr.graph.is_connected():
        # One tree needs no hypergraph, which can fall short of it (a lone
        # hub on three terminals has rank 1 < 2): prune the whole reduced
        # edge set down to a terminal tree and lift it.
        part = prune_to_terminal_tree(rr.graph, tset, rr.graph.edges)
        pre_lift, packing = _lift_verified([part], rr, g, mode, "single-tree")
        return result("packed", packing=packing, pre_lift=pre_lift, method="pipeline")

    # A stalled reduction is searched first in its reduced graph, whose
    # packings lift; only exhaustion of the input graph proves infeasibility.
    # With an empty trace the reduced graph is the input, searched once.
    if brute_fallback:
        if packed is not None:
            targets = (g,)
        else:
            targets = (rr.graph, g) if rr.trace.steps else (rr.graph,)
        for target in targets:
            try:
                brute = brute_force_pack(target, tset, k, mode)
            except CapacityError:
                continue  # beyond exhaustive reach: no verdict either way
            if brute.packing is None:
                if target is targets[-1]:
                    return result("infeasible", method="brute-force")
                continue
            if target is g:
                pre_lift, packing = None, _verified(g, tset, brute.packing, "brute-force")
            else:
                pre_lift, packing = _lift_verified(brute.packing.parts, rr, g, mode,
                                                   "brute-force")
            return result("packed", packing=packing, pre_lift=pre_lift, method="brute-force")

    if packed is None:
        cert = Certificate(kind="reduction-incomplete", reduced_graph=rr.graph,
                           reduced_form=rr.form)
    else:
        cert = _violating_partition_certificate(tset, rr.normal_form.hyperedges, k,
                                                packed.reached, scope="reduced-hypergraph")
    return result("certificate", certificate=cert)


def pack_steiner_trees(g: Multigraph, terminals, k: int,
                       threshold: int | None = None,
                       brute_fallback: bool = True) -> PackResult:
    """k edge-disjoint trees each containing every terminal.

    Pipeline: threshold check, reduction, hypergraphic base packing,
    decode, lift, verify; input already in the normal form skips the
    reduction and the lift.  The graph packed, the input or the reduced
    graph, is read in one scan (`graphcore._normal_form`): its result
    gives the normal-form cut, the hyperedges the matroid takes as they
    are, and each hub's edges for the decode.  The reduction keeps λ_T at
    3k when the instance affords it; when that stalls before the normal
    form and a lower threshold was asked, it starts again at that
    threshold.  When the hypergraph does not pack or the reduction still
    stalls, the routes are tried in this order:

    1. the single tree (k=1): the reduced edge set pruned to a terminal
       tree, lifted;
    2. with brute_fallback, after a stalled reduction only: the exhaustive
       search on the reduced graph, lifted;
    3. with brute_fallback: the exhaustive search on the input graph,
       whose exhaustion is returned as `infeasible`;
    4. the certificate: a violating partition of the reduced hypergraph,
       or the partially reduced instance.  A `reduced-hypergraph`
       certificate proves that the reduced hypergraph has no k disjoint
       bases.  It does not prove that the input has no k trees.

    The exhaustive search is skipped above its caps.
    """
    return _pipeline(g, terminals, k, "steiner", threshold, brute_fallback)


def pack_connectors(g: Multigraph, terminals, k: int,
                    threshold: int | None = None,
                    brute_fallback: bool = True) -> PackResult:
    """k edge-disjoint connectors: connected subgraphs containing every
    terminal whose non-terminals all have even degree.

    Bases decode as for trees, so used non-terminals have degree exactly 2
    before lifting, and lifted parts are not pruned.  The routes after the
    hypergraph or the reduction falls short are those of pack_steiner_trees,
    without the single tree: the exhaustive search on the reduced graph
    (stalled reductions only) and then on the input graph, within its caps
    and with brute_fallback, and otherwise the certificate.
    """
    return _pipeline(g, terminals, k, "connector", threshold, brute_fallback)


# -- packing text format ------------------------------------------------------


def serialize_packing(packing: Packing) -> str:
    lines = [f"packing {packing.mode} {packing.k}"]
    for i, part in enumerate(packing.parts, start=1):
        ids = " ".join(str(e) for e in sorted(part))
        lines.append(f"part {i}:" + (f" {ids}" if ids else ""))
    return "\n".join(lines) + "\n"


def parse_packing(text: str) -> Packing:
    mode: str | None = None
    parts: list[frozenset[int]] = []
    listed: set[int] = set()
    for lineno, kind, fields in read_lines(text, "packing"):
        if kind == "packing":
            if len(fields) != 2 or fields[0] not in MODES:
                raise InstanceParseError(lineno, "expected 'packing <mode> <k>'")
            mode = fields[0]
            count = parse_int(fields[1], lineno)
        elif kind == "part":
            if mode is None:
                raise InstanceParseError(lineno, "part line before packing header")
            head, _, rest = " ".join(fields).partition(":")
            if len(head.split()) != 1:
                raise InstanceParseError(lineno, "expected 'part <i>: <edge ids>'")
            index = parse_int(head.strip(), lineno)
            ids = [parse_int(x, lineno) for x in rest.split()]
            if index != len(parts) + 1:
                raise InstanceParseError(lineno, f"parts must be numbered in order, got {index}")
            if len(set(ids)) != len(ids):
                raise InstanceParseError(lineno, f"part {index} lists an edge id twice")
            if repeat := listed.intersection(ids):
                raise InstanceParseError(
                    lineno, f"part {index} repeats edge {min(repeat)} of an earlier part")
            listed.update(ids)
            parts.append(frozenset(ids))
        else:
            raise InstanceParseError(lineno, f"unknown line kind {kind!r}")
    if len(parts) != count:
        raise InstanceParseError(0, f"header declares {count} parts but {len(parts)} appear")
    return Packing(mode=mode, parts=tuple(parts))
