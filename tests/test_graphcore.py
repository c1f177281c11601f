"""Multigraph, cut, splitting-off and reduction behavior."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from treepack import (
    InstanceParseError,
    InternalInvariantError,
    InvalidArgumentError,
    Multigraph,
    PreconditionViolationError,
    isolate_even_nonterminal,
    mader_split,
    min_cut,
    parse_instance,
    reduce_instance,
    serialize_instance,
    split_off,
    steiner_connectivity,
    steiner_min_cut,
)
import treepack.graphcore
from treepack.generate import generate, generate_kriesell
from treepack.graphcore import (
    NormalForm,
    SplitStep,
    _deletions,
    _Drain,
    _flow_tree,
    _max_flow,
    _normal_form,
    _normal_form_cut,
    _reduce_vertex,
    _split_candidates,
    _split_trial,
)
from treepack.packing import Thresholds, build_steiner_hypergraph
from conftest import (
    all_pairwise_cuts,
    brute_min_cut,
    brute_source_side,
    brute_steiner_connectivity,
    c4,
    doubled_triangle,
    graph_from_pairs,
    is_flow,
    random_multigraph,
    reference_has_incident_cut_edge,
    reference_mader_split,
    reference_normal_form_cut,
    reference_normal_form_violation,
    reference_reduce_instance,
    reference_split_verdict,
    reference_steiner_hypergraph,
    reference_steiner_min_cut,
    triangle,
)
from treepack.rng import SplitMix64


def _eligible_split_vertices(g):
    """Vertices where mader_split's precondition holds."""
    if not g.is_connected():
        return []
    return [u for u in sorted(g.vertices)
            if g.degree(u) != 3 and g.degree(u) >= 2
            and not reference_has_incident_cut_edge(g, u)]


def _spy(monkeypatch, *names):
    """A list to which each call of one of graphcore's `names` appends
    that name."""
    events = []
    for name in names:
        original = getattr(treepack.graphcore, name)

        def spy(*args, _name=name, _original=original):
            events.append(_name)
            return _original(*args)

        monkeypatch.setattr(treepack.graphcore, name, spy)
    return events


def _doubled(g):
    """g with one parallel copy of every edge."""
    for a, b in list(g.edges.values()):
        g.add_edge(a, b)
    return g


def _outcome(g, terminals, threshold):
    """What reduce_instance returns, or the type and text of its error."""
    try:
        rr = reduce_instance(g, terminals, threshold)
    except (InvalidArgumentError, InternalInvariantError) as exc:
        return type(exc).__name__, str(exc)
    return rr.trace.steps, rr.graph, rr.graph.next_edge_id, rr.form


def _verdict(check):
    """The candidates `check` returns, or the text of its precondition error."""
    try:
        return check()
    except PreconditionViolationError as exc:
        return str(exc)


def _per_edit_agrees(g, terminals, threshold) -> Counter:
    """Reduce g as is and with every deletion pass's one check refusing,
    so that each pass is redone with every deletion checked on its own;
    the two must agree in trace, reduced graph, form and error.  After
    every split of every drain in either, the drain's kept labels and
    counts must give the verdict of a fresh `_split_candidates`.  Returns
    how the deletion passes of the first went: kept whole, refused by the
    check, or redone because they removed a vertex."""
    verdicts: Counter = Counter()
    pass_repair = treepack.graphcore._pass_repair
    deletions = treepack.graphcore._deletions
    split = _Drain.split

    def counted_check(*args):
        found = pass_repair(*args)
        verdicts["kept" if found is not None else "refused"] += 1
        return found

    def counted_deletions(*args, check_each):
        verdicts["per-edit"] += check_each
        return deletions(*args, check_each=check_each)

    def checked_split(self, flows):
        found = split(self, flows)
        if self.g.degree(self.u) != 3:
            assert _verdict(self.check) == _verdict(lambda: _split_candidates(self.g, self.u))
            verdicts["drain checks"] += 1
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Drain, "split", checked_split)
        mp.setattr(treepack.graphcore, "_pass_repair", counted_check)
        mp.setattr(treepack.graphcore, "_deletions", counted_deletions)
        fast = _outcome(g, terminals, threshold)
        verdicts["pruned"] = verdicts["per-edit"] - verdicts["refused"]
        seen = Counter(verdicts)
        mp.setattr(treepack.graphcore, "_pass_repair", lambda *args: None)
        slow = _outcome(g, terminals, threshold)
    assert fast == slow, (sorted(terminals), threshold)
    return seen


class TestMultigraph:
    def test_degree_counts_loops_twice(self):
        g = Multigraph()
        g.add_vertex(0)
        g.add_edge(0, 0)
        assert g.degree(0) == 2

    def test_equality_ignores_endpoint_order(self):
        # Equal up to the order of each edge's ends, the raw edge maps
        # differ and the normalised ones decide; edge ids and the vertex
        # set still count.
        g = graph_from_pairs(3, [(0, 1), (1, 2), (2, 2)])
        flipped = graph_from_pairs(3, [(1, 0), (2, 1), (2, 2)])
        assert g.edges != flipped.edges and g == flipped and g.copy() == g
        relabelled = graph_from_pairs(3, [(1, 2), (0, 1), (2, 2)])
        assert g != relabelled
        flipped.add_vertex(3)
        assert g != flipped

    def test_edge_ids_never_reused(self):
        g = graph_from_pairs(2, [(0, 1)])
        g.delete_edge(0)
        assert g.add_edge(0, 1) == 1

    def test_explicit_ids_bump_counter(self):
        g = graph_from_pairs(2, [])
        g.add_edge(0, 1, eid=7)
        assert g.add_edge(0, 1) == 8

    def test_remove_vertex_requires_isolation(self):
        g = graph_from_pairs(2, [(0, 1)])
        with pytest.raises(InvalidArgumentError):
            g.remove_vertex(0)

    def test_negative_edge_id_rejected(self):
        # The file format's ids are non-negative; any such id is accepted,
        # however large, since a flow is a map keyed by edge id.
        g = graph_from_pairs(3, [])
        with pytest.raises(InvalidArgumentError, match="negative"):
            g.add_edge(0, 1, eid=-1)
        g.add_edge(1, 2, eid=5)
        with pytest.raises(InvalidArgumentError, match="negative"):
            g.add_edge(0, 2, eid=-2)
        assert dict(g.edges) == {5: (1, 2)} and g.next_edge_id == 6
        assert g.add_edge(0, 2, eid=2 ** 63) == 2 ** 63
        assert dict(g.edges) == {5: (1, 2), 2 ** 63: (0, 2)}


class TestMinCut:
    def test_five_parallel_edges(self):
        g = graph_from_pairs(2, [(0, 1)] * 5)
        assert min_cut(g, 0, 1)[0] == 5

    def test_triangle(self):
        assert min_cut(triangle(), 0, 1)[0] == 2

    def test_doubled_triangle_matches_subset_enumeration(self):
        g = doubled_triangle()
        expected = brute_min_cut(g, 0, 1)
        assert expected == 4
        size, side = min_cut(g, 0, 1)
        assert size == 4
        assert 0 in side and 1 not in side

    def test_loops_never_count(self):
        g = graph_from_pairs(2, [(0, 1), (0, 0), (1, 1)])
        assert min_cut(g, 0, 1)[0] == 1

    def test_same_vertex_rejected(self):
        with pytest.raises(InvalidArgumentError):
            min_cut(triangle(), 0, 0)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(InvalidArgumentError):
            min_cut(triangle(), 0, 9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_brute_force_on_random_graphs(self, seed):
        g = random_multigraph(seed, max_vertices=5, max_edges=8)
        vs = sorted(g.vertices)
        s, t = vs[0], vs[1]
        assert min_cut(g, s, t)[0] == brute_min_cut(g, s, t)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_kernel_value_side_and_flow_match_enumeration(self, seed):
        g = random_multigraph(seed, max_vertices=6, max_edges=10)
        vs = sorted(g.vertices)
        s, t = vs[seed % len(vs)], vs[(seed + 1) % len(vs)]
        value, flow, side = _max_flow(g, s, t)
        assert value == brute_min_cut(g, s, t)
        assert side == brute_source_side(g, s, t)
        assert is_flow(g, flow, s, t, value)
        assert min_cut(g, s, t) == (value, side)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.data())
    def test_capped_kernel_stops_at_a_flow_or_is_exact(self, seed, data):
        # Dense enough for parallel s-t edges and two-edge paths, so the
        # seeding pass alone can reach the cap.
        g = random_multigraph(seed, max_vertices=5, max_edges=12)
        vs = sorted(g.vertices)
        s, t = vs[seed % len(vs)], vs[(seed + 1) % len(vs)]
        limit = data.draw(st.integers(min_value=0, max_value=g.degree(s) + 1))
        value, flow, side = _max_flow(g, s, t, limit)
        assert is_flow(g, flow, s, t, value)
        if value >= limit:
            assert side is None
            assert value == limit <= brute_min_cut(g, s, t)
        else:
            assert value == brute_min_cut(g, s, t)
            assert side == brute_source_side(g, s, t)


class TestSteinerConnectivity:
    def test_triangle_all_terminals(self):
        assert steiner_connectivity(triangle(), {0, 1, 2}) == 2

    def test_tripled_path(self):
        g = graph_from_pairs(3, [(0, 1)] * 3 + [(1, 2)] * 3)
        assert steiner_connectivity(g, {0, 2}) == 3

    def test_doubled_star_matches_bipartition_enumeration(self):
        # center 3 is not a terminal; leaves 0,1,2 are, each doubly attached
        g = graph_from_pairs(4, [(3, 0), (3, 0), (3, 1), (3, 1), (3, 2), (3, 2)])
        expected = brute_steiner_connectivity(g, {0, 1, 2})
        assert expected == 2
        assert steiner_connectivity(g, {0, 1, 2}) == 2

    def test_disconnected_graph_reports_zero(self):
        # Terminals in two components read 0, with t0's component as the
        # side; a component without terminals does not count.
        g = graph_from_pairs(3, [(0, 1)])
        assert steiner_min_cut(g, {0, 2}) == (0, frozenset({0, 1}))
        assert steiner_connectivity(g, {0, 1}) == 1

    def test_single_terminal_rejected(self):
        with pytest.raises(InvalidArgumentError):
            steiner_connectivity(triangle(), {0})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_bipartition_oracle_when_connected(self, seed):
        g = random_multigraph(seed, max_vertices=5, max_edges=9, connected=True)
        terminals = sorted(g.vertices)[:2]
        assert steiner_connectivity(g, terminals) == \
            brute_steiner_connectivity(g, terminals)

    def test_capped_loop_matches_uncapped_reference(self):
        # Every flow after the first is capped at the best value so far;
        # value and side must be those of the loop that runs every flow in
        # full, including which of several minimising terminals gives the
        # side.  Kriesell instances have many terminals at one value, and
        # their reductions are sparser graphs with the same terminals.
        cases = []
        for seed in range(150):
            g = random_multigraph(seed, max_vertices=7, max_edges=16)
            vs = sorted(g.vertices)
            cases.append((g, vs[:2 + seed % (len(vs) - 1)]))
        for n in (9, 11, 13):
            for seed in range(3):
                inst = generate_kriesell(n, 1 + seed % 2, seed)
                rr = reduce_instance(inst.graph, inst.terminals, 2)
                cases += [(inst.graph, inst.terminals), (rr.graph, inst.terminals)]
                inst = generate("fkk", n, 2, seed)
                cases.append((inst.graph, inst.terminals))
        for g, terminals in cases:
            assert steiner_min_cut(g, terminals) == reference_steiner_min_cut(g, terminals)


@st.composite
def normal_form_instances(draw):
    """A multigraph in the reduced normal form on terminals 0 .. n-1, with
    its hyperedges: each hub's three terminal neighbours and each
    terminal-terminal edge, triples and pairs both possibly repeated.
    With `apart` < n no hyperedge meets both 0 .. apart-1 and the rest,
    so the terminal groups are disconnected; with no hub, T = V."""
    n = draw(st.integers(min_value=2, max_value=10))
    apart = draw(st.integers(min_value=1, max_value=n - 1)) if draw(st.booleans()) else n
    blocks = [b for b in (range(apart), range(apart, n)) if b]
    g = graph_from_pairs(n, [])
    hyperedges = []
    for size, most in ((3, 25), (2, 12)):
        for _ in range(draw(st.integers(min_value=0, max_value=most))):
            fits = [b for b in blocks if len(b) >= size]
            if not fits:
                break
            block = draw(st.sampled_from(fits))
            ends = draw(st.lists(st.sampled_from(block), min_size=size, max_size=size,
                                 unique=True))
            hyperedges.append(frozenset(ends))
            if size == 2:
                g.add_edge(*ends)
            else:
                hub = g.vertex_count()
                g.add_vertex(hub)
                for t in ends:
                    g.add_edge(hub, t)
    return g, frozenset(range(n)), hyperedges


def brute_hypergraph_cut(terminals, hyperedges) -> int:
    """The least number of hyperedges that meet both sides, over every
    bipartition of the terminals."""
    ts = sorted(terminals)
    return min(sum(bool(e & side) and not e <= side for e in hyperedges)
               for side in (frozenset(t for i, t in enumerate(ts) if mask >> i & 1)
                            for mask in range(1, 1 << (len(ts) - 1))))


def form_cut(g, tset) -> int:
    """The flow-free terminal cut on the hyperedges of g's normal-form scan."""
    form = _normal_form(g, tset)
    assert isinstance(form, NormalForm)
    return _normal_form_cut(form.hyperedges.values(), tset)


class TestNormalFormCut:
    """The flow-free terminal cut against the flow loop and the bipartitions."""

    @settings(max_examples=300, deadline=None)
    @given(normal_form_instances())
    def test_matches_flows_and_bipartitions(self, instance):
        g, tset, hyperedges = instance
        value = form_cut(g, tset)
        assert value == reference_steiner_min_cut(g, tset)[0]
        assert value == brute_hypergraph_cut(tset, hyperedges)

    def test_merged_ends_count_once_per_group(self):
        # Once 1 and 2 share a group, the hub on {0, 1, 2} meets that group
        # once: counting it once per end reads 2 for the true 1 (the hub
        # alone crosses {1, 2} | {0, 3}).
        g = graph_from_pairs(4, [(0, 3), (0, 3), (1, 2)])
        g.add_vertex(4)
        for t in (0, 1, 2):
            g.add_edge(4, t)
        tset = frozenset(range(4))
        assert form_cut(g, tset) == steiner_connectivity(g, tset) == 1

    def test_benchmark_shaped_instances(self):
        for n, k in ((9, 3), (11, 2), (16, 2)):
            for seed in range(10):
                inst = generate("fkk", n, k, seed)
                assert form_cut(inst.graph, inst.terminals) == \
                    reference_steiner_min_cut(inst.graph, inst.terminals)[0]


def near_normal_form(seed: int) -> tuple[Multigraph, frozenset[int]]:
    """A seeded graph in the reduced normal form or a few edits off it.

    Terminals and hubs get shuffled vertex ids, added in shuffled order;
    each hub joins three distinct terminals and a few terminal pairs get
    (possibly parallel) edges, laid down in shuffled order and orientation
    under sparse edge ids drawn out of order.  Then up to two edits: a loop
    at a terminal or a hub, a hub-hub edge, a fourth hub edge, a hub edge
    dropped or moved onto a terminal the hub already has, a hub edge made
    a loop, or an isolated non-terminal."""
    rng = SplitMix64(seed)
    n, count = 2 + rng.below(6), rng.below(7)
    labels = list(range(n + count))
    rng.shuffle(labels)
    terminals, hubs = labels[:n], labels[n:] if n >= 3 else []
    order = terminals + hubs
    rng.shuffle(order)
    g = Multigraph()
    for v in order:
        g.add_vertex(v)
    pairs = [(h, t) for h in hubs for t in rng.sample(terminals, 3)]
    pairs += [tuple(rng.sample(terminals, 2)) for _ in range(rng.below(4))]
    rng.shuffle(pairs)
    ids = rng.sample(range(2 * len(pairs) + 8), len(pairs) + 4)

    def add(u, v):
        g.add_edge(*((u, v) if rng.below(2) else (v, u)), eid=ids.pop())

    for u, v in pairs:
        add(u, v)
    for _ in range(rng.below(3)):
        edit = rng.below(10)
        if edit == 0:
            t = rng.sample(terminals, 1)[0]
            add(t, t)
        elif edit == 7:
            g.add_vertex(n + count + rng.below(3))
        elif hubs and edit in (1, 2, 3, 4, 5, 6):
            hub = rng.sample(hubs, 1)[0]
            if edit == 1:
                add(hub, hub)
            elif edit == 2 and len(hubs) > 1:
                add(hub, rng.sample([h for h in hubs if h != hub], 1)[0])
            elif edit == 3:
                add(hub, rng.sample(terminals, 1)[0])
            elif edit in (4, 5, 6) and g.incident_edges(hub):
                g.delete_edge(rng.sample(g.incident_edges(hub), 1)[0])
                if edit == 5 and g.neighbors(hub):
                    add(hub, rng.sample(sorted(g.neighbors(hub)), 1)[0])
                elif edit == 6:
                    add(hub, hub)
    return g, frozenset(terminals)


class TestNormalFormScan:
    """The one-scan normal form against its three references: the form
    test, the hypergraph built through `add_hyperedge`, and the cut on
    hyperedges read off the incidence lists."""

    @staticmethod
    def cases():
        for seed in range(600):
            yield near_normal_form(seed)
        for seed in range(150):
            g = random_multigraph(seed, max_vertices=7, max_edges=14)
            vs = sorted(g.vertices)
            yield g, frozenset(vs[:2 + seed % (len(vs) - 1)])
        for n, k in ((9, 2), (11, 2), (9, 3)):
            for seed in range(4):
                inst = generate("fkk", n, k, seed)
                yield inst.graph, inst.terminals
        for n in (9, 11, 13):
            for seed in range(4):
                inst = generate_kriesell(n, 1 + seed % 2, seed)
                for threshold in (2, 3):
                    rr = reduce_instance(inst.graph, inst.terminals, threshold)
                    yield rr.graph, rr.terminals

    def test_matches_the_references(self):
        verdicts = Counter()
        for g, tset in self.cases():
            form = _normal_form(g, tset)
            violation = reference_normal_form_violation(g, tset)
            verdicts[violation[0] if violation else "normal"] += 1
            if violation is not None:
                assert form == violation
                continue
            assert isinstance(form, NormalForm)
            h, origin = reference_steiner_hypergraph(g, tset)
            assert list(form.hyperedges) == list(h.hyperedges)
            assert form.hyperedges == {hid: tuple(sorted(vs))
                                       for hid, vs in h.hyperedges.items()}
            assert build_steiner_hypergraph(g, tset)[1] == origin
            hubs = {hid: ref for hid, (kind, ref) in origin.items() if kind == "vertex"}
            assert form.stars.keys() == hubs.keys()
            for hid, hub in hubs.items():
                star = form.stars[hid]
                assert sorted(star.values()) == g.incident_edges(hub)
                assert all(g.other_end(eid, hub) == t for t, eid in star.items())
            value = _normal_form_cut(form.hyperedges.values(), tset)
            assert value == reference_normal_form_cut(g, tset) == steiner_connectivity(g, tset)
        assert min(verdicts.values()) >= 40, verdicts


class TestSplitOff:
    def test_path_becomes_single_edge(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        out, step = split_off(g, 1, 0, 1)
        assert out.degree(1) == 0
        assert sorted(out.edges.values()) == [(0, 2)]
        assert step.child_ends == (0, 2)

    def test_parallel_pair_becomes_loop(self):
        g = graph_from_pairs(2, [(0, 1), (0, 1)])
        out, step = split_off(g, 0, 0, 1)
        assert out.is_loop(step.child)
        assert out.degree(1) == 2

    def test_degree_bookkeeping_on_doubled_triangle(self):
        g = doubled_triangle()
        before = {v: g.degree(v) for v in g.vertices}
        out, _ = split_off(g, 1, 0, 2)  # edge 0 = (0,1), edge 2 = (1,2)
        assert out.degree(1) == before[1] - 2
        assert out.degree(0) == before[0]
        assert out.degree(2) == before[2]

    def test_rejects_loop_and_foreign_edges(self):
        g = graph_from_pairs(2, [(0, 0), (0, 1), (1, 1)])
        with pytest.raises(InvalidArgumentError):
            split_off(g, 0, 0, 1)  # edge 0 is a loop at 0
        with pytest.raises(InvalidArgumentError):
            split_off(g, 0, 1, 2)  # edge 2 is not incident to 0
        with pytest.raises(InvalidArgumentError):
            split_off(g, 0, 1, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_degree_multiset_preserved_elsewhere(self, seed):
        g = random_multigraph(seed, max_vertices=5, max_edges=8, loops=False)
        candidates = [v for v in sorted(g.vertices)
                      if len([e for e in g.incident_edges(v) if not g.is_loop(e)]) >= 2]
        if not candidates:
            return
        u = candidates[0]
        e1, e2 = [e for e in g.incident_edges(u) if not g.is_loop(e)][:2]
        out, _ = split_off(g, u, e1, e2)
        for v in g.vertices - {u}:
            assert out.degree(v) == g.degree(v)
        assert out.degree(u) == g.degree(u) - 2


class TestMaderSplit:
    def test_degree_two_vertex_gets_unique_pair(self):
        g = c4()
        pair = mader_split(g, 1)
        assert set(pair) == set(g.incident_edges(1))

    def test_four_parallel_plus_triangle(self):
        g = graph_from_pairs(4, [(0, 1)] * 4 + [(1, 2), (2, 3), (1, 3)])
        before = all_pairwise_cuts(g, g.vertices - {0})
        e1, e2 = mader_split(g, 0)
        out, _ = split_off(g, 0, e1, e2)
        assert all_pairwise_cuts(out, g.vertices - {0}) == before

    def test_c4_preserves_pairwise_connectivity(self):
        g = c4()
        before = all_pairwise_cuts(g, g.vertices - {1})
        e1, e2 = mader_split(g, 1)
        out, _ = split_off(g, 1, e1, e2)
        assert all_pairwise_cuts(out, g.vertices - {1}) == before

    def test_degree_three_rejected(self):
        g = graph_from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3)])
        with pytest.raises(PreconditionViolationError):
            mader_split(g, 0)
        # degree 4 from two loops alone leaves no pair to split either
        g = graph_from_pairs(1, [(0, 0), (0, 0)])
        with pytest.raises(PreconditionViolationError):
            mader_split(g, 0)

    def test_cut_edge_rejected(self):
        g = graph_from_pairs(4, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 3)])
        # vertex 3 hangs on a bridge, but its loop makes its degree 3
        with pytest.raises(PreconditionViolationError):
            mader_split(g, 3)
        g.add_edge(1, 1)  # a loop is never a bridge
        assert _split_candidates(g, 1) == [0, 2]
        g.add_edge(0, 2)
        with pytest.raises(PreconditionViolationError,
                           match="^vertex 0 is incident with a cut-edge$"):
            mader_split(g, 0)
        g.add_edge(0, 3)  # nor is an edge with a parallel copy
        assert _split_candidates(g, 3) == [3, 7]
        assert _split_candidates(g, 0) == [0, 1, 3, 6, 7]

    def test_no_flow_before_a_pair_search_can_run(self, monkeypatch):
        # A pendant edge at the non-terminal 0 of a kriesell graph (degree
        # 10, even) is a cut-edge at 0; an isolated vertex as well
        # disconnects the graph, which is checked first.  Both functions
        # refuse either graph with the message of the split's own check,
        # and build no flow first: they used to build the 11 of an
        # equivalent-flow tree on V - 0.
        inst = generate("kriesell", 12, 1, 3)
        pendant = inst.graph.copy()
        pendant.add_vertex(99)
        pendant.add_edge(0, 99)
        apart = pendant.copy()
        apart.add_vertex(98)
        assert 0 not in inst.terminals and pendant.degree(0) == 10
        flows = _spy(monkeypatch, "_max_flow")
        for g, message in ((pendant, "^vertex 0 is incident with a cut-edge$"),
                           (apart, "^graph must be connected$")):
            with pytest.raises(PreconditionViolationError, match=message):
                mader_split(g, 0)
            with pytest.raises(PreconditionViolationError, match=message):
                isolate_even_nonterminal(g, inst.terminals, 0)
        # Two non-loop edges and a loop at 99 take no pair search, only a
        # loop deletion and a suppression, so no flow either: the degree
        # with the loop, 4, used to build 11.
        suppressed = pendant.copy()
        suppressed.add_edge(99, 1)
        suppressed.add_edge(99, 99)
        out, steps = isolate_even_nonterminal(suppressed, inst.terminals, 99)
        assert [type(step).__name__ for step in steps] == ["DeleteEdgeStep", "SplitStep"]
        assert not out.has_vertex(99)
        assert flows == []

    def test_preconditions_are_checked_once_per_call(self, monkeypatch):
        # One call at the largest-degree vertex of a kriesell graph checks
        # the split preconditions once, in g before its first flow, and
        # not again on the copy it splits: one `_split_candidates`, whose
        # one search of G - u stands in for `is_connected` and a search
        # per lone neighbour.
        g = generate("kriesell", 9, 1, 3).graph
        u = max(sorted(g.vertices), key=g.degree)
        events = _spy(monkeypatch, "_split_candidates", "_max_flow")
        original = Multigraph.is_connected

        def is_connected(self):
            events.append("is_connected")
            return original(self)

        monkeypatch.setattr(Multigraph, "is_connected", is_connected)
        e1, e2 = mader_split(g, u)
        assert {e1, e2} <= set(g.incident_edges(u))
        assert events[:2] == ["_split_candidates", "_max_flow"]
        assert events.count("_split_candidates") == 1
        assert "is_connected" not in events

    def test_drain_checks_preconditions_once_per_split(self, monkeypatch):
        # isolate_even_nonterminal checks the preconditions in g before it
        # builds a flow, by one search of G - u whose labels and counts
        # then serve every split of the drain: at the degree-18
        # non-terminal 2 of this kriesell graph, 8 splits take a pair
        # search and one search checks them all (a search per split made
        # 8, and the check at degree 18 once ran twice).
        inst = generate("kriesell", 12, 1, 1)
        assert 2 not in inst.terminals and inst.graph.degree(2) == 18
        events = _spy(monkeypatch, "_Drain", "_split_candidates", "_max_flow")
        out, steps = isolate_even_nonterminal(inst.graph, inst.terminals, 2)
        assert not out.has_vertex(2)
        assert [type(step).__name__ for step in steps] == ["SplitStep"] * 9
        assert events[0] == "_Drain" and events[1] == "_max_flow"
        assert events.count("_Drain") == 1 and "_split_candidates" not in events

    def test_incident_cut_edge_matches_per_edge_search(self):
        # The one search of G - u gives the verdict and the message of
        # `is_connected` followed by a search per non-loop edge at u, at
        # every vertex of connected and disconnected graphs, with loops
        # and with doubled edges.
        verdicts: Counter = Counter()
        for seed in range(240):
            g = random_multigraph(seed, max_vertices=7, max_edges=10,
                                  loops=seed % 4 != 1, connected=seed % 2 == 0)
            if seed % 3 == 0:
                for eid, (a, b) in sorted(g.edges.items())[::2]:
                    g.add_edge(a, b)
            for u in sorted(g.vertices):
                candidates = [e for e in g.incident_edges(u) if not g.is_loop(e)]
                if g.degree(u) == 3 or len(candidates) < 2:
                    continue
                if not g.is_connected():
                    expected = "graph must be connected"
                elif reference_has_incident_cut_edge(g, u):
                    expected = f"vertex {u} is incident with a cut-edge"
                else:
                    expected = None
                try:
                    got = _split_candidates(g, u)
                except PreconditionViolationError as exc:
                    got = str(exc)
                else:
                    assert got == candidates, (seed, u)
                    got = None
                assert got == expected, (seed, u)
                kind = "ok" if expected is None else expected.split()[0]
                verdicts[kind, "doubled" if seed % 3 == 0 else "plain"] += 1
        assert len(verdicts) == 6 and min(verdicts.values()) >= 20, verdicts

    def test_chosen_pair_matches_reference_on_seeded_multigraphs(self):
        checked = first_rejected = 0
        for seed in range(120):
            g = random_multigraph(seed, max_vertices=8, max_edges=13,
                                  loops=seed % 2 == 0, connected=True)
            if seed % 3 == 0:
                _doubled(g)
            before = g.copy()
            for u in _eligible_split_vertices(g):
                pair, rejected = reference_mader_split(g, u)
                assert mader_split(g, u) == pair, (seed, u)
                checked += 1
                first_rejected += rejected > 0
            # the trials run on a copy: the input keeps its edges and ids
            assert g == before and g.next_edge_id == before.next_edge_id
        assert checked >= 300 and first_rejected >= 20

    def test_chosen_pair_matches_reference_on_kriesell_graphs(self):
        checked = first_rejected = 0
        for n in range(9, 14):
            g = generate_kriesell(n, 1, n).graph
            for u in _eligible_split_vertices(g):
                pair, rejected = reference_mader_split(g, u)
                assert mader_split(g, u) == pair, (n, u)
                checked += 1
                first_rejected += rejected > 0
        assert checked >= 50 and first_rejected >= 30


class TestSplitTrial:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_repaired_verdict_matches_fresh_cuts(self, seed):
        # Every candidate pair at every splittable vertex: the repaired
        # verdict is the fresh min_cut verdict, an accepted pair's flows
        # are flows of the split graph of the same values, and undoing
        # each trial leaves the graph as it was.
        g = random_multigraph(seed, max_vertices=7, max_edges=12,
                              loops=seed % 2 == 0, connected=True)
        if seed % 3 == 0:
            _doubled(g)
        for u in _eligible_split_vertices(g):
            before = g.copy()
            tree = _flow_tree(g, sorted(g.vertices - {u}))
            flows = [flow for *_, flow in tree]
            candidates = [e for e in g.incident_edges(u) if not g.is_loop(e)]
            for i, e1 in enumerate(candidates):
                for e2 in candidates[i + 1:]:
                    verdict = reference_split_verdict(g, u, e1, e2, tree)
                    found = _split_trial(g, flows, u, e1, e2)
                    assert (found is not None) == verdict, (seed, u, e1, e2)
                    if found is not None:
                        step, repaired = found
                        for (x, p, value, _), flow in zip(tree, repaired, strict=True):
                            assert is_flow(g, flow, x, p, value)
                        step.undo(g)
            assert g == before and g.next_edge_id == before.next_edge_id

    def test_every_drain_call_matches_reference(self):
        # A drain hands its flow tree's flows from one split to the next,
        # so each of its calls is checked, on the graph that call saw.
        graphs = [_doubled(random_multigraph(seed, max_vertices=7, max_edges=11,
                                             connected=True)) for seed in range(40)]
        graphs += [generate_kriesell(n, 1, n).graph for n in range(9, 12)]
        checked = carried = 0
        for g in graphs:
            for u in _eligible_split_vertices(g):
                if g.degree(u) % 2 or g.degree(u) < 6:
                    continue
                replay = g.copy()
                calls = 0
                for step in isolate_even_nonterminal(g, (), u)[1]:
                    if isinstance(step, SplitStep) and step.removed is None:
                        pair, _ = reference_mader_split(replay, u)
                        assert (step.e1, step.e2) == pair
                        calls += 1
                    step.apply(replay)
                checked += calls
                carried += max(calls - 1, 0)
        assert checked >= 250 and carried >= 150


class TestFlowTree:
    @staticmethod
    def _path_minimum(tree, a, b):
        adjacency = {}
        for x, p, value, _ in tree:
            adjacency.setdefault(x, []).append((p, value))
            adjacency.setdefault(p, []).append((x, value))
        best = {a: None}
        stack = [a]
        while stack:
            x = stack.pop()
            for y, value in adjacency.get(x, []):
                if y not in best:
                    best[y] = value if best[x] is None else min(best[x], value)
                    stack.append(y)
        return best[b]

    def test_tree_is_flow_equivalent(self):
        import networkx as nx
        for seed in range(60):
            g = random_multigraph(seed, max_vertices=8, max_edges=16,
                                  connected=seed % 4 != 0)
            if seed % 3 == 0:
                _doubled(g)
            vertices = sorted(g.vertices)
            tree = _flow_tree(g, vertices)
            assert len(tree) == len(vertices) - 1
            for x, p, value, flow in tree:
                assert is_flow(g, flow, x, p, value), (seed, x, p)
            reference = nx.Graph()
            reference.add_nodes_from(vertices)
            for a, b in g.edges.values():
                if a != b:
                    old = reference.get_edge_data(a, b, {"capacity": 0})["capacity"]
                    reference.add_edge(a, b, capacity=old + 1)
            for x, y in all_pairwise_cuts(g, vertices):
                value, _ = min_cut(g, x, y)
                assert self._path_minimum(tree, x, y) == value, (seed, x, y)
                assert nx.minimum_cut_value(reference, x, y) == value, (seed, x, y)


class TestIsolateEvenNonterminal:
    def test_degree_two_on_path_suppressed(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        out, steps = isolate_even_nonterminal(g, {0, 2}, 1)
        assert not out.has_vertex(1)
        assert sorted(out.edges.values()) == [(0, 2)]
        assert len(steps) == 1

    def test_degree_four_doubled_to_terminals(self):
        g = graph_from_pairs(3, [(2, 0), (2, 0), (2, 1), (2, 1)])
        before = steiner_connectivity(g, {0, 1})
        out, _ = isolate_even_nonterminal(g, {0, 1}, 2)
        assert sorted(out.edges.values()) == [(0, 1), (0, 1)]
        assert steiner_connectivity(out, {0, 1}) == before

    def test_already_isolated_vertex_removed(self):
        g = graph_from_pairs(2, [(0, 1)])
        g.add_vertex(5)
        out, steps = isolate_even_nonterminal(g, {0, 1}, 5)
        assert not out.has_vertex(5)
        assert len(steps) == 1

    def test_odd_degree_rejected(self):
        g = graph_from_pairs(4, [(3, 0), (3, 1), (3, 2), (0, 1), (1, 2), (0, 2)])
        with pytest.raises(PreconditionViolationError):
            isolate_even_nonterminal(g, {0, 1, 2}, 3)

    def test_terminal_rejected(self):
        with pytest.raises(InvalidArgumentError):
            isolate_even_nonterminal(triangle(), {0, 1, 2}, 0)


def generated(model, n, k, seed):
    inst = generate(model, n, k, seed)
    return inst.graph, inst.terminals


class TestReduceVertex:
    def test_stop_keeps_the_split_made_before_it(self):
        # Hub 2 has two edges to the non-terminal 3 and two to each of the
        # terminals 0 and 1, which one more edge joins.  The first split
        # takes both edges to 3 (the terminal flow does not use them) and
        # leaves 3 alone with a loop, so the next split's precondition
        # fails.  The split was checked, so it stays, with the flow
        # repaired through it.
        g = graph_from_pairs(4, [(2, 3), (2, 3), (2, 0), (2, 0), (2, 1), (2, 1), (0, 1)])
        before = g.copy()
        flows = [_max_flow(g, 0, 1, 2)[1]]
        steps = []
        with pytest.raises(PreconditionViolationError, match="connected"):
            _reduce_vertex(g, 2, steps, flows)
        assert [(step.e1, step.e2, step.child, step.removed) for step in steps] == \
            [(0, 1, 7, None)]
        replay = before.copy()
        for step in steps:
            step.apply(replay)
        assert replay == g and replay.next_edge_id == g.next_edge_id == 8
        assert len(flows) == 1 and is_flow(g, flows[0], 0, 1, 2)

    def test_isolate_even_nonterminal_raises_and_keeps_its_input(self):
        # Hub 2 meets the terminal 1 by a cut-edge, so its first split's
        # precondition fails with that message.
        g = graph_from_pairs(3, [(2, 0), (2, 0), (2, 0), (2, 1)])
        before = g.copy()
        with pytest.raises(PreconditionViolationError,
                           match="^vertex 2 is incident with a cut-edge$"):
            isolate_even_nonterminal(g, {0, 1}, 2)
        assert g == before and g.next_edge_id == before.next_edge_id == 4


class TestReduceInstance:
    def test_all_terminals_is_already_normal(self):
        g = doubled_triangle()
        rr = reduce_instance(g, {0, 1, 2}, 2)
        assert rr.form == "fkk"
        assert rr.graph == g
        assert len(rr.trace) == 0

    def test_empty_trace_skips_the_exit_connectivity_check(self, monkeypatch):
        # With no step taken the reduced graph is the input, which the
        # reducer's own capped flows measured: no terminal cut runs at all.
        calls = []
        counted = treepack.graphcore._terminal_cut

        def counting(*args):
            calls.append(1)
            return counted(*args)

        inst = generate("fkk", 9, 2, 5)
        monkeypatch.setattr(treepack.graphcore, "_terminal_cut", counting)
        rr = reduce_instance(inst.graph, inst.terminals, 3 * 2)
        assert len(calls) == 0
        assert (rr.graph, rr.terminals, len(rr.trace), rr.form) == \
            (inst.graph, inst.terminals, 0, "fkk")

    def test_normal_form_input_returns_at_once(self, monkeypatch):
        # fkk instances are generated in normal form: the reducer builds its
        # |T| - 1 capped flows, makes no edit, runs no exit recount, and
        # returns a copy with an empty trace.
        flows = []
        counted = treepack.graphcore._max_flow

        def counting(*args):
            flows.append(1)
            return counted(*args)

        instances = [generate("fkk", 11, 2, seed) for seed in (1, 2)]
        monkeypatch.setattr(treepack.graphcore, "_max_flow", counting)
        for inst in instances:
            before = len(flows)
            rr = reduce_instance(inst.graph, inst.terminals, 3 * 2)
            assert (rr.graph, len(rr.trace), rr.form) == (inst.graph, 0, "fkk")
            assert rr.graph is not inst.graph
            assert len(flows) - before == len(inst.terminals) - 1
        # one step off the normal form: the same flow per terminal other
        # than 0, then the exit recount's two
        g = doubled_triangle()
        g.add_edge(0, 0)
        before = len(flows)
        rr = reduce_instance(g, {0, 1, 2}, 2)
        assert (len(rr.trace), rr.form, len(flows) - before) == (1, "fkk", 4)

    def test_degree_four_nonterminal_eliminated_and_replayable(self):
        g = graph_from_pairs(3, [(2, 0), (2, 0), (2, 1), (2, 1)])
        rr = reduce_instance(g, {0, 1}, 2)
        assert rr.form == "fkk"
        assert sorted(rr.graph.edges.values()) == [(0, 1), (0, 1)]
        assert rr.trace.apply(g) == rr.graph
        assert rr.trace.unapply(rr.graph) == g

    def test_bipartite_normal_form_untouched(self):
        # every non-terminal has degree three and distinct terminal neighbors
        g = graph_from_pairs(4, [])
        for i, triple in enumerate([(0, 1, 2), (0, 1, 3), (1, 2, 3)]):
            hub = 4 + i
            g.add_vertex(hub)
            for t in triple:
                g.add_edge(hub, t)
        rr = reduce_instance(g, {0, 1, 2, 3}, 1)
        assert rr.form == "fkk"
        assert rr.graph == g

    def test_threshold_guarded_deletion(self):
        # two non-terminals joined to each other and doubly to terminals
        g = graph_from_pairs(4, [(2, 0), (2, 0), (3, 1), (3, 1), (2, 3), (2, 3)])
        rr = reduce_instance(g, {0, 1}, 2)
        assert steiner_connectivity(rr.graph, {0, 1}) >= 2
        assert rr.trace.unapply(rr.graph) == g

    def test_parallel_hub_splits_to_loops_then_cleanup(self):
        # all four hub edges point at one terminal, so splitting makes
        # loops there; the reducer must shed the loops and the hub
        g = graph_from_pairs(2, [(0, 1)] * 3)
        g.add_vertex(2)
        for _ in range(4):
            g.add_edge(2, 0)
        rr = reduce_instance(g, {0, 1}, 3)
        assert rr.form == "fkk"
        assert rr.graph.vertices == frozenset({0, 1})
        assert sorted(rr.graph.edges.values()) == [(0, 1)] * 3
        assert rr.trace.apply(g) == rr.graph
        assert rr.trace.unapply(rr.graph) == g

    def test_pendant_nonterminal_chain_pruned(self):
        # a dead branch of non-terminals hangs off terminal 0; no packing
        # can ever use it, and the reducer removes it entirely
        g = graph_from_pairs(2, [(0, 1)] * 4)
        g.add_vertex(2)
        g.add_vertex(3)
        g.add_edge(0, 2)
        g.add_edge(2, 3)
        rr = reduce_instance(g, {0, 1}, 4)
        assert rr.form == "fkk"
        assert rr.graph.vertices == frozenset({0, 1})
        assert rr.trace.unapply(rr.graph) == g

    def test_precondition_checked(self):
        with pytest.raises(InvalidArgumentError):
            reduce_instance(triangle(), {0, 1, 2}, 5)
        for terminals in ({0}, set()):
            with pytest.raises(InvalidArgumentError, match="at least two terminals"):
                reduce_instance(triangle(), terminals, 1)

    @pytest.mark.parametrize("make, threshold, connectivity", [
        (lambda: generated("fkk", 9, 2, 1), 9, 6),
        (lambda: (doubled_triangle(), {0, 1, 2}), 6, 4),
        (lambda: generated("kriesell", 11, 1, 3), 10, 8),
        (lambda: (graph_from_pairs(4, [(0, 1), (2, 3)] * 2), {0, 2}), 1, 0),
        (lambda: (graph_from_pairs(4, [(0, 1), (2, 3)] * 2), {0, 2}), 5, 0),
    ], ids=["fkk-n9-k2-seed1", "doubled-triangle", "kriesell-n11-k1-seed3",
            "terminals-apart-1", "terminals-apart-5"])
    def test_short_threshold_names_the_exact_connectivity(self, make, threshold,
                                                          connectivity):
        # The reducer's own flows, capped at the threshold, are its only
        # measure of λ_T: the smallest falls short of the cap exactly when
        # λ_T does, and then it is λ_T.
        g, terminals = make()
        assert steiner_connectivity(g, terminals) == connectivity
        before = g.copy()
        with pytest.raises(InvalidArgumentError) as err:
            reduce_instance(g, terminals, threshold)
        assert str(err.value) == (f"terminal connectivity {connectivity} "
                                  f"is below the threshold {threshold}")
        assert g == before

    def test_deletion_stranding_a_terminal_free_component_is_refused(self):
        # Terminals 0 and 1 share four edges (λ_T = 4, threshold 2, so
        # there is slack).  The non-terminal edge 2-3 is a bridge to the
        # terminal-free component {3, 4}: deleting it leaves every cut
        # between 0 and 1 intact but disconnects the graph, so the guard
        # refuses it until the far side has been pruned away.
        g = graph_from_pairs(5, [(0, 1)] * 4 + [(0, 2), (0, 2), (2, 3)] + [(3, 4)] * 3)
        rr = reduce_instance(g, {0, 1}, 2)
        replay = g.copy()
        for step in rr.trace.steps:
            step.apply(replay)
            # an isolated vertex is removed by the step that follows
            touched = {v for v in replay.vertices if replay.degree(v) > 0}
            assert touched <= replay._component_of(0), step
        assert replay == rr.graph
        assert sorted(rr.graph.edges.values()) == [(0, 1)] * 4
        assert rr.trace.unapply(rr.graph) == g

    def test_terminal_free_components_deleted_first(self):
        # Terminals 0 and 1 share three edges; {2, 3} (a bridge and a loop)
        # and the isolated vertex 4 hold no terminal.  Their edges and
        # vertices go first, logged, and the rest reduces as usual.
        g = graph_from_pairs(5, [(0, 1)] * 3 + [(2, 3), (3, 3)])
        rr = reduce_instance(g, {0, 1}, 3)
        assert rr.trace.steps[:5] == [
            treepack.graphcore.DeleteEdgeStep(edge=3, ends=(2, 3)),
            treepack.graphcore.DeleteEdgeStep(edge=4, ends=(3, 3)),
            treepack.graphcore.RemoveIsolatedStep(vertex=2),
            treepack.graphcore.RemoveIsolatedStep(vertex=3),
            treepack.graphcore.RemoveIsolatedStep(vertex=4),
        ]
        assert rr.form == "fkk" and rr.graph == graph_from_pairs(2, [(0, 1)] * 3)
        assert rr.trace.unapply(rr.graph) == g

    def test_kriesell_trace_is_pinned(self):
        # Deletions here have slack; accepting one that strands a
        # terminal-free component would change this trace (49 steps -> 48).
        inst = generate("kriesell", 11, 1, 20)
        rr = reduce_instance(inst.graph, inst.terminals, 3)
        tokens = []
        for step in rr.trace.steps:
            if isinstance(step, treepack.graphcore.DeleteEdgeStep):
                tokens.append(f"d{step.edge}")
            elif isinstance(step, treepack.graphcore.RemoveIsolatedStep):
                tokens.append(f"r{step.vertex}")
            else:
                tokens.append(f"s{step.center}:{step.e1},{step.e2}>{step.child}"
                              f"{'' if step.removed is None else '-'}")
        assert " ".join(tokens) == (
            "d0 d1 d2 d4 d5 d6 d8 d9 d10 d11 d12 d13 d15 d16 d17 d19 d20 d21 d22 "
            "d23 d24 d25 d26 d27 d29 d30 r4 d32 d33 d34 d36 d37 d38 d39 d44 d46 "
            "d47 r9 s1:7,14>48- s5:31,35>49- d3 r0 d18 r2 d28 r3 d45 r10 "
            "s7:40,43>50-")

    def test_guard_spends_slack_one_deletion_at_a_time(self):
        # λ_T = 9 at threshold 8: one unit of slack.  The first deletion at
        # hub 2 spends it; the second is checked exactly and kept (it does
        # not lower λ_T); a deletion at hub 3 would, and is refused.
        g = graph_from_pairs(4, [(0, 1)] * 5 + [(0, 2), (0, 2), (0, 3), (0, 3),
                                                (1, 2), (1, 2), (1, 3), (1, 3)])
        rr = reduce_instance(g, {0, 1}, 8)
        deleted = [step.edge for step in rr.trace.steps
                   if isinstance(step, treepack.graphcore.DeleteEdgeStep)]
        assert deleted == [5, 9]
        assert steiner_connectivity(rr.graph, {0, 1}) == 8

    def test_guard_runs_no_flow_while_slack_remains(self, monkeypatch):
        # λ_T = 7 at threshold 1: the reducer builds one flow for the one
        # terminal pair, which is also its entry check, and repairs it
        # through both parallel-edge deletions at the hub and the
        # suppression; besides it only the exit recount runs a flow.
        calls = []
        counted = treepack.graphcore._max_flow

        def counting(*args):
            calls.append(1)
            return counted(*args)

        g = graph_from_pairs(3, [(0, 1)] * 5 + [(0, 2), (0, 2), (1, 2), (1, 2)])
        monkeypatch.setattr(treepack.graphcore, "_max_flow", counting)
        rr = reduce_instance(g, {0, 1}, 1)
        kinds = [type(step).__name__ for step in rr.trace.steps]
        assert kinds == ["DeleteEdgeStep", "DeleteEdgeStep", "SplitStep"]
        assert len(calls) == 2

    def test_guard_runs_no_search_while_slack_remains(self, monkeypatch):
        # The graph of the test above: λ_T = 7 at threshold 1.  Nothing
        # searches the residual network: the reducer's flow and the exit
        # recount, capped at the threshold, are each done by their seeding
        # pass alone, and no edit drops a unit of that flow.
        searches = []
        route = treepack.graphcore._route

        def counted(*args):
            searches.append(1)
            return route(*args)

        g = graph_from_pairs(3, [(0, 1)] * 5 + [(0, 2), (0, 2), (1, 2), (1, 2)])
        monkeypatch.setattr(treepack.graphcore, "_route", counted)
        rr = reduce_instance(g, {0, 1}, 1)
        assert len(searches) == 0
        assert len(rr.trace) == 3 and steiner_connectivity(rr.graph, {0, 1}) == 6

    def test_flow_guard_matches_scalar_bound_reference(self):
        # The carried terminal flows decide every deletion exactly as one
        # scalar bound with full recounts does, and every split exactly as
        # a fresh terminal connectivity per candidate pair.
        # paper-g is capped at λ_T where the instance falls short of it.
        # Doubling a normal-form fkk instance makes every hub edge a
        # parallel deletion candidate.
        instances = []
        for n in range(9, 13):
            for k in (1, 2):
                for seed in range(3):
                    inst = generate_kriesell(n, k, seed)
                    paper_g = min(Thresholds.for_k(k).g_k, inst.connectivity)
                    instances += [(inst.graph, inst.terminals, t) for t in (2 * k, 3 * k, paper_g)]
        for n, k in ((8, 2), (9, 3), (11, 2)):
            for seed in range(3):
                inst = generate("fkk", n, k, seed)
                instances += [(inst.graph, inst.terminals, t) for t in (k, 2 * k, 3 * k)]
                if k == 2 and seed < 2:
                    doubled = _doubled(inst.graph.copy())
                    instances += [(doubled, inst.terminals, t) for t in (2 * k, 4 * k, 6 * k)]
        steps = deletions = 0
        for g, terminals, threshold in instances:
            rr = reduce_instance(g, terminals, threshold)
            graph, trace = reference_reduce_instance(g, terminals, threshold)
            assert rr.trace.steps == trace, (sorted(terminals), threshold)
            assert rr.graph == graph
            steps += len(trace)
            deletions += sum(isinstance(step, treepack.graphcore.DeleteEdgeStep)
                             for step in trace)
        assert steps >= 4000 and deletions >= 3000

    def test_guard_and_splits_stay_incremental(self, monkeypatch):
        # Kriesell n=11, k=1, seed 7 at threshold 8 (λ_T = 9, five
        # terminals, a 48-step trace).  The reduction makes 108 residual
        # searches, entry and exit recounts included, and builds no flow
        # tree.  Repairing the flows through each deletion on its own
        # rather than once per deletion pass made 129, a deletion guard
        # with its own flows and a flow tree per split vertex 257, flows
        # searched for every path and run to a failed search even when
        # only a bound was asked 721, and fresh flows for every tree and
        # every tight deletion 3,164.
        searches = []
        trees = []
        route = treepack.graphcore._route

        def counted(*args):
            searches.append(1)
            return route(*args)

        def no_tree(*args):
            trees.append(1)
            raise AssertionError("the reducer built a flow tree")

        inst = generate("kriesell", 11, 1, 7)
        monkeypatch.setattr(treepack.graphcore, "_route", counted)
        monkeypatch.setattr(treepack.graphcore, "_flow_tree", no_tree)
        rr = reduce_instance(inst.graph, inst.terminals, 8)
        assert (len(inst.terminals), inst.connectivity, len(rr.trace)) == (5, 9, 48)
        assert len(searches) == 108 and trees == []

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=3, max_value=7), st.integers(min_value=0, max_value=10_000))
    def test_kriesell_trace_replays_both_ways(self, n, seed):
        # threshold 8 keeps enough edges that plain splits occur alongside
        # suppressions, deletions and isolated-vertex removals
        inst = generate_kriesell(n, 1, seed)
        rr = reduce_instance(inst.graph, inst.terminals, min(8, inst.connectivity))
        assert rr.trace.apply(inst.graph) == rr.graph
        restored = rr.trace.unapply(rr.graph)
        assert restored == inst.graph
        # undoing a split hands its child's id back
        assert restored.next_edge_id == inst.graph.next_edge_id

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_instances_keep_connectivity_and_replay(self, seed):
        g = random_multigraph(seed, max_vertices=6, max_edges=10,
                              loops=False, connected=True)
        terminals = sorted(g.vertices)[:2]
        threshold = min(2, steiner_connectivity(g, terminals))
        rr = reduce_instance(g, terminals, threshold)
        assert steiner_connectivity(rr.graph, terminals) >= threshold
        assert rr.trace.apply(g) == rr.graph
        assert rr.trace.unapply(rr.graph) == g
        if rr.form == "fkk":
            tset = frozenset(terminals)
            for u in rr.graph.vertices - tset:
                assert rr.graph.degree(u) == 3
                assert rr.graph.neighbors(u) <= tset


def _tokens(steps):
    """A trace in short: d<edge>, r<vertex>, s<center>:<e1>,<e2>><child>,
    with a trailing - on a suppression."""
    tokens = []
    for step in steps:
        if isinstance(step, treepack.graphcore.DeleteEdgeStep):
            tokens.append(f"d{step.edge}")
        elif isinstance(step, treepack.graphcore.RemoveIsolatedStep):
            tokens.append(f"r{step.vertex}")
        else:
            tokens.append(f"s{step.center}:{step.e1},{step.e2}>{step.child}"
                          f"{'' if step.removed is None else '-'}")
    return " ".join(tokens)


class TestDeletionPass:
    """A deletion pass is checked once, and redone one deletion at a time
    when that check refuses it or it removed a vertex; a drain checks its
    splits' preconditions by one search kept up to date."""

    def test_per_edit_path_agrees_on_kriesell_draws(self):
        seen: Counter = Counter()
        for n in range(9, 15):
            for k in (1, 2):
                for seed in range(3):
                    inst = generate_kriesell(n, k, seed)
                    paper_g = min(Thresholds.for_k(k).g_k, inst.connectivity)
                    for threshold in (2 * k, 3 * k, paper_g):
                        seen += _per_edit_agrees(inst.graph, inst.terminals, threshold)
        assert seen["kept"] >= 10 and seen["refused"] >= 5 and seen["pruned"] >= 100, seen
        assert seen["drain checks"] >= 300, seen

    @staticmethod
    def _random_instances(seed):
        """A random multigraph with loops, every other vertex a terminal
        (all of them on three or fewer), at thresholds 1, λ_T - 1 and
        λ_T."""
        g = random_multigraph(seed, max_vertices=8, max_edges=18, loops=True,
                              connected=seed % 4 != 0)
        vertices = sorted(g.vertices)
        terminals = vertices[seed % 2::2] if len(vertices) > 3 else vertices
        connectivity = steiner_connectivity(g, terminals)
        return [(threshold, g, terminals)
                for threshold in sorted({1, max(connectivity - 1, 0), connectivity})]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_per_edit_path_agrees_on_random_multigraphs(self, seed):
        for threshold, g, terminals in self._random_instances(seed):
            _per_edit_agrees(g, terminals, threshold)

    def test_random_multigraphs_refuse_passes(self):
        # The inputs of the test above: some deletion passes there are
        # refused by their one check, and some removed a vertex.
        seen: Counter = Counter()
        for seed in range(150):
            for threshold, g, terminals in self._random_instances(seed):
                seen += _per_edit_agrees(g, terminals, threshold)
        assert seen["kept"] >= 40 and seen["refused"] >= 20 and seen["pruned"] >= 100, seen
        assert seen["drain checks"] >= 30, seen

    def test_pass_that_strands_then_prunes_falls_back(self):
        # Terminals 0 and 1 share four edges, and 4 joins them.  Unchecked,
        # the first pass deletes the edge 2-4 (6), which strands the
        # terminal-free pair {2, 3}, and then the edge 2-3 (7), which
        # prunes the pair: its final graph passes every check.  Since it
        # removed vertices, the pass is redone one deletion at a time,
        # which refuses 6 until a later pass has made 2 pendant.
        g = graph_from_pairs(5, [(0, 1)] * 4 + [(0, 4), (1, 4), (2, 4), (2, 3)])
        unchecked, _ = _deletions(g.copy(), frozenset({0, 1}), [], check_each=False)
        assert _tokens(unchecked) == "d6 d7 r2 r3"
        seen = _per_edit_agrees(g, {0, 1}, 2)
        assert (seen["pruned"], seen["kept"], seen["refused"]) == (2, 0, 0)
        rr = reduce_instance(g, {0, 1}, 2)
        assert _tokens(rr.trace.steps) == "d7 r3 d6 r2 s4:4,5>8-"
        assert rr.form == "fkk" and rr.trace.unapply(rr.graph) == g

    def test_one_refused_deletion_at_one_unit_of_slack(self):
        # λ_T = 5 at threshold 4.  Deleting 2 spends the slack, 4 keeps
        # λ_T, and deleting the edge 3-4 (8) would lower it to 3; the one
        # check of the pass refuses the three together, and the pass redone
        # one deletion at a time refuses only 8.
        g = graph_from_pairs(5, [(0, 1)] * 2 + [(0, 2)] * 2 + [(1, 2)] * 2
                             + [(0, 3), (1, 4), (3, 4)])
        assert steiner_connectivity(g, {0, 1}) == 5
        unchecked, _ = _deletions(g.copy(), frozenset({0, 1}), [], check_each=False)
        assert _tokens(unchecked) == "d2 d4 d8"
        seen = _per_edit_agrees(g, {0, 1}, 4)
        assert (seen["refused"], seen["pruned"]) == (1, 0)
        rr = reduce_instance(g, {0, 1}, 4)
        assert _tokens(rr.trace.steps) == "d2 d4 s2:3,5>9- s3:6,8>10- s4:7,10>11-"
        assert steiner_connectivity(rr.graph, {0, 1}) == 4 and rr.form == "fkk"

    def test_drain_meets_cut_edge_after_its_first_split(self):
        # Hub 2 has three edges into {3, 4} and three into {0, 1}.  The
        # first split takes both edges to 3 (the terminal flow uses
        # neither) and leaves one edge into {3, 4}, a cut-edge: the kept
        # count says so, with the message of a fresh search, and the
        # split made stays, with the flow repaired through it.
        g = graph_from_pairs(5, [(2, 3), (2, 3), (2, 4), (3, 4),
                                 (2, 0), (2, 0), (2, 1), (0, 1)])
        before = g.copy()
        flows = [_max_flow(g, 0, 1, 2)[1]]
        steps = []
        message = "^vertex 2 is incident with a cut-edge$"
        with pytest.raises(PreconditionViolationError, match=message):
            _reduce_vertex(g, 2, steps, flows)
        assert [(step.e1, step.e2, step.child, step.removed) for step in steps] == \
            [(0, 1, 8, None)]
        with pytest.raises(PreconditionViolationError, match=message):
            _split_candidates(g, 2)
        replay = before.copy()
        for step in steps:
            step.apply(replay)
        assert replay == g and g.degree(2) == 4
        assert len(flows) == 1 and is_flow(g, flows[0], 0, 1, 2)

    def test_deletion_passes_repair_once(self, monkeypatch):
        # Kriesell n=11, k=1, seed 7 at threshold 3: three deletion
        # passes.  The first deletes 44 edges and is checked whole, the
        # second deletes one edge and prunes the vertex 3, so it is redone
        # with that deletion checked on its own, and the third deletes
        # nothing.  One `_repair` each for the two that delete, where one
        # per deletion made 45.
        inst = generate("kriesell", 11, 1, 7)
        events = _spy(monkeypatch, "_deletion_pass", "_repair", "_split_trial")
        rr = reduce_instance(inst.graph, inst.terminals, 3)
        kinds = Counter(type(step).__name__ for step in rr.trace.steps)
        assert kinds == {"DeleteEdgeStep": 45, "SplitStep": 4, "RemoveIsolatedStep": 1}
        assert events.count("_deletion_pass") == 3
        assert events.count("_repair") - events.count("_split_trial") == 2


class TestInstanceFormat:
    def test_round_trip(self):
        g = doubled_triangle()
        text = serialize_instance(g, {0, 1})
        g2, t2 = parse_instance(text)
        assert g2 == g and t2 == frozenset({0, 1})
        assert serialize_instance(g2, t2) == text
        # Blank lines and '#' comments may stand anywhere, around the header too.
        noisy = serialize_instance(g, {0, 1}, ["by hand"]).replace("\n", "\n\n  # note\n")
        assert parse_instance(noisy) == (g, frozenset({0, 1}))

    def test_duplicate_edge_id_rejected_with_line(self):
        text = "graph 2 2\nt 0\nt 1\ne 0 0 1\ne 0 0 1\n"
        with pytest.raises(InstanceParseError) as err:
            parse_instance(text)
        assert err.value.line_number == 5

    def test_malformed_line_rejected(self):
        with pytest.raises(InstanceParseError):
            parse_instance("graph 1 0\nv zero\n")
        # int() would read these as 10, 3 and 3
        for token in ("1_0", "+3", "\u0663"):
            with pytest.raises(InstanceParseError) as err:
                parse_instance(f"graph 2 1\nt 0\nt 1\ne 0 0 {token}\n")
            assert err.value.line_number == 4

    def test_header_mismatch_rejected(self):
        with pytest.raises(InstanceParseError):
            parse_instance("graph 3 1\ne 0 0 1\n")

    def test_comments_ignored(self):
        g, t = parse_instance("# hello\ngraph 2 1\nt 0\nt 1\ne 4 0 1\n")
        assert g.edges == {4: (0, 1)} and t == frozenset({0, 1})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.data())
    def test_round_trip_property(self, seed, data):
        g = random_multigraph(seed, max_vertices=6, max_edges=10)
        terminals = data.draw(st.frozensets(st.sampled_from(sorted(g.vertices))))
        text = serialize_instance(g, terminals)
        g2, t2 = parse_instance(text)
        assert g2 == g and t2 == terminals
        assert serialize_instance(g2, t2) == text

    def test_negative_edge_id_rejected(self):
        with pytest.raises(InstanceParseError) as err:
            parse_instance("graph 2 1\nt 0\nt 1\ne -1 0 1\n")
        assert err.value.line_number == 4
