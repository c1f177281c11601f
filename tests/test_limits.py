"""Enumeration capacity caps: constants in treepack.limits.

Each cap is read at call time, so a test lowers one by patching the
module attribute."""

import pytest

from treepack import CapacityError, brute_force_pack, pack_steiner_trees
from treepack import limits
from conftest import doubled_triangle, graph_from_pairs


def hub_instance():
    """K4 on the terminals 0..3 plus two degree-3 hubs, on {0, 1, 2} and
    {1, 2, 3}: 12 edges, whose reduced hypergraph has no 3 disjoint bases."""
    g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    for hub, triple in ((4, (0, 1, 2)), (5, (1, 2, 3))):
        g.add_vertex(hub)
        for t in triple:
            g.add_edge(hub, t)
    return g


def lower_every_cap_to_3(monkeypatch):
    for name in ("SUBSET_ELEMENTS", "PARTITION_VERTICES", "BRUTE_EDGES", "BRUTE_PARTS"):
        monkeypatch.setattr(limits, name, 3)


class TestEffectiveCaps:
    def test_lowered_cap_rejects_brute_force(self, monkeypatch):
        monkeypatch.setattr(limits, "BRUTE_EDGES", 4)
        g = doubled_triangle()  # six edges
        with pytest.raises(CapacityError) as err:
            brute_force_pack(g, None, 2, "spanning")
        assert err.value.bound == 4 and err.value.requested == 6

    def test_capacity_error_names_bound(self):
        g = graph_from_pairs(2, [(0, 1)] * 17)
        with pytest.raises(CapacityError) as err:
            brute_force_pack(g, None, 1, "spanning")
        assert err.value.bound_name == "brute-edges"

    def test_environment_sets_no_cap(self, monkeypatch):
        # The caps are constants: a TREEPACK_CAPACITY in the environment
        # lowers none of them.
        monkeypatch.setenv("TREEPACK_CAPACITY", "4")
        res = brute_force_pack(doubled_triangle(), None, 2, "spanning")
        assert res.packing is not None and len(res.packing.parts) == 2


class TestBruteFallbackCaps:
    def test_fallback_runs_within_its_caps_and_is_skipped_above(self, monkeypatch):
        # The pipeline's search fails, so the exhaustive search decides
        # within its caps; above them it is skipped, not an error.
        g = hub_instance()
        rescued = pack_steiner_trees(g, {0, 1, 2, 3}, 3, threshold=1, brute_fallback=True)
        assert rescued.outcome == "packed" and rescued.method == "brute-force"
        lower_every_cap_to_3(monkeypatch)
        skipped = pack_steiner_trees(g, {0, 1, 2, 3}, 3, threshold=1, brute_fallback=True)
        assert skipped.outcome == "certificate"
        assert skipped.certificate.kind == "violating-partition"


class TestCliCapacityExit:
    def test_hypergraph_certificate_needs_no_cap(self, monkeypatch, tmp_path, capsys):
        # A reduced hypergraph with 3-vertex hyperedges on four terminals.
        # Its certificate is read off the failed packing search like a
        # spanning-tree one, so even with every cap forced to 3 it is
        # produced, and its counts survive a recount.
        from treepack import serialize_instance
        from treepack.cli import main
        lower_every_cap_to_3(monkeypatch)
        g = hub_instance()
        path = tmp_path / "fkk.txt"
        path.write_text(serialize_instance(g, {0, 1, 2, 3}), encoding="utf-8")
        code = main(["pack", str(path), "--mode", "steiner", "--k", "3",
                     "--threshold", "1"])
        report = dict(line.split(" ", 1)
                      for line in capsys.readouterr().out.splitlines())
        assert code == 1
        assert report["certificate_kind"] == "violating-partition"
        assert report["certificate_scope"] == "reduced-hypergraph"
        blocks = [{int(v) for v in b.split(",")}
                  for b in report["certificate_partition"].split("|")]
        assert sorted(v for b in blocks for v in b) == [0, 1, 2, 3]
        block_of = {v: i for i, b in enumerate(blocks) for v in b}
        hyperedges = [(u, v) for u, v in g.edges.values() if max(u, v) < 4]
        hyperedges += [(0, 1, 2), (1, 2, 3)]  # the two hubs
        crossing = sum(len({block_of[v] for v in ends}) > 1 for ends in hyperedges)
        bound = 3 * (len(blocks) - 1)
        assert int(report["certificate_lambda_out"]) == crossing
        assert int(report["certificate_bound"]) == bound
        assert crossing < bound

    def test_spanning_certificate_needs_no_cap(self, monkeypatch, tmp_path, capsys):
        # C5 has no two disjoint spanning trees.  Its certificate is read
        # off the failed packing search, so even with every cap forced to 3
        # it is produced, and its counts survive a recount.
        from treepack import serialize_instance
        from treepack.cli import main
        lower_every_cap_to_3(monkeypatch)
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        g = graph_from_pairs(5, pairs)
        path = tmp_path / "c5.txt"
        path.write_text(serialize_instance(g, {0, 1, 2, 3, 4}), encoding="utf-8")
        code = main(["pack", str(path), "--mode", "spanning", "--k", "2"])
        report = dict(line.split(" ", 1)
                      for line in capsys.readouterr().out.splitlines())
        assert code == 1
        assert report["certificate_kind"] == "violating-partition"
        blocks = [{int(v) for v in b.split(",")}
                  for b in report["certificate_partition"].split("|")]
        assert sorted(v for b in blocks for v in b) == list(range(5))
        block_of = {v: i for i, b in enumerate(blocks) for v in b}
        crossing = sum(block_of[u] != block_of[v] for u, v in pairs)
        bound = 2 * (len(blocks) - 1)
        assert int(report["certificate_lambda_out"]) == crossing
        assert int(report["certificate_bound"]) == bound
        assert crossing < bound
