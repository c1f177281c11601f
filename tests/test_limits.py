"""Capacity caps and the TREEPACK_CAPACITY override."""

import pytest

from treepack import CapacityError, brute_force_pack
from treepack import limits
from conftest import doubled_triangle, graph_from_pairs


class TestEffectiveCaps:
    def test_defaults_apply_without_env(self, monkeypatch):
        monkeypatch.delenv("TREEPACK_CAPACITY", raising=False)
        assert limits.effective(limits.BRUTE_EDGES) == 16
        assert limits.effective(limits.SUBSET_ELEMENTS) == 18

    def test_env_lowers_cap(self, monkeypatch):
        monkeypatch.setenv("TREEPACK_CAPACITY", "4")
        assert limits.effective(limits.BRUTE_EDGES) == 4
        assert limits.effective(limits.PARTITION_VERTICES) == 4

    def test_env_never_raises_cap(self, monkeypatch):
        monkeypatch.setenv("TREEPACK_CAPACITY", "999")
        assert limits.effective(limits.BRUTE_EDGES) == 16

    def test_garbage_env_ignored(self, monkeypatch):
        # int() would read "+3", "1_0", "\u0663" and " 5 " as 3, 10, 3 and 5
        for raw in ("lots", "+3", "1_0", "\u0663", " 5 ", "5.0", "", "-1"):
            monkeypatch.setenv("TREEPACK_CAPACITY", raw)
            assert limits.effective(limits.BRUTE_EDGES) == 16, raw
            assert limits.effective(limits.PARTITION_VERTICES) == 10, raw

    def test_lowered_cap_rejects_brute_force(self, monkeypatch):
        monkeypatch.setenv("TREEPACK_CAPACITY", "4")
        g = doubled_triangle()  # six edges
        with pytest.raises(CapacityError) as err:
            brute_force_pack(g, None, 2, "spanning")
        assert err.value.bound == 4 and err.value.requested == 6

    def test_capacity_error_names_bound(self):
        g = graph_from_pairs(2, [(0, 1)] * 17)
        with pytest.raises(CapacityError) as err:
            brute_force_pack(g, None, 1, "spanning")
        assert err.value.bound_name == "brute-edges"


class TestCliCapacityExit:
    def test_hypergraph_certificate_needs_no_cap(self, monkeypatch, tmp_path, capsys):
        # A reduced hypergraph with 3-vertex hyperedges on four terminals.
        # Its certificate is read off the failed packing search like a
        # spanning-tree one, so even with every cap forced to 3 it is
        # produced, and its counts survive a recount.
        from treepack import serialize_instance
        from treepack.cli import main
        monkeypatch.setenv("TREEPACK_CAPACITY", "3")
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
        for hub, triple in ((4, (0, 1, 2)), (5, (1, 2, 3))):
            g.add_vertex(hub)
            for t in triple:
                g.add_edge(hub, t)
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
        monkeypatch.setenv("TREEPACK_CAPACITY", "3")
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
