"""Command-line behavior: reports, exit codes, files, determinism."""

import pytest

from treepack import parse_instance, parse_packing, reduce_instance, verify_packing
from treepack.cli import main
from conftest import c4, doubled_triangle, graph_from_pairs
from treepack import serialize_instance


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_timings(report: str) -> str:
    return "\n".join(line for line in report.splitlines()
                     if not line.startswith("time_"))


@pytest.fixture
def doubled_triangle_file(tmp_path):
    path = tmp_path / "dt.txt"
    path.write_text(serialize_instance(doubled_triangle(), {0, 1, 2}), encoding="utf-8")
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(serialize_instance(c4(), {0, 1, 2, 3}), encoding="utf-8")
    return str(path)


class TestVerifyCuts:
    def test_doubled_triangle_passes_nwt_k1(self, capsys, doubled_triangle_file):
        code, out = run_cli(capsys, "verify-cuts", doubled_triangle_file,
                            "--k", "1", "--threshold", "nwt")
        assert code == 0
        assert "steiner_connectivity 4" in out
        assert "result pass" in out

    def test_c4_fails_nwt_k2(self, capsys, c4_file):
        code, out = run_cli(capsys, "verify-cuts", c4_file,
                            "--k", "2", "--threshold", "nwt")
        assert code == 1
        assert "result fail" in out

    def test_duplicate_edge_id_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("graph 2 2\nt 0\nt 1\ne 0 0 1\ne 0 0 1\n", encoding="utf-8")
        code, _ = run_cli(capsys, "verify-cuts", str(path), "--k", "1")
        assert code == 2

    def test_vertex_declared_twice_exits_2(self, capsys, tmp_path):
        # 'v 1' then 't 1' once made vertex 1 a terminal without a word.
        path = tmp_path / "bad.txt"
        path.write_text("graph 2 1\nv 1\nt 0\nt 1\ne 0 0 1\n", encoding="utf-8")
        for command in (["verify-cuts", str(path), "--k", "1"],
                        ["pack", str(path), "--mode", "steiner", "--k", "1"]):
            code = main(command)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert "line 4" in captured.err and "vertex 1 declared twice" in captured.err

    def test_malformed_integer_threshold_exits_2(self, capsys, doubled_triangle_file):
        for token in ("1_0", "+1", "\u0663"):
            code = main(["verify-cuts", doubled_triangle_file,
                         "--k", "1", "--threshold", token])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert f"unknown threshold {token!r}" in captured.err

    def test_missing_file_exits_2(self, capsys):
        code, _ = run_cli(capsys, "verify-cuts", "/nonexistent", "--k", "1")
        assert code == 2

    def test_unreadable_instance_exits_2(self, capsys, tmp_path):
        # Exit 1 means a sound negative, so no read failure may end there.
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("# caf\u00e9\ngraph 0 0\n".encode("latin-1"))
        for path in (tmp_path, bad):
            code = main(["verify-cuts", str(path), "--k", "1"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.startswith("error ")


class TestPack:
    def test_spanning_success_writes_packing(self, capsys, doubled_triangle_file,
                                             tmp_path):
        out_path = tmp_path / "p.txt"
        code, out = run_cli(capsys, "pack", doubled_triangle_file,
                            "--mode", "spanning", "--k", "2", "--out", str(out_path))
        assert code == 0
        assert "outcome packed" in out and "verified yes" in out
        packing = parse_packing(out_path.read_text(encoding="utf-8"))
        with open(doubled_triangle_file, encoding="utf-8") as handle:
            g, _ = parse_instance(handle.read())
        assert verify_packing(g, None, packing).ok

    def test_c4_spanning_certificate(self, capsys, c4_file):
        code, out = run_cli(capsys, "pack", c4_file, "--mode", "spanning", "--k", "2")
        assert code == 1
        assert "outcome certificate" in out
        assert "certificate_kind violating-partition" in out
        assert "certificate_partition 0|1|2|3" in out

    def test_long_cycle_spanning_certificate(self, capsys, tmp_path):
        # A 20-cycle is beyond every partition and subset cap; the
        # certificate comes from the failed packing search.
        g = graph_from_pairs(20, [(v, (v + 1) % 20) for v in range(20)])
        path = tmp_path / "c20.txt"
        path.write_text(serialize_instance(g, set(range(20))), encoding="utf-8")
        code, out = run_cli(capsys, "pack", str(path), "--mode", "spanning", "--k", "2")
        assert code == 1
        assert "certificate_kind violating-partition" in out
        assert "certificate_lambda_out 20" in out
        assert "certificate_bound 38" in out

    def test_steiner_on_generated_normal_form(self, capsys, tmp_path):
        inst = tmp_path / "fkk.txt"
        code, _ = run_cli(capsys, "gen", "fkk", "--n", "4", "--k", "1",
                          "--seed", "5", "--out", str(inst))
        assert code == 0
        out_path = tmp_path / "p.txt"
        code, out = run_cli(capsys, "pack", str(inst), "--mode", "steiner",
                            "--k", "1", "--threshold", "fkk", "--out", str(out_path))
        assert code == 0
        g, terminals = parse_instance(inst.read_text(encoding="utf-8"))
        packing = parse_packing(out_path.read_text(encoding="utf-8"))
        assert verify_packing(g, terminals, packing).ok

    def test_terminal_free_component_does_not_block_packing(self, capsys, tmp_path):
        # An isolated non-terminal used to read as terminal connectivity 0,
        # a cut-too-small certificate with an empty side.
        inst = tmp_path / "fkk.txt"
        run_cli(capsys, "gen", "fkk", "--n", "6", "--k", "2", "--seed", "3",
                "--out", str(inst))
        g, terminals = parse_instance(inst.read_text(encoding="utf-8"))
        g.add_vertex(99)
        inst.write_text(serialize_instance(g, terminals), encoding="utf-8")
        code, out = run_cli(capsys, "verify-cuts", str(inst), "--k", "2",
                            "--threshold", "fkk")
        assert code == 0 and "result pass" in out
        out_path = tmp_path / "p.txt"
        code, out = run_cli(capsys, "pack", str(inst), "--mode", "steiner", "--k", "2",
                            "--threshold", "fkk", "--out", str(out_path))
        assert code == 0 and "outcome packed" in out
        packing = parse_packing(out_path.read_text(encoding="utf-8"))
        assert verify_packing(g, terminals, packing).ok

    def test_cut_too_small_certificate(self, capsys, c4_file):
        code, out = run_cli(capsys, "pack", c4_file, "--mode", "steiner", "--k", "2")
        assert code == 1
        assert "certificate_kind cut-too-small" in out

    def test_connectivity_at_the_cap_is_a_bound(self, capsys, tmp_path):
        # λ_T = 14 here.  pack measures it only up to max(threshold, 3k),
        # and at that cap reports a lower bound; below it, the exact value.
        # verify-cuts always reports it exactly.
        inst = str(tmp_path / "k.txt")
        run_cli(capsys, "gen", "kriesell", "--n", "9", "--k", "1", "--seed", "3",
                "--out", inst)
        code, out = run_cli(capsys, "pack", inst, "--mode", "connector", "--k", "1",
                            "--threshold", "8")
        assert code == 0 and "steiner_connectivity >=8" in out.splitlines()
        code, out = run_cli(capsys, "pack", inst, "--mode", "connector", "--k", "1",
                            "--threshold", "15")
        assert code == 1 and "steiner_connectivity 14" in out.splitlines()
        code, out = run_cli(capsys, "verify-cuts", inst, "--k", "1", "--threshold", "8")
        assert code == 0 and "steiner_connectivity 14" in out.splitlines()

    def test_connector_mode_end_to_end(self, capsys, tmp_path):
        inst = tmp_path / "k.txt"
        run_cli(capsys, "gen", "kriesell", "--n", "3", "--k", "1", "--seed", "2",
                "--out", str(inst))
        out_path = tmp_path / "c.txt"
        code, out = run_cli(capsys, "pack", str(inst), "--mode", "connector",
                            "--k", "1", "--threshold", "paper-g",
                            "--brute-fallback", "--out", str(out_path))
        g, terminals = parse_instance(inst.read_text(encoding="utf-8"))
        if code == 0:
            packing = parse_packing(out_path.read_text(encoding="utf-8"))
            assert packing.mode == "connector"
            assert verify_packing(g, terminals, packing).ok
        else:
            assert "certificate_kind" in out

    def test_reduction_incomplete_certificate(self, capsys, tmp_path):
        # Non-terminals 4 and 5 are adjacent, so the reduction stalls off
        # the normal form, and without the fallback the partly reduced
        # graph (here the input) is the certificate.
        g = graph_from_pairs(6, [(0, 4), (1, 4), (4, 5), (5, 2), (5, 3)])
        path = tmp_path / "h.txt"
        path.write_text(serialize_instance(g, {0, 1, 2, 3}), encoding="utf-8")
        code, out = run_cli(capsys, "pack", str(path), "--mode", "connector",
                            "--k", "1", "--threshold", "1")
        assert code == 1
        lines = out.splitlines()
        for line in ("outcome certificate", "certificate_kind reduction-incomplete",
                     "certificate_reduced_form partial", "certificate_reduced_edges 5",
                     "certificate_reduced_vertices 6"):
            assert line in lines

    def test_packing_printed_when_no_out_file(self, capsys, doubled_triangle_file):
        code, out = run_cli(capsys, "pack", doubled_triangle_file,
                            "--mode", "spanning", "--k", "2")
        assert code == 0
        assert "packing spanning 2" in out


class TestGen:
    def test_malformed_integer_options_exit_2(self, capsys):
        good = {"--n": "5", "--k": "1", "--seed": "3"}
        for option in good:
            for token in ("1_0", "+1", "\u0663"):
                argv = ["gen", "nwt"]
                for name, value in good.items():
                    argv += [name, token if name == option else value]
                with pytest.raises(SystemExit) as exit_info:
                    main(argv)
                assert exit_info.value.code == 2
                err = capsys.readouterr().err
                assert f"argument {option}: expected an integer" in err

    def test_determinism_bitwise(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli(capsys, "gen", "nwt", "--n", "5", "--k", "2", "--seed", "7",
                "--out", str(a))
        run_cli(capsys, "gen", "nwt", "--n", "5", "--k", "2", "--seed", "7",
                "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_instance(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli(capsys, "gen", "nwt", "--n", "5", "--k", "2", "--seed", "1",
                "--out", str(a))
        run_cli(capsys, "gen", "nwt", "--n", "5", "--k", "2", "--seed", "2",
                "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_fkk_output_is_already_reduced(self, capsys, tmp_path):
        for seed in (0, 1, 2):
            inst = tmp_path / f"f{seed}.txt"
            run_cli(capsys, "gen", "fkk", "--n", "4", "--k", "1",
                    "--seed", str(seed), "--out", str(inst))
            g, terminals = parse_instance(inst.read_text(encoding="utf-8"))
            rr = reduce_instance(g, terminals, 3)
            assert rr.form == "fkk"
            assert rr.graph == g and len(rr.trace) == 0

    def test_kriesell_header_records_connectivity(self, capsys, tmp_path):
        inst = tmp_path / "k.txt"
        run_cli(capsys, "gen", "kriesell", "--n", "3", "--k", "1",
                "--seed", "4", "--out", str(inst))
        text = inst.read_text(encoding="utf-8")
        header = [l for l in text.splitlines() if l.startswith("#")]
        joined = " ".join(header)
        assert "connectivity=" in joined and "target=8" in joined
        value = int(joined.split("connectivity=")[1].split()[0])
        assert value >= 8

    def test_kriesell_instances_are_connected(self, capsys, tmp_path):
        # At these seeds an earlier draw has every terminal in one
        # component and a vertex apart; it is retried, as it was when
        # such a graph read terminal connectivity 0.
        inst = tmp_path / "k.txt"
        for n, seed in ((7, 16), (9, 2), (10, 7)):
            run_cli(capsys, "gen", "kriesell", "--n", str(n), "--k", "1",
                    "--seed", str(seed), "--out", str(inst))
            g, _ = parse_instance(inst.read_text(encoding="utf-8"))
            assert g.is_connected(), (n, seed)

    def test_parse_round_trip_of_generated_instances(self, capsys, tmp_path):
        for model, n in (("nwt", 4), ("fkk", 4), ("kriesell", 3)):
            inst = tmp_path / f"{model}.txt"
            run_cli(capsys, "gen", model, "--n", str(n), "--k", "1",
                    "--seed", "9", "--out", str(inst))
            text = inst.read_text(encoding="utf-8")
            g, terminals = parse_instance(text)
            comments = [l[2:] for l in text.splitlines() if l.startswith("#")]
            assert serialize_instance(g, terminals, comments=comments) == text


class TestSweep:
    def test_nwt_sweep_all_packed(self, capsys):
        code, out = run_cli(capsys, "sweep", "nwt", "--n", "3:4", "--k", "1:2",
                            "--seeds", "0:3", "--threshold", "nwt")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("model\tn\tk")
        for row in lines[1:]:
            fields = row.split("\t")
            assert fields[3] == "-"  # spanning trees take no threshold
            assert fields[5] == fields[4]  # packed == seeds
            assert fields[9] == fields[8]  # brute agrees wherever checked
            # method_pipeline + method_brute + method_trivial == packed
            assert sum(map(int, fields[10:13])) == int(fields[5])

    def test_missing_seed_list_exits_2(self, capsys):
        # A sweep over no seeds would print a header and no rows.
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "nwt", "--n", "3", "--k", "1"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--seeds" in captured.err

    def test_reversed_or_malformed_range_exits_2(self, capsys):
        for n in ("5:2", "3:", "1_0", "+3", "+1", "\u0663"):
            code, out = run_cli(capsys, "sweep", "nwt", "--n", n, "--k", "1",
                                "--seeds", "1:3")
            assert code == 2 and out == ""

    def test_kriesell_sweep_all_packed_at_tree_threshold(self, capsys):
        code, out = run_cli(capsys, "sweep", "kriesell", "--n", "3", "--k", "1",
                            "--seeds", "0:4", "--threshold", "paper-f")
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            fields = row.split("\t")
            assert fields[5] == fields[4]  # every seed packed

    def test_certificates_counted(self, capsys):
        code, out = run_cli(capsys, "sweep", "fkk", "--n", "3", "--k", "1",
                            "--seeds", "0:2", "--threshold", "99")
        assert code == 0
        header, row = out.strip().splitlines()
        columns = dict(zip(header.split("\t"), row.split("\t")))
        assert (columns["seeds"], columns["packed"], columns["certificates"],
                columns["infeasible"]) == ("3", "0", "3", "0")

    def test_sweep_deterministic(self, capsys):
        _, first = run_cli(capsys, "sweep", "fkk", "--n", "3:4", "--k", "1",
                           "--seeds", "0:2", "--threshold", "fkk")
        _, second = run_cli(capsys, "sweep", "fkk", "--n", "3:4", "--k", "1",
                            "--seeds", "0:2", "--threshold", "fkk")
        assert first == second


class TestReportDeterminism:
    def test_pack_reports_identical_modulo_timings(self, capsys,
                                                   doubled_triangle_file, tmp_path):
        out1 = tmp_path / "p1.txt"
        out2 = tmp_path / "p2.txt"
        _, r1 = run_cli(capsys, "pack", doubled_triangle_file, "--mode", "spanning",
                        "--k", "2", "--out", str(out1))
        _, r2 = run_cli(capsys, "pack", doubled_triangle_file, "--mode", "spanning",
                        "--k", "2", "--out", str(out2))
        assert strip_timings(r1).replace(str(out1), "X") == \
            strip_timings(r2).replace(str(out2), "X")
        assert out1.read_bytes() == out2.read_bytes()
