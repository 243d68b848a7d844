import json
import subprocess
import sys

import numpy as np
import pytest

from sepkit import bench, cli, debugcheck
from sepkit.approx_minor import approx_largest_clique_minor
from sepkit.bench import rows_deterministic_view, run_bench
from sepkit.certificates import certificate_to_json
from sepkit.cli import main
from sepkit.generators import generate_graph
from sepkit.graph import load_graph
from sepkit.minorfree import balanced_separator, minor_free_separator
from sepkit.shallow import shallow_separator, shallow_separator_balanced
from sepkit.tradeoff import linear_time_separator, tradeoff_separator


def run_cli(args, stdin=None):
    proc = subprocess.run([sys.executable, "-m", "sepkit.cli"] + args,
                          capture_output=True, text=True, input=stdin)
    return proc


class TestGen:
    def test_grid_counts(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["gen", "grid 3", "--out", str(out)]) == 0
        from sepkit.graph import load_graph

        g = load_graph(out.read_text())
        assert g.n == 9 and g.m == 12

    def test_path(self):
        g = generate_graph("path 5")
        assert g.n == 5 and g.m == 4

    def test_roundtrip_dimacs(self, tmp_path):
        out = tmp_path / "g.col"
        assert main(["gen", "grid 4", "--format", "dimacs", "--out", str(out)]) == 0
        from sepkit.graph import load_graph

        g = load_graph(out.read_text(), fmt="dimacs")
        assert g.n == 16 and g.m == 24

    def test_unknown_generator(self):
        assert main(["gen", "dodecahedron 5"]) == 2


class TestRunCommands:
    @pytest.fixture()
    def grid_file(self, tmp_path):
        p = tmp_path / "grid.txt"
        main(["gen", "grid 8", "--out", str(p)])
        return p

    def test_shallow_exit_separator(self, grid_file, tmp_path):
        cert = tmp_path / "c.json"
        code = main(["shallow", str(grid_file), "--h", "5", "--out", str(cert)])
        assert code == 0
        doc = json.loads(cert.read_text())
        assert doc["kind"] == "separator"
        assert main(["verify", str(grid_file), str(cert)]) == 0

    def test_witness_exit_code(self, tmp_path):
        from sepkit.graph import Graph, dump_graph

        k5 = tmp_path / "k5.txt"
        k5.write_text(dump_graph(Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])))
        cert = tmp_path / "w.json"
        assert main(["shallow", str(k5), "--h", "5", "--out", str(cert)]) == 10
        assert json.loads(cert.read_text())["kind"] == "minor_witness"

    def test_report_exit_code(self, tmp_path):
        from sepkit.graph import Graph, dump_graph

        k12 = tmp_path / "k12.txt"
        k12.write_text(dump_graph(Graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])))
        code = main(["shallow", str(k12), "--h", "5", "--out", str(tmp_path / "r.json")])
        assert code in (10, 11)

    def test_minorfree_and_tradeoff(self, grid_file, tmp_path):
        assert main(["minorfree", str(grid_file), "--h", "5",
                     "--out", str(tmp_path / "m.json")]) == 0
        assert main(["tradeoff", str(grid_file), "--h", "5", "--delta", "0.8",
                     "--out", str(tmp_path / "t.json")]) == 0

    def test_approx_minor(self, grid_file, tmp_path):
        assert main(["approx-minor", str(grid_file), "--out", str(tmp_path / "a.json")]) == 10

    def test_approx_minor_failed_verification_writes_certificate(self, grid_file, tmp_path,
                                                                 monkeypatch):
        from sepkit.approx_minor import ApproxMinorResult
        from sepkit.certificates import MinorWitness
        # vertices 0 and 9 of the 8x8 grid are not adjacent: no K2
        bad = MinorWitness(branch_sets=[np.array([0]), np.array([9])], depth_bound=0)
        monkeypatch.setattr(bench, "approx_largest_clique_minor",
                            lambda *args: ApproxMinorResult(witness=bad, h_found=2,
                                                            ratio_claim={"value": 1.0}))
        out = tmp_path / "a.json"
        assert main(["approx-minor", str(grid_file), "--out", str(out)]) == cli.EXIT_VERIFY == 3
        doc = json.loads(out.read_text())
        assert doc["kind"] == "minor_witness" and doc["branch_sets"] == [[0], [9]]

    def test_cluster_dump(self, grid_file, tmp_path):
        out = tmp_path / "cl.json"
        code = main(["cluster", str(grid_file), "--h", "4", "--r", "16",
                     "--cr", "0.05", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["clusters"] and doc["level1"]

    @pytest.mark.parametrize("side", [6, 30])
    @pytest.mark.parametrize("flags,message", [
        (["--eps", "0", "--debug-assert"], "eps must be in (0, 1]"),
        (["--eps", "-0.5", "--debug-assert"], "eps must be in (0, 1]"),
        (["--eps", "0"], "eps must be in (0, 1]"),
        (["--eps", "7"], "eps must be in (0, 1]"),
        (["--cr", "nan"], "c_r must be finite"),
        (["--cr", "-3"], "c_r must be finite"),
    ])
    def test_cluster_rejects_eps_and_c_r(self, tmp_path, capsys, side, flags, message):
        # before the check, eps 0 died in the decay check's 4 / eps and a
        # negative eps failed that check; on grid 6 eps 0 and 7 exited 0
        p = tmp_path / "grid.txt"
        main(["gen", f"grid {side}", "--out", str(p)])
        capsys.readouterr()
        code = main(["cluster", str(p), "--h", "5", "--r", "10", "--cr", "0.05"] + flags)
        assert code == cli.EXIT_USAGE == 2
        assert message in capsys.readouterr().err

    def test_minorfree_rejects_nan_c_r(self, grid_file, capsys):
        assert main(["minorfree", str(grid_file), "--h", "5", "--cr", "nan"]) == 2
        assert "c_r must be finite" in capsys.readouterr().err

    def test_cluster_dump_ignores_seed(self, grid_file, tmp_path):
        # the nested clustering is deterministic: --seed is accepted but unread
        dumps = []
        for seed in ("0", "7"):
            out = tmp_path / f"cl{seed}.json"
            assert main(["cluster", str(grid_file), "--h", "4", "--r", "16", "--cr", "0.05",
                         "--seed", seed, "--out", str(out)]) == 0
            dumps.append(out.read_bytes())
        assert dumps[0] == dumps[1]

    def test_cluster_minor_side_finishes_with_report(self, tmp_path):
        # a K40 hung off the middle of a path: a lazy split of the nested
        # clustering meets the clique and hands back its density report
        from sepkit.graph import Graph, dump_graph

        edges = [(i, i + 1) for i in range(299)] + [(150, 300)]
        edges += [(300 + i, 300 + j) for i in range(40) for j in range(i + 1, 40)]
        gfile, cert = tmp_path / "g.txt", tmp_path / "r.json"
        gfile.write_text(dump_graph(Graph(340, edges)))
        assert main(["cluster", str(gfile), "--h", "5", "--r", "1000",
                     "--out", str(cert)]) == cli.EXIT_REPORT == 11
        doc = json.loads(cert.read_text())
        assert doc["kind"] == "minor_report"
        assert (doc["certificate"]["n"], doc["certificate"]["m"]) == (145, 885)
        assert main(["verify", str(gfile), str(cert)]) == 0

    def test_verify_rejects_bare_density_kind(self, grid_file, tmp_path):
        doc = {"kind": "density", "n": 64, "m": 112, "h": 3, "threshold": 63,
               "policy": "mader-proven"}
        (tmp_path / "d.json").write_text(json.dumps(doc))
        assert main(["verify", str(grid_file), str(tmp_path / "d.json")]) == 2

    def test_verify_detects_corruption(self, grid_file, tmp_path):
        cert = tmp_path / "c.json"
        main(["shallow", str(grid_file), "--h", "5", "--out", str(cert)])
        doc = json.loads(cert.read_text())
        assert doc["A"], "expected a nonempty A side on the grid"
        doc["A"] = doc["A"][1:]  # drop a vertex: no longer a partition
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert main(["verify", str(grid_file), str(tmp_path / "bad.json")]) == 3

    def test_verify_rejects_forged_balance(self, grid_file, tmp_path):
        # every vertex on side A, accepted only by the certificate's balance_c
        doc = {"kind": "separator", "C": [], "A": list(range(64)), "B": [],
               "balance_c": [1, 1], "claimed_bound": None, "params": {}}
        (tmp_path / "forged.json").write_text(json.dumps(doc))
        assert main(["verify", str(grid_file), str(tmp_path / "forged.json")]) == 3

    def test_verify_rejects_repeated_ids(self, tmp_path):
        # the repeats of 1 and 3 leave {0}, {1}, {2, 3} a valid separator as sets
        path4 = tmp_path / "p4.txt"
        main(["gen", "path 4", "--out", str(path4)])
        doc = {"kind": "separator", "C": [1, 1], "A": [0], "B": [2, 3, 3],
               "balance_c": [2, 3], "claimed_bound": None, "params": {}}
        (tmp_path / "rep.json").write_text(json.dumps(doc))
        assert main(["verify", str(path4), str(tmp_path / "rep.json")]) == 3

    # each certificate is accepted (or crashes the verifier) if its ids are
    # cast with int(): 0.7 and 1.2 as {0},{1}, true as vertex 1
    @pytest.mark.parametrize("doc, field", [
        ({"kind": "minor_witness", "h": 2, "branch_sets": [[0.7], [1.2]], "depth_bound": None,
          "connecting_edges": {}, "params": {}}, "branch_sets[0] holds 0.7"),
        ({"kind": "separator", "C": [True, 5, 9, 13], "A": [0, 4, 8, 12],
          "B": [2, 3, 6, 7, 10, 11, 14, 15], "balance_c": [2, 3], "claimed_bound": None,
          "params": {}}, "C holds true"),
        ({"kind": "minor_witness", "h": 2, "branch_sets": [[0], [1]], "depth_bound": None,
          "connecting_edges": {"0,1": [0.5, 1]}, "params": {}},
         "connecting_edges['0,1'] holds 0.5"),
    ], ids=["float-branch-set", "bool-in-C", "float-connecting-edge"])
    def test_verify_rejects_non_integer_ids(self, tmp_path, capsys, doc, field):
        grid4 = tmp_path / "grid4.txt"
        main(["gen", "grid 4", "--out", str(grid4)])
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["verify", str(grid4), str(tmp_path / "c.json")]) == 2
        assert f"certificate field {field}, not an integer vertex id" in capsys.readouterr().err

    # a document of the wrong shape is a usage error naming what is wrong,
    # not a traceback
    @pytest.mark.parametrize("doc, message", [
        ({"kind": "separator"}, "certificate field balance_c is missing"),
        ([], "certificate document is not a JSON object"),
        ({"kind": "minor_report", "certificate": {"n": 1}, "params": {}},
         "certificate field certificate.m is missing"),
        ({"kind": "minor_witness", "h": 2, "branch_sets": [[0], [1]],
          "connecting_edges": [[0, 1]]},
         "certificate field connecting_edges is not a JSON object"),
        ({"kind": "minor_witness", "h": 2, "branch_sets": [[0], [1]],
          "connecting_edges": {"0,x": [0, 1]}},
         "certificate field connecting_edges has key '0,x', not an \"i,j\" integer pair"),
        ({"kind": "minor_witness", "h": 2, "branch_sets": [[0], [1]],
          "connecting_edges": {"0,1": [0, 1, 2]}},
         "certificate field connecting_edges['0,1'] is not a pair of vertex ids"),
    ], ids=["separator-without-fields", "list", "report-without-m", "edges-as-list",
            "edge-key-not-integer", "edge-not-a-pair"])
    def test_verify_rejects_malformed_document(self, tmp_path, capsys, doc, message):
        grid4 = tmp_path / "grid4.txt"
        main(["gen", "grid 4", "--out", str(grid4)])
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["verify", str(grid4), str(tmp_path / "c.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    # bounds and report counts are JSON integers (bounds may be null); a
    # string there ended in a TypeError traceback and exit 1
    @pytest.mark.parametrize("doc, field", [
        ({"kind": "separator", "C": [1, 5, 9, 13], "A": [0, 4, 8, 12],
          "B": [2, 3, 6, 7, 10, 11, 14, 15], "balance_c": [2, 3], "claimed_bound": "x",
          "params": {}}, "claimed_bound holds \"x\""),
        ({"kind": "minor_witness", "h": 2, "branch_sets": [[0], [1]], "depth_bound": "x",
          "connecting_edges": {}, "params": {}}, "depth_bound holds \"x\""),
        ({"kind": "minor_report", "certificate": {"n": 16, "m": 24, "h": "5", "threshold": 1,
                                                  "policy": "mader-proven"}, "params": {}},
         "certificate.h holds \"5\""),
    ], ids=["string-claimed-bound", "string-depth-bound", "string-report-h"])
    def test_verify_rejects_non_integer_numbers(self, tmp_path, capsys, doc, field):
        grid4 = tmp_path / "grid4.txt"
        main(["gen", "grid 4", "--out", str(grid4)])
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["verify", str(grid4), str(tmp_path / "c.json")]) == 2
        assert capsys.readouterr().err == f"error: certificate field {field}, not an integer\n"

    def test_verify_refuses_report_h_above_n_at_once(self, tmp_path, capsys):
        # no graph on 16 vertices has a K_h minor for h > 16; the mader-proven
        # threshold 2^(h-2) n / 2 is not computed for such an h
        import time

        grid4 = tmp_path / "grid4.txt"
        main(["gen", "grid 4", "--out", str(grid4)])
        doc = {"kind": "minor_report", "certificate": {"n": 16, "m": 24, "h": 2_000_000_000,
                                                       "threshold": 1, "policy": "mader-proven"},
               "params": {}}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        t0 = time.perf_counter()
        assert main(["verify", str(grid4), str(tmp_path / "c.json")]) == 3
        assert time.perf_counter() - t0 < 1.0
        assert "report.h" in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["shallow", "/nonexistent/file", "--h", "4"]) == 2

    @pytest.mark.parametrize("text, fmt, message", [
        ("0 99999999999\n", "edge-list", "vertex id out of int32 range"),
        ("w 0 99999999999999999999\n", "edge-list", "vertex weight exceeds 64-bit range"),
        ("p edge x 1\n", "dimacs", "problem line has non-integer field"),
        ("e a b\n", "dimacs", "edge line has non-integer field"),
        ("e 1 3\np edge 2 1\n", "dimacs", "edge mentions vertex 3 > declared n=2"),
        ("w 0 9223372036854775807\n0 1\n", "edge-list",
         "sum of vertex weights exceeds 64-bit range"),
    ])
    def test_input_error_names_the_line(self, tmp_path, capsys, text, fmt, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["shallow", str(bad), "--h", "5", "--format", fmt]) == 2
        assert capsys.readouterr().err == f"input error: line 1: {message}\n"


class TestLibraryParity:
    """Each solving subcommand writes the bytes of the library call it names;
    the flags differ from their defaults so that a dropped one shows."""

    @pytest.fixture(scope="class")
    def grid16(self, tmp_path_factory):
        p = tmp_path_factory.mktemp("parity") / "grid16.txt"
        main(["gen", "grid 16", "--out", str(p)])
        return p

    @pytest.mark.parametrize("args, call", [
        (["shallow", "--h", "5", "--eps", "0.4", "--seed", "3"],
         lambda g: shallow_separator_balanced(g, 5, 0.4, 3)),
        (["shallow", "--h", "5", "--ell", "3", "--eps", "0.4", "--seed", "3"],
         lambda g: shallow_separator(g, 5, 3, 0.4, 3)),
        # at h = 4 both minorfree runs take the bootstrapped path only at this C_r
        (["minorfree", "--h", "4", "--cr", "0.05", "--seed", "2"],
         lambda g: balanced_separator(g, 4, 0.5, 2, c_r=0.05)),
        (["minorfree", "--h", "4", "--ell", "2", "--cr", "0.05", "--seed", "2"],
         lambda g: minor_free_separator(g, 4, 2, 0.5, 2, c_r=0.05)),
        (["tradeoff", "--h", "5", "--delta", "0.85", "--seed", "1"],
         lambda g: tradeoff_separator(g, 5, 0.85, 0.5, 1)),
        (["linear", "--h", "5", "--eps", "0.4", "--seed", "1"],
         lambda g: linear_time_separator(g, 5, 0.4, 1)),
        (["approx-minor", "--eps", "0.4", "--seed", "2"],
         lambda g: approx_largest_clique_minor(g, 0.4, 2).witness),
    ], ids=["shallow-balanced", "shallow", "minorfree-balanced", "minorfree", "tradeoff",
            "linear", "approx-minor"])
    def test_same_bytes_as_library(self, grid16, tmp_path, args, call):
        cert = tmp_path / "c.json"
        assert main([args[0], str(grid16), *args[1:], "--out", str(cert)]) in (0, 10, 11)
        g = load_graph(grid16.read_text())
        assert cert.read_text() == certificate_to_json(call(g))


class TestInternalErrors:
    @pytest.fixture()
    def grid_file(self, tmp_path):
        p = tmp_path / "grid.txt"
        main(["gen", "grid 4", "--out", str(p)])
        return p

    def _raise_with(self, monkeypatch, exc):
        def boom(*args, **kwargs):
            assert debugcheck.enabled()
            raise exc

        monkeypatch.setattr(bench, "shallow_separator_balanced", boom)

    def test_invariant_violation_exit_code(self, grid_file, monkeypatch, capsys):
        self._raise_with(monkeypatch, debugcheck.InvariantViolation("shallow.cut-boundary", "x"))
        code = main(["shallow", str(grid_file), "--h", "5", "--debug-assert"])
        assert code == cli.EXIT_INTERNAL == 4
        assert "shallow.cut-boundary" in capsys.readouterr().err
        assert not debugcheck.enabled()

    def test_runtime_error_exit_code(self, grid_file, monkeypatch, capsys):
        self._raise_with(monkeypatch, RuntimeError("bidirectional search balls met"))
        code = main(["shallow", str(grid_file), "--h", "5", "--debug-assert"])
        assert code == cli.EXIT_INTERNAL
        assert "balls met" in capsys.readouterr().err
        assert not debugcheck.enabled()


class TestBench:
    def test_empty_suite(self):
        rep = run_bench({"instances": [], "algorithms": []})
        assert rep["rows"] == [] and rep["slopes"] == {}

    def test_small_suite_and_determinism(self):
        suite = {
            "instances": [{"gen": "grid 8", "seed": 1}, {"gen": "path 40", "seed": 2}],
            "algorithms": [{"name": "shallow-balanced", "h": 4, "seed": 3}],
        }
        rep1 = run_bench(suite)
        rep2 = run_bench(suite)
        assert rows_deterministic_view(rep1["rows"]) == rows_deterministic_view(rep2["rows"])
        assert len(rep1["rows"]) == 2

    def test_verification_gate(self):
        # certificates are re-verified; a passing suite has verified rows only
        suite = {
            "instances": [{"gen": "grid 8", "seed": 1}],
            "algorithms": [{"name": "tradeoff", "h": 4, "delta": 0.8}],
        }
        rep = run_bench(suite, verify=True)
        assert rep["rows"][0]["kind"] in ("separator", "minor-witness", "minor-report")

    def test_slope_fit(self):
        suite = {
            "instances": [{"gen": "grid 8", "seed": 1}, {"gen": "grid 16", "seed": 1}],
            "algorithms": [{"name": "shallow-balanced", "h": 4}],
        }
        rep = run_bench(suite)
        assert "shallow-balanced" in rep["slopes"]
