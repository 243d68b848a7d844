import json
import subprocess
import sys

import pytest

from sepkit import cli, debugcheck
from sepkit.bench import rows_deterministic_view, run_bench
from sepkit.cli import main
from sepkit.generators import generate_graph


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
        from sepkit.graph import VertexSet

        # vertices 0 and 9 of the 8x8 grid are not adjacent: no K2
        bad = MinorWitness(branch_sets=[VertexSet([0]), VertexSet([9])], depth_bound=0)
        monkeypatch.setattr(cli, "approx_largest_clique_minor",
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

        monkeypatch.setattr(cli, "shallow_separator_balanced", boom)

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
