"""Tests of the benchmark itself: contract, tiny-scale smoke runs, trace safety.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, tracing, workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result_doc(workload: str, trace: int, seed: int = 7) -> dict:
    path = ROOT / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}-tiny.json"
    return json.loads(path.read_text())


def test_spec_matches_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert m["unit"] == tracing.unit_of(m["name"]), m


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_smoke_emits_every_metric_and_tracing_keeps_certificates(workload):
    untraced, traced = _run(workload, 0), _run(workload, 1)
    for proc, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    assert "failed_frac" in untraced.stdout
    # certificates are byte-identical in a process that never installed the
    # wrappers and in one that ran with them installed
    doc0, doc1 = _result_doc(workload, 0), _result_doc(workload, 1)
    assert doc0["digest"] == doc1["digest"] == doc1["traced_digest"]
    assert doc0["digest_repeats"] and doc1["traced_mismatches"] == 0
    assert {i["input"] for i in doc0["instances"]} == {
        i.input.key for i in wl.instances(workload, "tiny")}
    assert "trace.overhead_s" in doc1["per_layer"] and doc1["environment"]["nproc"] >= 1


def test_inputs_follow_the_seed():
    inp = wl.Input("random-regular 60 3")
    assert wl.generate_text(inp, 3) == wl.generate_text(inp, 3)
    assert wl.generate_text(inp, 3)[0] != wl.generate_text(inp, 4)[0]
    weighted = wl.Input("grid 6", pareto=True)
    assert wl.generate_text(weighted, 3)[0] != wl.generate_text(weighted, 4)[0]


def test_gate_counts_bad_instances_and_continues():
    from sepkit.generators import grid_graph

    g = grid_graph(8)
    rec = harness.Pass()
    wrong_kind = wl.Instance("k", wl.Input("grid 8"), "shallow-balanced", wl.WITNESS, wl.H5)
    raises = wl.Instance("x", wl.Input("grid 8"), "shallow-balanced", wl.SEPARATOR,
                         {"h": 1, "eps": 0.5})
    good = wl.Instance("ok", wl.Input("grid 8"), "shallow-balanced", wl.SEPARATOR, wl.H5)
    for inst in (wrong_kind, raises, good):
        harness.run_instance(inst, g, rec)
    assert (rec.attempted, rec.failed) == (3, 2)
    assert [f["why"] for f in rec.failures] == ["kind", "exception"]
    assert rec.certs[0] == rec.certs[1] == "" and rec.certs[2].startswith('{"A"')


def test_uninstall_restores_sepkit():
    import sepkit
    import sepkit.shallow
    from scipy.sparse import csgraph

    before = (sepkit.shallow.shallow_separator, sepkit.shallow_separator_balanced,
              sepkit.graph.Graph.__init__, csgraph.dijkstra, sepkit.shallow.csr_matrix)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sepkit.shallow.shallow_separator is not before[0]
        assert sepkit.shallow_separator_balanced is not before[1]
    finally:
        tracer.uninstall()
    after = (sepkit.shallow.shallow_separator, sepkit.shallow_separator_balanced,
             sepkit.graph.Graph.__init__, csgraph.dijkstra, sepkit.shallow.csr_matrix)
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("grid-sep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
