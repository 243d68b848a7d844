"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The grid-scaling runs are
shared across criteria through module-scoped fixtures; everything is seeded,
so certificates and decisions are reproducible.
"""

import math
import random
import time

import numpy as np
import pytest
from scipy.sparse import csgraph

from sepkit import debugcheck
from sepkit.certificates import (
    MinorReport,
    MinorWitness,
    Separator,
    brute_force_min_separator,
    brute_force_minor_detect,
    verify_output,
)
from sepkit.clustering import ActiveState, NestedClustering, _ClusterDyn, nested_r_clustering
from sepkit.ddg import build_ddg, ddg_path
from sepkit.generators import (
    binary_tree_graph,
    grid_graph,
    kh_blowup_graph,
    path_graph,
    planted_minor_graph,
    random_regular_graph,
    torus_graph,
)
from sepkit.graph import Graph, connected_components, induced_subgraph
from sepkit.minorfree import balanced_separator
from sepkit.shallow import ln_ceil, shallow_separator_balanced
from sepkit.spanner import build_spanner, stretch_check
from sepkit.tradeoff import tradeoff_separator
from test_certificate_hashes import CASES as HASH_CASES

H_GRID = 5
C_R = 0.05   # clustering range constant for the bootstrapped runs (see ledger)
SUITE_START = time.time()


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def small_random_graphs(count: int, nmax: int, seed: int, connected_only: bool):
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        n = rnd.randrange(2, nmax + 1)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = rnd.randrange(0 if not connected_only else max(1, n - 1), len(pairs) + 1)
        g = Graph(n, rnd.sample(pairs, m))
        if connected_only and len(connected_components(g)) != 1:
            continue
        out.append(g)
    return out


@pytest.fixture(scope="module")
def grid_runs():
    """Timed shallow/bootstrapped/trade-off runs on the grid suite."""
    runs = {"shallow": {}, "minorfree": {}, "tradeoff": {}}
    for k in (32, 64, 128, 256):
        g = grid_graph(k)
        t0 = time.perf_counter()
        out = shallow_separator_balanced(g, H_GRID, 0.5, seed=0)
        dt = time.perf_counter() - t0
        assert isinstance(out, Separator) and verify_output(g, out).ok
        runs["shallow"][k] = (out, dt, g)
        t0 = time.perf_counter()
        out = balanced_separator(g, H_GRID, 0.5, seed=0, c_r=C_R)
        dt = time.perf_counter() - t0
        assert isinstance(out, Separator) and verify_output(g, out).ok
        assert out.params["algorithm"] == "minorfree-balanced"
        runs["minorfree"][k] = (out, dt, g)
        if k >= 64:
            t0 = time.perf_counter()
            out = tradeoff_separator(g, H_GRID, 0.8, 0.5, seed=0)
            dt = time.perf_counter() - t0
            assert isinstance(out, Separator) and verify_output(g, out).ok
            runs["tradeoff"][k] = (out, dt, g)
    return runs


@pytest.fixture(scope="module")
def small_corpus():
    return small_random_graphs(220, 12, seed=101, connected_only=True)


def corpus_instances():
    """Generator corpus for the soundness sweep (>= 500 instances)."""
    insts = []
    for k in range(3, 21):
        insts.append((f"grid {k}", grid_graph(k)))
    for k in (24, 28, 32, 40):
        insts.append((f"grid {k}", grid_graph(k)))
    for k in (6, 8, 10, 12):
        insts.append((f"torus {k}", torus_graph(k)))
    for n in list(range(2, 50, 3)) + [80, 120, 200, 400, 1000]:
        insts.append((f"path {n}", path_graph(n)))
    for d in range(1, 11):
        insts.append((f"binary-tree {d}", binary_tree_graph(d)))
    for seed, (n, d) in enumerate([(8, 2), (12, 3), (16, 4), (20, 5), (24, 6),
                                   (40, 3), (60, 4), (80, 5), (100, 6), (150, 4),
                                   (200, 6), (300, 4)]):
        insts.append((f"random-regular {n} {d}", random_regular_graph(n, d, seed=seed)))
    for seed, (n, h) in enumerate([(30, 3), (60, 4), (100, 5), (150, 5), (200, 6),
                                   (300, 5)]):
        insts.append((f"planted-minor {n} {h}", planted_minor_graph(n, h, seed=seed)[0]))
    for seed, (h, blow) in enumerate([(3, 10), (4, 15), (5, 20), (6, 30), (5, 40),
                                      (6, 60)]):
        insts.append((f"kh-blowup {h} {blow}", kh_blowup_graph(h, blow, seed=seed)))
    for n in range(2, 13):
        insts.append((f"K{n}", Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])))
    for i, g in enumerate(small_random_graphs(420, 12, seed=77, connected_only=False)):
        insts.append((f"small-random-{i}", g))
    return insts


class TestCriterion1Soundness:
    def test_corpus_soundness(self, grid_runs):
        t_start = time.time()
        insts = corpus_instances()
        total_outputs = 0
        for name, g in insts:
            algos = [("shallow-balanced",
                      lambda g, h: shallow_separator_balanced(g, h, 0.5, seed=3))]
            if g.n <= 3000:
                algos.append(("minorfree-balanced",
                              lambda g, h: balanced_separator(g, h, 0.5, seed=3, c_r=C_R)))
            if g.n <= 5000:
                algos.append(("tradeoff",
                              lambda g, h: tradeoff_separator(g, h, 0.8, 0.5, seed=3)))
            for algo_name, fn in algos:
                for h in (3, 5):
                    out = fn(g, h)
                    rep = verify_output(g, out)
                    assert rep.ok, (name, algo_name, h, rep.violations)
                    total_outputs += 1
        # the timed grid-suite runs are part of the corpus and already verified
        big = sum(len(v) for v in grid_runs.values())
        elapsed = time.time() - t_start
        ok = len(insts) + 4 >= 500 and elapsed < 1800
        _report(1, ok, f"{len(insts)} corpus instances + {big} grid-suite runs, "
                       f"{total_outputs + big} outputs verified clean, {elapsed:.0f}s")
        assert len(insts) + big >= 500
        assert elapsed < 1800

    def test_approx_minor_outputs_verify(self):
        for name, g in [("grid 12", grid_graph(12)), ("blowup", kh_blowup_graph(4, 12, seed=1)),
                        ("tree", binary_tree_graph(6)), ("torus 8", torus_graph(8))]:
            from sepkit.approx_minor import approx_largest_clique_minor

            res = approx_largest_clique_minor(g, 0.5, seed=2)
            assert verify_output(g, res.witness).ok, name


class TestCriterion2OracleSeparators:
    def test_small_graph_agreement(self, small_corpus):
        checked = 0
        for i, g in enumerate(small_corpus):
            for h in (3, 4):
                for fn in (lambda g: shallow_separator_balanced(g, h, 0.5, seed=i),
                           lambda g: balanced_separator(g, h, 0.5, seed=i)):
                    out = fn(g)
                    rep = verify_output(g, out)
                    assert rep.ok, (i, h, rep.violations)
                    if isinstance(out, Separator):
                        opt = brute_force_min_separator(g)
                        assert opt is not None
                        assert len(out.C) >= len(opt.C), (i, h)
                    else:
                        # minor side must never contradict proven K_h-freeness
                        if g.n <= 10 and h <= 4:
                            assert brute_force_minor_detect(g, h) is not None, (i, h)
                    checked += 1
        _report(2, True, f"{checked} small-instance runs: separators never below the "
                         f"brute-force optimum; no minor side on oracle-proven K_h-free inputs")


class TestCriterion3OracleMinors:
    def test_witnesses_confirmed(self, small_corpus):
        confirmed = 0
        for i, g in enumerate(small_corpus):
            if g.n > 10:
                continue
            for h in (3, 4):
                for fn in (lambda g: shallow_separator_balanced(g, h, 0.5, seed=i),
                           lambda g: balanced_separator(g, h, 0.5, seed=i)):
                    out = fn(g)
                    if isinstance(out, MinorWitness):
                        assert verify_output(g, out).ok
                        assert brute_force_minor_detect(g, h) is not None, (i, h)
                        confirmed += 1
        _report(3, True, f"{confirmed} emitted witnesses all confirmed by the exact oracle")
        assert confirmed > 0


class TestCriterion4ShallowScaling:
    def test_cor1_bound(self, grid_runs):
        cs = {}
        for k, (out, _, g) in grid_runs["shallow"].items():
            n = g.n
            cs[k] = len(out.C) / (H_GRID * math.sqrt(n * ln_ceil(n)))
        base = cs[32]
        drift_ok = all(cs[k] <= 1.25 * base for k in (64, 128, 256))
        detail = ", ".join(f"k={k}: c={cs[k]:.3f}" for k in sorted(cs))
        _report(4, drift_ok, f"|C| <= c*h*sqrt(n ln n) with c calibrated at k=32: {detail}")
        assert drift_ok


class TestCriterion5BootstrappedScaling:
    def test_cor2_bound(self, grid_runs):
        cs = {}
        for k, (out, _, g) in grid_runs["minorfree"].items():
            n = g.n
            ell = max(1, math.ceil(math.sqrt(n) / (H_GRID * math.sqrt(ln_ceil(n)))))
            cs[k] = len(out.C) / (ell * H_GRID * H_GRID * ln_ceil(n))
        base = cs[32]
        drift_ok = all(cs[k] <= 1.25 * base for k in (64, 128, 256))
        detail = ", ".join(f"k={k}: c={cs[k]:.3f}" for k in sorted(cs))
        _report(5, drift_ok, f"|C| <= c*ell*h^2*ln n at ell=ceil(sqrt n/(h sqrt ln n)): {detail}")
        assert drift_ok


class TestCriterion6TradeoffScaling:
    Q_POLYLOG = 0.5  # recorded exponent: bound c * n^(4/5) * (ln n)^0.5

    def test_tradeoff_bound(self, grid_runs):
        cs = {}
        for k, (out, _, g) in grid_runs["tradeoff"].items():
            n = g.n
            cs[k] = len(out.C) / (n ** 0.8 * ln_ceil(n) ** self.Q_POLYLOG)
        base = cs[64]
        drift_ok = all(cs[k] <= 1.25 * base for k in (128, 256))
        detail = ", ".join(f"k={k}: c={cs[k]:.3f}" for k in sorted(cs))
        _report(6, drift_ok, f"|C| <= c*n^0.8*(ln n)^{self.Q_POLYLOG} (q recorded at "
                             f"calibration): {detail}")
        assert drift_ok


class TestCriterion7Invariants:
    def test_debug_mode_corpus(self):
        """Structural invariants assert with zero violations in debug mode."""
        debugcheck.enable(True)
        try:
            cases = [grid_graph(8), grid_graph(16), grid_graph(24), grid_graph(32),
                     path_graph(400), path_graph(2500), binary_tree_graph(8),
                     torus_graph(10), random_regular_graph(100, 4, seed=3),
                     random_regular_graph(200, 6, seed=4),
                     planted_minor_graph(150, 5, seed=2)[0],
                     kh_blowup_graph(5, 30, seed=2)]
            # inputs on which the shallow loop labels components
            cases += [HASH_CASES[name][0]() for name in (
                "shallow-balanced light low component", "shallow-balanced zero-weight grid",
                "shallow tied components ell=5")]
            runs = 0
            for g in cases:
                for h in (3, 5):
                    for fn in (lambda g: shallow_separator_balanced(g, h, 0.5, seed=7),
                               lambda g: balanced_separator(g, h, 0.5, seed=7, c_r=C_R),
                               lambda g: tradeoff_separator(g, h, 0.8, 0.5, seed=7)):
                        out = fn(g)
                        assert verify_output(g, out).ok
                        runs += 1
        finally:
            debugcheck.enable(False)
        _report(7, True, f"{runs} debug-mode runs: partition/branch-set invariants, "
                         f"cut expansion conditions (both directions), ball "
                         f"disjointness, antichain postconditions - zero violations")


class TestCriterion8ExactSubalgorithms:
    def test_ddg_vs_floyd_warshall(self):
        pairs_checked = 0
        corpora = [(grid_graph(10), 25, 4), (path_graph(60), 12, 3)]
        rnd = random.Random(5)
        n = 40
        edges = {(i, rnd.randrange(i)) for i in range(1, n)}
        while len(edges) < 70:
            a, b = rnd.randrange(n), rnd.randrange(n)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        corpora.append((Graph(n, sorted(edges)), 16, 4))
        for g, r, h in corpora:
            nc = nested_r_clustering(g, r, h, 0.5, c_r=C_R)
            assert isinstance(nc, NestedClustering)
            nc.materialize_all()
            for c in nc.clusters:
                if c.n > 100 or len(c.boundary) < 2:
                    continue
                ddg = build_ddg(_ClusterDyn(g, c))
                bnd = ddg.boundary.tolist()
                for i, u in enumerate(bnd):
                    for j, v in enumerate(bnd):
                        if i >= j:
                            continue
                        keep = [x for x in c.vertices.tolist()
                                if x not in set(bnd) - {u, v}]
                        subm = {x: li for li, x in enumerate(keep)}
                        eu, ev = [], []
                        for e in c.edges.tolist():
                            a, b = int(g.edge_u[e]), int(g.edge_v[e])
                            if a in subm and b in subm:
                                eu.append(subm[a])
                                ev.append(subm[b])
                        sub = Graph(len(keep), list(zip(eu, ev)))
                        d = csgraph.floyd_warshall(sub.csr())
                        exp = d[subm[u], subm[v]]
                        expected = int(exp) if np.isfinite(exp) else -1
                        assert ddg.dist[i, j] == expected, (c.id, u, v)
                        if expected >= 0:
                            p = ddg_path(ddg, u, v)
                            assert len(p) - 1 == expected
                        pairs_checked += 1
        _report(8, True, f"DDG = Floyd-Warshall on {pairs_checked} boundary pairs; "
                         f"see companion checks for spanner stretch and decompose")
        assert pairs_checked > 200

    def test_spanner_stretch_exhaustive_upto_200(self):
        insts = [random_regular_graph(200, 6, seed=9), grid_graph(14),
                 kh_blowup_graph(5, 30, seed=3)]
        rnd = random.Random(5)
        n = 120
        edges = set()
        while len(edges) < 900:
            a, b = rnd.randrange(n), rnd.randrange(n)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        insts.append(Graph(n, sorted(edges), edge_weight=[rnd.randrange(1, 9)
                                                          for _ in range(900)]))
        for g in insts:
            assert g.n <= 200
            for k in (2, 3):
                sp = build_spanner(g, k, seed=4)
                ratio, infp = stretch_check(g, sp, "all")
                assert infp == 0 and ratio <= 2 * k - 1, (g.n, k, ratio)

    def test_decompose_vs_bfs_100_flip_sequences(self):
        g = grid_graph(10)
        nc = nested_r_clustering(g, 20, 4, 0.5, c_r=C_R)
        assert isinstance(nc, NestedClustering)
        rnd = random.Random(13)
        from sepkit.clustering import decompose_active_complement

        for trial in range(100):
            st = ActiveState(nc)
            seq = rnd.sample(range(g.n), rnd.randrange(4, 16))
            on = []
            for v in seq:
                st.set_vertex_state(v, "active")
                on.append(v)
                if rnd.random() < 0.25 and on:
                    off = on.pop(rnd.randrange(len(on)))
                    st.set_vertex_state(off, "passive")
            comps = decompose_active_complement(st)
            pb = set()
            for cid in st.cx:
                c = nc.cluster(cid)
                for b in c.boundary.tolist():
                    if not st.active[b]:
                        pb.add(b)
            sub, mapping = induced_subgraph(g, np.flatnonzero(~st.active))
            back = {v: k for k, v in mapping.items()}
            expected = []
            for comp in connected_components(sub):
                glob = sorted(back[v] for v in comp)
                if any(v in pb for v in glob):
                    expected.append((glob[0], len(glob)))
            expected.sort()
            got = []
            for members, w, cnt in comps:
                vs = set()
                for cid, idx in members:
                    vs.update(st.dyn[cid].xclusters[idx].vertices.tolist())
                assert w == sum(int(g.vertex_weight[v]) for v in vs)
                got.append((min(vs), cnt))
            got.sort()
            assert got == expected, trial


class TestCriterion9TimeExponent:
    def test_slope_separation(self, grid_runs):
        xs, ys_sh, ys_mf = [], [], []
        for k in (32, 64, 128, 256):
            n = k * k
            xs.append(math.log(n))
            ys_sh.append(math.log(max(grid_runs["shallow"][k][1], 1e-9)))
            ys_mf.append(math.log(max(grid_runs["minorfree"][k][1], 1e-9)))
        slope_sh = float(np.polyfit(xs, ys_sh, 1)[0])
        slope_mf = float(np.polyfit(xs, ys_mf, 1)[0])
        met = slope_mf < slope_sh - 0.1
        detail = (f"slope(minorfree-balanced)={slope_mf:.3f} vs "
                  f"slope(shallow-balanced)={slope_sh:.3f}; threshold requires "
                  f"difference > 0.1")
        if met:
            _report(9, True, detail)
        else:
            justification = (
                "informational threshold not met; written justification: the "
                "bootstrapped algorithm's asymptotic gain (per-iteration work on the "
                "sublinear S_X arena instead of full-graph scans) is real, but at "
                "desk scales (n <= 65536, h = 5) its preprocessing and per-flip "
                "bookkeeping run in interpreted Python over the nested clustering, "
                "whose polylog/constant factors exceed the n^(1/4) separation the "
                "theory predicts between n^(3/2) and n^(5/4+eps); the baseline's "
                "per-iteration work is a handful of vectorized whole-graph "
                "operations with near-zero constants. The separation is expected "
                "to emerge only at n >> 10^6, outside the desk-scale protocol.")
            # informational: the log says NOT MET, the test does not fail on timing
            print(f"\nACCEPTANCE 9: NOT MET - {detail} - {justification}")
        print(f"\n  criterion-9 timings: " + ", ".join(
            f"k={k}: shallow {grid_runs['shallow'][k][1]:.2f}s / "
            f"bootstrapped {grid_runs['minorfree'][k][1]:.2f}s"
            for k in (32, 64, 128, 256)))

    def test_total_budget(self):
        elapsed = time.time() - SUITE_START
        print(f"\n  acceptance suite elapsed: {elapsed:.0f}s")
        assert elapsed < 1800
