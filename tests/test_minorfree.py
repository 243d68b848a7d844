import gc
import weakref

import numpy as np
import pytest

from sepkit import clustering, debugcheck, minorfree
from sepkit.certificates import (
    MinorReport,
    MinorWitness,
    Separator,
    brute_force_min_separator,
    brute_force_minor_detect,
    minor_witness,
    verify_output,
)
from sepkit.clustering import ActiveState, NestedClustering, nested_r_clustering
from sepkit.ddg import DdgLayer
from sepkit.generators import grid_graph, kh_blowup_graph, path_graph
from sepkit.graph import Graph
from sepkit.minorfree import (
    balanced_separator,
    bidirectional_cut,
    minor_free_separator,
)
from sepkit.shallow import BranchLedger


@pytest.fixture(autouse=True)
def _debug_asserts():
    debugcheck.enable(True)
    yield
    debugcheck.enable(False)


class TestBidirectionalCut:
    def test_long_path_conditions(self):
        g = path_graph(10_000)
        blocked = np.zeros(g.n, dtype=bool)
        s_ids, (cnt_s, cnt_rest) = bidirectional_cut(g, blocked, 0, g.n - 1, 4, g.n)
        assert cnt_s + cnt_rest == g.n
        smask = np.zeros(g.n, dtype=bool)
        smask[s_ids] = True
        shell_out = {v for v in range(g.n) if not smask[v]
                     and any(smask[w] for w in g.neighbors(v).tolist())}
        assert 4 * len(shell_out) <= min(cnt_s, cnt_rest)

    def test_cliques_joined_by_path(self):
        # cut lands inside the path between the cliques
        kn = 30
        edges = [(i, j) for i in range(kn) for j in range(i + 1, kn)]
        edges += [(i + kn, j + kn) for i, j in
                  [(i, j) for i in range(kn) for j in range(i + 1, kn)]]
        path_len = 600
        base = 2 * kn
        edges += [(base + i, base + i + 1) for i in range(path_len - 1)]
        edges += [(0, base), (kn, base + path_len - 1)]
        g = Graph(2 * kn + path_len, edges)
        blocked = np.zeros(g.n, dtype=bool)
        s_ids, _ = bidirectional_cut(g, blocked, 1, kn + 1, 3, g.n)
        assert verify_boundary_small(g, s_ids, 3)

    def test_balls_meet_raises(self):
        g = path_graph(10)
        blocked = np.zeros(g.n, dtype=bool)
        with pytest.raises(RuntimeError):
            bidirectional_cut(g, blocked, 4, 5, 2, g.n)

    def test_deterministic_tie_break(self):
        g = path_graph(5000)
        blocked = np.zeros(g.n, dtype=bool)
        a, _ = bidirectional_cut(g, blocked, 0, g.n - 1, 4, g.n)
        b, _ = bidirectional_cut(g, blocked, 0, g.n - 1, 4, g.n)
        assert a.tolist() == b.tolist()


def verify_boundary_small(g, s_ids, ell):
    smask = np.zeros(g.n, dtype=bool)
    smask[s_ids] = True
    out = {v for v in range(g.n) if not smask[v]
           and any(smask[w] for w in g.neighbors(v).tolist())}
    return ell * len(out) <= min(int(smask.sum()), g.n - int(smask.sum()))


class TestLemmaTsStep:
    def test_three_outcomes_types(self):
        g = grid_graph(12)
        nc = nested_r_clustering(g, 24, 4, 0.5, c_r=0.05)
        assert isinstance(nc, NestedClustering)
        st = ActiveState(nc)
        layer = DdgLayer(st, BranchLedger(g.n), 0.5, seed=3)
        branch = np.asarray([66, 67], dtype=np.int64)
        layer.ledger.adopt(branch, ())
        st.set_many(branch.tolist(), "active")
        from sepkit.clustering import decompose_active_complement

        comps = decompose_active_complement(st)
        heavy = max(comps, key=lambda t: t[1])
        s = min(min(st.dyn[cid].xclusters[i].passive_boundary.tolist())
                for cid, i in heavy[0] if len(st.dyn[cid].xclusters[i].passive_boundary))
        # one dispatch of the minorfree loop: tree-or-far search, then the cut
        out = layer.find_tree_or_far_pair(s, [0], 2, 4)
        kind = out.kind
        if kind == "far":
            bidirectional_cut(g, st.active, *out.far_pair, 2, heavy[2])
            kind = "cut"
        assert kind in ("tree", "cut", "empty")
        if kind == "tree":
            tv, bv = out.rep_edges[0]
            assert g.has_edge(tv, bv) and bv in branch.tolist()


class TestMinorFreeSeparator:
    @pytest.mark.parametrize("c_r", [float("nan"), float("inf"), -3.0])
    def test_c_r_must_be_finite_and_nonnegative(self, c_r):
        # NaN would make r <= c_r h^2 ln n false for every r, so every run bootstraps
        with pytest.raises(ValueError, match="c_r must be finite"):
            balanced_separator(grid_graph(8), 5, 0.5, seed=0, c_r=c_r)

    def test_c_r_zero_is_legal(self):
        g = grid_graph(8)
        out = balanced_separator(g, 5, 0.5, seed=0, c_r=0.0)
        assert out.params["algorithm"] == "minorfree-balanced"
        assert verify_output(g, out).ok

    def test_fallback_on_small(self):
        g = grid_graph(8)
        out = balanced_separator(g, 5, 0.5, seed=0)
        assert isinstance(out, Separator)
        assert "fallback" in out.params["algorithm"]
        assert verify_output(g, out).ok

    def test_bootstrapped_grid(self):
        g = grid_graph(32)
        stats = {}
        out = balanced_separator(g, 5, 0.5, seed=0, stats=stats, c_r=0.05)
        assert isinstance(out, Separator)
        assert out.params["algorithm"] == "minorfree-balanced"
        assert verify_output(g, out).ok
        assert len(out.C) <= out.claimed_bound

    def test_kh_small_witness(self):
        g = Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        out = balanced_separator(g, 6, 0.5, seed=0)
        assert isinstance(out, MinorWitness)
        assert verify_output(g, out).ok

    def test_blowup_minor_side(self):
        g = kh_blowup_graph(6, 60, seed=2)
        out = balanced_separator(g, 6, 0.5, seed=0)
        assert isinstance(out, (MinorWitness, MinorReport))
        assert verify_output(g, out).ok

    def test_heavy_vertex_early_exit(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], vertex_weight=[1, 1, 100, 1, 1])
        out = minor_free_separator(g, 3, 1, 0.5, seed=0)
        assert isinstance(out, Separator)
        assert out.params.get("early_exit") == "heavy-vertex"
        assert verify_output(g, out).ok

    def test_cluster_weight_early_exit(self):
        # concentrated weight inside one region triggers the cluster exit
        g = grid_graph(24)
        w = [1] * g.n
        w[24 * 12 + 12] = 10 * g.n
        g2 = Graph(g.n, np.stack([g.edge_u, g.edge_v], axis=1), vertex_weight=w)
        out = minor_free_separator(g2, 4, 12, 0.5, seed=0, c_r=0.05)
        assert isinstance(out, Separator)
        assert out.params.get("early_exit") in ("cluster-weight", "heavy-vertex")
        assert verify_output(g2, out).ok

    def test_minor_side_of_a_lazy_split_is_returned(self, monkeypatch):
        # the ActiveState flips demand children; a child split that finds the
        # minor side raises MinorFound, which the run turns into its result
        g = grid_graph(20)
        # K_4: the centre of the top-left 3 x 3 block and three arcs of its ring
        found = minor_witness(g, [[21], [0, 1, 2], [22, 42], [20, 40, 41]],
                              params={"split": "child"})

        def split_to_minor(*args, **kwargs):
            raise clustering.MinorFound(found)

        monkeypatch.setattr(clustering, "split_cluster_two_weights", split_to_minor)
        out = balanced_separator(g, 4, 0.5, seed=0, c_r=0.05)
        assert out is found
        assert out.params["split"] == "child"
        assert out.params["algorithm"] == "minorfree" and out.params["h"] == 4
        assert "r" in out.params
        assert verify_output(g, out).ok

    def test_deterministic(self):
        g = grid_graph(24)
        a = balanced_separator(g, 5, 0.5, seed=9, c_r=0.05)
        b = balanced_separator(g, 5, 0.5, seed=9, c_r=0.05)
        assert isinstance(a, Separator) and isinstance(b, Separator)
        assert np.array_equal(a.C, b.C) and np.array_equal(a.A, b.A)

    def test_long_path_cuts_exercised(self):
        g = path_graph(3000)
        stats = {}
        out = minor_free_separator(g, 3, 6, 0.5, seed=1, stats=stats, c_r=0.05)
        assert verify_output(g, out).ok

    def test_cut_route_exercised_end_to_end(self):
        # interleaved ids put each fresh source at the opposite physical end
        # from the branch-set labels, forcing far pairs and cut moves
        n = 4000

        def vid(p):
            return 2 * p if p < n // 2 else 2 * (n - 1 - p) + 1

        g = Graph(n, [(vid(p), vid(p + 1)) for p in range(n - 1)])
        stats = {}
        out = minor_free_separator(g, 3, 4, 0.5, seed=1, stats=stats, c_r=0.05)
        assert isinstance(out, Separator)
        assert verify_output(g, out).ok
        assert stats["cut"] > 0

    def test_cut_keeps_the_lighter_side_end_to_end(self, monkeypatch):
        # the interleaved path with its last 24 vertices heavy: the cut's S,
        # the stalled ball around the fresh source at that end, holds 92% of
        # the weight, so the loop processes the rest of the heavy component
        # as S' (processing S would break mf.processed-weight) and takes B'
        # from S's side
        n = 2000

        def vid(p):
            return 2 * p if p < n // 2 else 2 * (n - 1 - p) + 1

        w = [1] * n
        for p in range(n - 24, n):
            w[vid(p)] = 1000
        g = Graph(n, [(vid(p), vid(p + 1)) for p in range(n - 1)], vertex_weight=w)
        calls = []
        real = minorfree._component_minus

        def component_minus(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(minorfree, "_component_minus", component_minus)
        stats = {}
        out = minor_free_separator(g, 3, 10, 1.0, seed=1, stats=stats, c_r=0.05)
        assert isinstance(out, Separator) and "early_exit" not in out.params
        assert verify_output(g, out).ok
        assert stats["cut"] > 0 and len(calls) == 1

    def test_weighted_bootstrapped_run(self):
        g0 = grid_graph(32)
        rng = np.random.default_rng(11)
        w = rng.integers(1, 50, size=g0.n)
        g = Graph(g0.n, np.stack([g0.edge_u, g0.edge_v], axis=1), vertex_weight=w.tolist())
        out = balanced_separator(g, 5, 0.5, seed=2, c_r=0.05)
        assert isinstance(out, Separator)
        assert verify_output(g, out).ok

    def test_witness_depth_bound_recorded(self):
        g = kh_blowup_graph(5, 60, seed=2)
        out = balanced_separator(g, 5, 0.5, seed=0)
        if isinstance(out, MinorWitness):
            assert out.depth_bound is not None
            rep = verify_output(g, out)
            assert rep.ok, rep.violations

    def test_small_vs_oracle(self):
        import random

        rnd = random.Random(21)
        for trial in range(12):
            n = rnd.randrange(4, 11)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            m = rnd.randrange(n - 1, len(pairs) + 1)
            g = Graph(n, rnd.sample(pairs, m))
            from sepkit.graph import connected_components

            if len(connected_components(g)) != 1:
                continue
            for h in (3, 4):
                out = balanced_separator(g, h, 0.5, seed=trial)
                assert verify_output(g, out).ok
                if isinstance(out, Separator):
                    opt = brute_force_min_separator(g)
                    assert len(out.C) >= len(opt.C)
                else:
                    assert brute_force_minor_detect(g, h) is not None


class TestStateRelease:
    def test_bootstrapped_state_freed_without_cyclic_gc(self, monkeypatch):
        # reference counting alone must free the clustering and DDG state
        refs = []
        for cls in (ActiveState, DdgLayer):
            init = cls.__init__

            def track(self, *args, _init=init, **kwargs):
                _init(self, *args, **kwargs)
                refs.append(weakref.ref(self))

            monkeypatch.setattr(cls, "__init__", track)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            out = balanced_separator(grid_graph(40), 5, 0.5, seed=0, c_r=0.05)
            kinds = sorted(type(r()).__name__ for r in refs if r() is not None)
        finally:
            if was_enabled:
                gc.enable()
        assert isinstance(out, Separator)
        assert len(refs) >= 2
        assert kinds == []
