import hashlib
import heapq
import random

import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix

from sepkit import ddg as ddg_mod
from sepkit import debugcheck
from sepkit.clustering import (
    ActiveState,
    Cluster,
    NestedClustering,
    _ClusterDyn,
    nested_r_clustering,
)
from sepkit.ddg import (
    DdgLayer,
    build_cluster_spanner,
    build_ddg,
    compute_Ai_boundary_sets,
    ddg_path,
    sssp_SX,
)
from sepkit.generators import grid_graph, path_graph
from sepkit.graph import Graph, VertexSet, induced_subgraph


@pytest.fixture(autouse=True)
def _debug_asserts():
    debugcheck.enable(True)
    yield
    debugcheck.enable(False)


def make_cluster(g, boundary):
    return Cluster(id=0, level=1, vertices=np.arange(g.n),
                   boundary=np.asarray(sorted(boundary), dtype=np.int64),
                   edges=np.arange(g.m), seed=0)


def ddg_of(g, boundary):
    """DDG of the whole of g as one cluster with the given boundary."""
    return build_ddg(_ClusterDyn(g, make_cluster(g, boundary)))


def fw_avoiding(g, keep_out, u, v):
    """Oracle: distance u-v in G minus (keep_out minus {u, v})."""
    keep = [x for x in range(g.n) if x not in set(keep_out) - {u, v}]
    sub, mp = induced_subgraph(g, VertexSet(keep))
    d = csgraph.floyd_warshall(sub.csr())
    val = d[mp[u], mp[v]]
    return int(val) if np.isfinite(val) else -1


class TestBuildDdg:
    def test_path_cluster(self):
        g = path_graph(6)
        ddg = ddg_of(g, [0, 5])
        assert ddg.dist[0, 1] == 5
        assert ddg_path(ddg, 0, 5) == [0, 1, 2, 3, 4, 5]

    def test_star_cluster(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        ddg = ddg_of(g, [1, 2, 3])
        for i in range(3):
            for j in range(3):
                assert ddg.dist[i, j] == (0 if i == j else 2)

    def test_random_cluster_vs_floyd_warshall(self):
        rnd = random.Random(11)
        n = 50
        edges = [(i, rnd.randrange(i)) for i in range(1, n)]
        extra = set()
        while len(extra) < 30:
            a, b = rnd.randrange(n), rnd.randrange(n)
            if a != b:
                extra.add((min(a, b), max(a, b)))
        g = Graph(n, edges + sorted(extra))
        bnd = sorted(rnd.sample(range(n), 8))
        ddg = ddg_of(g, bnd)
        for i, u in enumerate(bnd):
            for j, v in enumerate(bnd):
                if i == j:
                    continue
                assert ddg.dist[i, j] == fw_avoiding(g, bnd, u, v)
                if ddg.dist[i, j] >= 0:
                    p = ddg_path(ddg, u, v)
                    assert len(p) - 1 == ddg.dist[i, j]
                    assert not (set(p[1:-1]) & set(bnd))

    def test_blocked_pairs_infinite(self):
        # boundary vertex in the middle blocks the only route
        g = path_graph(5)
        ddg = ddg_of(g, [0, 2, 4])
        assert ddg.dist[ddg.index_of(0), ddg.index_of(4)] == -1


class TestClusterSpanner:
    def test_two_vertex_single_edge(self):
        g = path_graph(4)
        ddg = ddg_of(g, [0, 3])
        edge_u, _, edge_w = build_cluster_spanner(ddg, np.zeros(g.n, dtype=bool), 2, seed=0)
        assert len(edge_u) == 1 and edge_w[0] == 3

    def test_complete_ddg_stretch(self):
        # complete 10-vertex metric with unit distances, k = 2: stretch <= 3
        n = 11
        star = Graph(n, [(0, i) for i in range(1, n)])
        ddg = ddg_of(star, list(range(1, n)))
        sp = build_cluster_spanner(ddg, np.zeros(n, dtype=bool), 2, seed=3)
        # check d_spanner <= 3 * d for all boundary pairs (all pairwise = 2)
        adj = {}
        for u, v, w in zip(*(col.tolist() for col in sp)):
            adj.setdefault(u, []).append((v, w))
            adj.setdefault(v, []).append((u, w))

        def dij(s):
            dist = {s: 0}
            h = [(0, s)]
            while h:
                d, u = heapq.heappop(h)
                if d > dist.get(u, 1e18):
                    continue
                for v, w in adj.get(u, ()):
                    if d + w < dist.get(v, 1e18):
                        dist[v] = d + w
                        heapq.heappush(h, (d + w, v))
            return dist

        for s in range(1, n):
            d = dij(s)
            for t in range(1, n):
                if t != s:
                    assert d[t] <= 3 * 2

    def test_empty_restriction(self):
        g = path_graph(4)
        ddg = ddg_of(g, [0, 3])
        edge_u, _, _ = build_cluster_spanner(ddg, np.ones(g.n, dtype=bool), 2, seed=0)
        assert len(edge_u) == 0


class TestUnionGraphSearch:
    def _layer(self, k=12, r=24, seed=3):
        g = grid_graph(k)
        nc = nested_r_clustering(g, r, 4, 0.5, seed=seed, c_r=0.05)
        assert isinstance(nc, NestedClustering)
        st = ActiveState(nc)
        layer = DdgLayer(st, 0.5, seed=seed)
        return g, nc, st, layer

    def test_one_cluster_sx_is_its_spanner(self):
        g = path_graph(8)
        nc = nested_r_clustering(g, g.n, 3, 0.5, seed=0)
        st = ActiveState(nc)
        layer = DdgLayer(st, 0.5, seed=0)
        sx = layer.assemble()
        assert len(sx.vertices) == 0  # single cluster: no shared boundary

    def test_sssp_matches_independent_dijkstra(self):
        g, nc, st, layer = self._layer()
        sx = layer.assemble()
        s = int(sx.vertices[0])
        tree = sssp_SX(sx, s)
        # independent dijkstra over the same explicit edge list
        adj = {}
        for u, v, w in zip(sx.edge_u.tolist(), sx.edge_v.tolist(), sx.edge_w.tolist()):
            adj.setdefault(u, []).append((v, w))
            adj.setdefault(v, []).append((u, w))
        dist = {s: 0}
        h = [(0, s)]
        while h:
            d, u = heapq.heappop(h)
            if d > dist.get(u, 1e18):
                continue
            for v, w in adj.get(u, ()):
                if d + w < dist.get(v, 1e18):
                    dist[v] = d + w
                    heapq.heappush(h, (d + w, v))
        for v in sx.vertices.tolist():
            got = tree.distance(v)
            assert (got is None and v not in dist) or got == dist[v]

    def test_sx_stretch_window_against_bfs(self):
        g, nc, st, layer = self._layer()
        branch = np.asarray([66, 67, 78], dtype=np.int64)
        layer.set_branch_vertices(0, branch)
        st.activate_many(branch.tolist())
        sx = layer.assemble()
        s = int(sx.vertices[0])
        tree = sssp_SX(sx, s)
        from collections import deque

        dist = {s: 0}
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for w in g.neighbors(u).tolist():
                if not st.active[w] and w not in dist:
                    dist[w] = dist[u] + 1
                    dq.append(w)
        k = layer.k
        for v in sx.vertices.tolist():
            d_sx = tree.distance(v)
            if d_sx is None or v not in dist:
                continue
            assert dist[v] <= d_sx <= (2 * k - 1) * dist[v]

    def test_find_tree_touches_all_slots(self):
        g, nc, st, layer = self._layer()
        b1 = np.asarray([66, 67], dtype=np.int64)
        b2 = np.asarray([100, 101], dtype=np.int64)
        layer.set_branch_vertices(0, b1)
        layer.set_branch_vertices(1, b2)
        st.activate_many(np.concatenate([b1, b2]).tolist())
        from sepkit.clustering import decompose_active_complement

        comps = decompose_active_complement(st)
        heavy = max(comps, key=lambda t: t[1])
        s = min(min(st.dyn[cid].xclusters[i].passive_boundary.tolist())
                for cid, i in heavy[0] if len(st.dyn[cid].xclusters[i].passive_boundary))
        res = layer.find_tree_or_far_pair(s, [0, 1], ell=2, h=4)
        assert res.kind == "tree"
        for slot in (0, 1):
            tv, bv = res.rep_edges[slot]
            assert g.has_edge(tv, bv)
            assert bv in (b1 if slot == 0 else b2).tolist()
            assert tv in res.tree_vertices.tolist()

    def test_far_pair_on_long_path(self):
        g = path_graph(2000)
        nc = nested_r_clustering(g, 50, 3, 0.5, seed=1, c_r=0.05)
        assert isinstance(nc, NestedClustering)
        st = ActiveState(nc)
        layer = DdgLayer(st, 0.5, seed=1)
        branch = np.asarray([0], dtype=np.int64)
        layer.set_branch_vertices(0, branch)
        st.activate_many([0])
        # s at the far end; with small ell the threshold is tiny
        sx = layer.assemble()
        s = int(sx.vertices[-1])
        res = layer.find_tree_or_far_pair(s, [0], ell=1, h=3)
        assert res.kind == "far"
        fs, ft = res.far_pair
        assert fs == s

    def test_empty_slot_detected(self):
        g, nc, st, layer = self._layer()
        b1 = np.asarray([0], dtype=np.int64)
        layer.set_branch_vertices(0, b1)
        st.activate_many([0])
        # fully enclose vertex 0's region: activate its neighbors too
        ring = [1, 12]
        layer.set_branch_vertices(1, np.asarray([66], dtype=np.int64))
        st.activate_many([66])
        st.activate_many(ring)
        sx = layer.assemble()
        # choose s in the big region; slot 0's labels are unreachable
        s = int(sx.vertices[-1])
        res = layer.find_tree_or_far_pair(s, [0, 1], ell=2, h=4)
        assert res.kind in ("empty", "tree")
        if res.kind == "empty":
            assert res.empty_slot == 0


def _star_ddg(leaves):
    """DDG of the star K_{1,leaves} whose leaves are all boundary vertices:
    every pair of leaves is at distance 2."""
    g = Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    return g, ddg_of(g, list(range(1, leaves + 1)))


class TestSparsifyBranch:
    """Clusters above the spanner size target 4 k nb^(1+1/k) run Baswana-Sen.

    The digests pin the kept (u, v, w) arrays, as computed before the DDG
    layer was folded into one per-cluster store.
    """

    @pytest.mark.parametrize("leaves,k,seed,every,pairs,kept,digest", [
        (300, 2, 0, 0, 44850, 4095,
         "0d4a57b6bb1ce8fc40dfceb9a6584fb00d851ba9037519a0800e971daa962095"),
        (300, 2, 7, 0, 44850, 5510,
         "d3ade7743d673a6dccac9fc554173f68db0b89868f391f5299580246efd366b2"),
        (199, 4, 3, 0, 19701, 1125,
         "c5592a2b58b78b20c27509741b19a32b74092f6b2927d62dbb63f382b898e19c"),
        # every 11th leaf active: 300 passive leaves, renumbered by passive rank
        (330, 2, 5, 11, 54285, 6069,
         "4c8c8225654819fdd2a4ce70b376de10fb04ac50e61b3d9a2476857ae521343a"),
    ])
    def test_star_spanner_is_pinned(self, leaves, k, seed, every, pairs, kept, digest):
        g, ddg = _star_ddg(leaves)
        assert len(ddg.pair_i) == leaves * (leaves - 1) // 2 == pairs
        active = np.zeros(g.n, dtype=bool)
        if every:
            active[np.arange(every, g.n, every)] = True
        u, v, w = build_cluster_spanner(ddg, active, k, seed=seed)
        assert len(u) == kept
        arr = np.stack([u, v, w]).astype("<i8")
        assert hashlib.sha256(arr.tobytes()).hexdigest() == digest
        # stretch at most 2k-1 against the DDG over the passive leaves
        passive = np.flatnonzero(~active[ddg.boundary])
        assert not active[u].any() and not active[v].any()
        mat = csr_matrix((w.astype(float), (u, v)), shape=(g.n, g.n))
        d_sp = csgraph.dijkstra(mat, directed=False, indices=ddg.boundary[passive])
        d_sp = d_sp[:, ddg.boundary[passive]]
        d = ddg.dist[np.ix_(passive, passive)]
        assert (d >= 0).all()
        assert (d_sp <= (2 * k - 1) * d).all()


class TestLayerStore:
    @pytest.mark.parametrize("k,seed", [(8, 1), (10, 2), (12, 3)])
    def test_sx_is_union_of_passive_pairs(self, k, seed):
        g = grid_graph(k)
        nc = nested_r_clustering(g, 2 * k, 4, 0.5, seed=seed, c_r=0.05)
        assert isinstance(nc, NestedClustering)
        st = ActiveState(nc)
        layer = DdgLayer(st, 0.5, seed=seed)
        rnd = random.Random(seed)
        for step in range(6):
            if step % 3 == 2:
                pool = [v for v in range(g.n) if st.active[v] and not st.down_used[v]]
                to = "passive"
            else:
                pool = [v for v in range(g.n) if not st.up_used[v]]
                to = "active"
            st.set_many(rnd.sample(pool, min(len(pool), rnd.randint(1, 6))), to)
            sx = layer.assemble()
            # one record per C_X cluster, each refreshed by the assemble
            assert set(st.dyn) == st.cx
            assert all(st.dyn[cid].sx_edges is not None for cid in st.cx)
            expected = []
            for cid in sorted(st.cx):
                ddg = st.dyn[cid].ddg
                b = ddg.boundary
                for i in range(len(b)):
                    for j in range(i + 1, len(b)):
                        if ddg.dist[i, j] >= 0 and not st.active[b[i]] and not st.active[b[j]]:
                            expected.append((cid, int(b[i]), int(b[j]), int(ddg.dist[i, j])))
            got = list(zip(sx.edge_cluster.tolist(), sx.edge_u.tolist(), sx.edge_v.tolist(),
                           sx.edge_w.tolist()))
            assert sorted(got) == sorted(expected)


def _flip_and_find(g, st, layer, rnd):
    """Seeded sequence: each step adds a one- or two-vertex branch set as a
    new slot and activates it; every fourth step retires the oldest slot by
    flipping its vertices back to passive.  Each step then runs one find from
    a random S_X vertex and yields its result."""
    slots = []
    for step in range(10):
        v = rnd.choice([x for x in range(g.n) if not st.up_used[x]])
        nb = [w for w in g.neighbors(v).tolist() if not st.up_used[w]]
        bs = np.asarray(sorted({v} | set(nb[:1])), dtype=np.int64)
        slots.append(step)
        layer.set_branch_vertices(step, bs)
        st.activate_many(bs.tolist())
        if step % 4 == 3:
            vs = np.flatnonzero(layer.slot_of_vertex == slots.pop(0))
            layer.clear_branch(vs)
            st.set_many(vs.tolist(), "passive")
        sx = layer.assemble()
        s = int(sx.vertices[rnd.randrange(len(sx.vertices))])
        ell = rnd.choice([1, 2, 3])
        yield slots, layer.find_tree_or_far_pair(s, list(slots), ell=ell, h=len(slots) + 2)


class TestFindIsPinned:
    def test_find_results_are_pinned(self):
        # pinned before C_X's per-cluster DDG state moved onto _ClusterDyn
        g = grid_graph(10)
        nc = nested_r_clustering(g, 20, 4, 0.5, seed=2, c_r=0.05)
        st = ActiveState(nc)
        layer = DdgLayer(st, 0.5, seed=2)
        digest = hashlib.sha256()
        shared = 0
        for slots, res in _flip_and_find(g, st, layer, random.Random(2)):
            tv = None if res.tree_vertices is None else res.tree_vertices.tolist()
            reps = None if res.rep_edges is None else sorted(res.rep_edges.items())
            digest.update(repr((res.kind, tv, reps, res.far_pair, res.empty_slot)).encode())
            # label vertices two C_X clusters share for one slot: the
            # extension must pick the lowest-id host among them
            hosts: dict[tuple[int, int], int] = {}
            for cid in sorted(st.cx):
                ai = compute_Ai_boundary_sets(st.dyn[cid], st, layer.slot_of_vertex)
                for slot in slots:
                    for x in ai.get(slot, ()):
                        hosts[slot, x] = hosts.get((slot, x), 0) + 1
            shared += sum(1 for c in hosts.values() if c > 1)
        assert shared > 0
        assert digest.hexdigest() == \
            "d1408c7179460e6c18ba238a776b6d9337f6219dd318813bc46b1d602e27a2f5"


class TestRefreshPolicy:
    def test_spanner_per_recompute_and_ddg_per_cluster(self, monkeypatch):
        g = grid_graph(10)
        nc = nested_r_clustering(g, 20, 4, 0.5, seed=1, c_r=0.05)
        st = ActiveState(nc)
        recomputed: set[int] = set(st.cx)
        ddg_cids: list[int] = []
        spanner_cids: list[int] = []
        real_recompute = _ClusterDyn.recompute
        real_build_ddg = ddg_mod.build_ddg
        real_spanner = ddg_mod.build_cluster_spanner

        def recompute(self, *args):
            recomputed.add(self.cid)
            return real_recompute(self, *args)

        def build_ddg_counted(dyn):
            ddg_cids.append(dyn.cid)
            return real_build_ddg(dyn)

        def spanner_counted(ddg, *args, **kw):
            spanner_cids.append(ddg.cid)
            return real_spanner(ddg, *args, **kw)

        monkeypatch.setattr(_ClusterDyn, "recompute", recompute)
        monkeypatch.setattr(ddg_mod, "build_ddg", build_ddg_counted)
        monkeypatch.setattr(ddg_mod, "build_cluster_spanner", spanner_counted)
        layer = DdgLayer(st, 0.5, seed=1)
        seen: set[int] = set()
        rnd = random.Random(1)
        for step in range(8):
            spanner_cids.clear()
            layer.assemble()
            assert sorted(spanner_cids) == sorted(recomputed & st.cx)
            seen |= st.cx
            assert sorted(ddg_cids) == sorted(seen)
            recomputed.clear()
            if step % 3 == 2:
                pool = [v for v in range(g.n) if st.active[v] and not st.down_used[v]]
                to = "passive"
            else:
                pool = [v for v in range(g.n) if not st.up_used[v]]
                to = "active"
            st.set_many(rnd.sample(pool, min(len(pool), rnd.randint(1, 6))), to)
        assert len(seen) > len(nc.level1)
