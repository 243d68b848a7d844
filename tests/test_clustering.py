import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import debugcheck
from sepkit.certificates import MinorReport, MinorWitness, verify_output
from sepkit.clustering import (
    ActiveState,
    Cluster,
    Clustering,
    ClusteringError,
    NestedClustering,
    _ClusterDyn,
    _connected_edge_groups,
    _split_pieces_from_cut,
    _verts_of_edges,
    decompose_active_complement,
    nested_r_clustering,
    refine_to_r_clustering,
    split_cluster_two_weights,
    weak_r_clustering,
)
from sepkit.generators import grid_graph, kh_blowup_graph, path_graph
from sepkit.graph import Graph, connected_components, induced_subgraph


@pytest.fixture(autouse=True)
def _debug_asserts():
    debugcheck.enable(True)
    yield
    debugcheck.enable(False)


def check_clustering_shape(g, clusters, r=None):
    # edge-disjoint cover; boundary = shared vertices; connected clusters
    cover = np.zeros(g.m, dtype=np.int64)
    mult = np.zeros(g.n, dtype=np.int64)
    for c in clusters:
        cover[c.edges] += 1
        mult[c.vertices] += 1
        if r is not None:
            assert c.n <= r
        sub, _ = induced_subgraph(g, c.vertices)
        # cluster subgraph connectivity (over its own edge set)
        assert len(connected_components(_edges_graph(g, c))) == 1
        assert set(c.boundary.tolist()) == {v for v in c.vertices.tolist() if mult[v] >= 0} & \
            set(c.boundary.tolist())
    assert (cover == 1).all(), "edges not partitioned"
    for c in clusters:
        expect = c.vertices[mult[c.vertices] > 1]
        assert c.boundary.tolist() == expect.tolist()


def _edges_graph(g, c):
    local = {int(v): i for i, v in enumerate(c.vertices)}
    edges = [(local[int(g.edge_u[e])], local[int(g.edge_v[e])]) for e in c.edges.tolist()]
    return Graph(c.n, edges)


class TestWeakClustering:
    def test_r_at_least_n_single_cluster(self):
        g = grid_graph(5)
        nc = nested_r_clustering(g, g.n, 3, 0.5)
        assert isinstance(nc, NestedClustering)
        assert len(nc.level1) == 1
        assert len(nc.cluster(nc.level1[0]).boundary) == 0

    def test_path_segments(self):
        g = path_graph(100)
        w = weak_r_clustering(g, 10, 3, 0.5, c_r=0.2)
        assert isinstance(w, Clustering)
        assert len(w.clusters) >= 10
        check_clustering_shape(g, w.clusters, r=10)
        mult = np.zeros(g.n, dtype=np.int64)
        for c in w.clusters:
            mult[c.vertices] += 1
        for c in w.clusters:
            for b in c.boundary.tolist():
                assert mult[b] == 2  # path boundary vertices sit in exactly 2 segments

    def test_grid_invariants(self):
        g = grid_graph(16)
        w = weak_r_clustering(g, 32, 5, 0.5, c_r=0.05)
        assert isinstance(w, Clustering)
        check_clustering_shape(g, w.clusters, r=32)

    def test_r_out_of_range(self):
        g = grid_graph(8)
        with pytest.raises(ClusteringError):
            weak_r_clustering(g, 2, 5, 0.5)

    def test_minor_side_forwarded(self):
        g = kh_blowup_graph(6, 40, seed=3)
        out = nested_r_clustering(g, 60, 4, 0.5, c_r=0.05)
        if not isinstance(out, NestedClustering):
            assert isinstance(out, (MinorWitness, MinorReport))
            assert verify_output(g, out).ok


class TestRefine:
    def test_within_bound_unchanged(self):
        g = path_graph(60)
        w = weak_r_clustering(g, 12, 3, 0.5, c_r=0.2)
        refined = refine_to_r_clustering(w, 3, 0.5, boundary_bound=10)
        assert isinstance(refined, Clustering)
        sig_before = sorted(tuple(c.edges.tolist()) for c in w.clusters)
        sig_after = sorted(tuple(c.edges.tolist()) for c in refined.clusters)
        assert sig_before == sig_after  # every segment already has <= 2 boundary

    def test_star_split_until_bound(self):
        # one star cluster with 20 boundary leaves, forced bound 10
        n = 41
        star_edges = [(0, i) for i in range(1, n)]
        g = Graph(n, star_edges + [(i, i) for i in ()])
        w = Clustering(g=g, clusters=[], r=50)
        from sepkit.clustering import Cluster

        boundary = np.arange(1, 21)
        w.clusters = [Cluster(id=0, level=1, vertices=np.arange(n), boundary=boundary,
                              edges=np.arange(g.m))]
        refined = refine_to_r_clustering(w, 3, 0.5, boundary_bound=10)
        assert isinstance(refined, Clustering)
        bmask = np.zeros(n, dtype=bool)
        bmask[boundary] = True
        mult = np.zeros(n, dtype=np.int64)
        for c in refined.clusters:
            mult[c.vertices] += 1
        for c in refined.clusters:
            inherited = int(bmask[c.vertices].sum())
            shared = int((mult[c.vertices] > 1).sum())
            assert inherited + shared <= 10 + 4  # old boundary plus split vertices


class TestSplitTwoWeights:
    def test_single_edge_refused(self):
        g = path_graph(2)
        from sepkit.clustering import Cluster

        c = Cluster(id=0, level=1, vertices=np.arange(2), boundary=np.empty(0, np.int64),
                    edges=np.arange(1))
        with pytest.raises(ClusteringError):
            split_cluster_two_weights(g, c, 3, 0.5)

    def test_path_split_near_middle(self):
        g = path_graph(64)
        from sepkit.clustering import Cluster

        c = Cluster(id=0, level=1, vertices=np.arange(64),
                    boundary=np.asarray([0, 63]), edges=np.arange(63))
        pieces = split_cluster_two_weights(g, c, 3, 0.5)
        assert len(pieces) >= 2
        assert all(len(pv) < 64 for pv, _ in pieces)
        cover = np.zeros(g.m, dtype=np.int64)
        for _, pe in pieces:
            cover[pe] += 1
        assert (cover == 1).all()

    def test_k4_cluster_splits(self):
        g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        from sepkit.clustering import Cluster

        c = Cluster(id=0, level=1, vertices=np.arange(4), boundary=np.empty(0, np.int64),
                    edges=np.arange(6))
        pieces = split_cluster_two_weights(g, c, 6, 0.5)
        assert all(len(pv) < 4 for pv, _ in pieces)
        cover = np.zeros(6, dtype=np.int64)
        for _, pe in pieces:
            cover[pe] += 1
        assert (cover == 1).all()


class TestNested:
    def test_single_edge_graph(self):
        g = path_graph(2)
        nc = nested_r_clustering(g, 2, 3, 0.5)
        assert isinstance(nc, NestedClustering)
        assert len(nc.level1) == 1
        assert nc.cluster(nc.level1[0]).is_leaf

    def test_grid_hierarchy(self):
        g = grid_graph(16)
        nc = nested_r_clustering(g, 32, 5, 0.5, c_r=0.05)
        assert isinstance(nc, NestedClustering)
        nc.materialize_all()
        assert nc.leaf_count() == sum(1 for c in nc.clusters if c.m == 1)
        # children partition parent edges; every leaf is a single edge
        for c in nc.clusters:
            if c.children:
                cover = np.zeros(g.m, dtype=np.int64)
                for k in c.children:
                    cover[nc.cluster(k).edges] += 1
                assert (cover[c.edges] == 1).all()
                assert cover.sum() == c.m
            else:
                assert c.is_leaf
        # level-1 edge cover
        cover = np.zeros(g.m, dtype=np.int64)
        for cid in nc.level1:
            cover[nc.cluster(cid).edges] += 1
        assert (cover == 1).all()

    def test_lazy_matches_demand_order(self):
        g = grid_graph(10)
        a = nested_r_clustering(g, 20, 4, 0.5, c_r=0.05)
        b = nested_r_clustering(g, 20, 4, 0.5, c_r=0.05)
        # demand a in DFS order, b fully; level-1 structures must agree
        stack = list(a.level1)
        while stack:
            cid = stack.pop()
            stack.extend(a.children_of(cid))
        b.materialize_all()
        sig_a = sorted((c.level, tuple(c.edges.tolist())) for c in a.clusters)
        sig_b = sorted((c.level, tuple(c.edges.tolist())) for c in b.clusters)
        assert sig_a == sig_b


def _reference_cx(nc, xs):
    """Reference C_X, expanded from scratch: expand the smallest-id
    expandable cluster holding an interior X vertex, until no cluster of the
    roster holds one."""
    xmask = np.zeros(nc.g.n, dtype=bool)
    xmask[xs] = True
    roster = set(nc.level1)
    changed = True
    while changed:
        changed = False
        for cid in sorted(roster):
            c = nc.cluster(cid)
            interior = c.vertices[~np.isin(c.vertices, c.boundary)]
            if not c.is_leaf and xmask[interior].any():
                roster.discard(cid)
                roster.update(nc.children_of(cid))
                changed = True
                break
    return roster


def _edge_sets(nc, roster):
    return sorted(tuple(nc.cluster(cid).edges.tolist()) for cid in roster)


class TestComputeCX:
    """C_X as ActiveState, its one expansion, computes it under activations."""

    def _setup(self):
        g = grid_graph(12)
        nc = nested_r_clustering(g, 24, 4, 0.5, c_r=0.05)
        assert isinstance(nc, NestedClustering)
        return g, nc

    def test_empty_x_is_level1(self):
        g, nc = self._setup()
        st = ActiveState(nc)
        st.set_many([], "active")
        assert st.cx == set(nc.level1)

    def test_boundary_vertex_no_change(self):
        g, nc = self._setup()
        b = None
        for cid in nc.level1:
            c = nc.cluster(cid)
            if len(c.boundary):
                b = int(c.boundary[0])
                break
        st = ActiveState(nc)
        st.set_many([b], "active")
        assert st.cx == set(nc.level1)

    def test_interior_vertex_expands_one_path(self):
        g, nc = self._setup()
        target = None
        for cid in nc.level1:
            c = nc.cluster(cid)
            interior = set(c.vertices.tolist()) - set(c.boundary.tolist())
            if interior:
                target = (cid, min(interior))
                break
        cid, v = target
        st = ActiveState(nc)
        st.set_many([v], "active")
        assert cid not in st.cx
        untouched = set(nc.level1) - {cid}
        assert untouched <= st.cx

    @pytest.mark.parametrize("spec", [("grid", 12, 24, 4), ("path", 200, 16, 3),
                                      ("blowup", 30, 30, 5)])
    def test_matches_reference_expansion(self, spec):
        """Same clusters as the standalone expansion, compared by edge sets:
        cluster ids depend on the order in which clusters are materialized."""
        kind, size, r, h = spec
        g = {"grid": lambda: grid_graph(size), "path": lambda: path_graph(size),
             "blowup": lambda: kh_blowup_graph(5, size, seed=1)}[kind]()
        nc_a = nested_r_clustering(g, r, h, 0.5, c_r=0.05)
        nc_b = nested_r_clustering(g, r, h, 0.5, c_r=0.05)
        assert isinstance(nc_a, NestedClustering)
        rnd = random.Random(size)
        for _ in range(8):
            xs = rnd.sample(range(g.n), rnd.randint(1, 12))
            st = ActiveState(nc_a)
            st.set_many(xs, "active")
            assert _edge_sets(nc_a, st.cx) == _edge_sets(nc_b, _reference_cx(nc_b, xs))


def _reference_roots(n, pairs):
    """Union-find over 0..n-1: each element's root, the smallest id in its class."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.asarray([find(x) for x in range(n)])


def _reference_groups(g, eids):
    verts = _verts_of_edges(g, eids)
    lu, lv = np.searchsorted(verts, g.edge_u[eids]), np.searchsorted(verts, g.edge_v[eids])
    root = _reference_roots(len(verts), zip(lu.tolist(), lv.tolist()))[lu]
    order = np.argsort(root, kind="stable")
    groups = np.split(eids[order], np.flatnonzero(np.diff(root[order])) + 1)
    return [(_verts_of_edges(g, pe), pe) for pe in groups]


def _reference_split(g, verts, eids, cut_local):
    incut = np.zeros(len(verts), dtype=bool)
    incut[cut_local] = True
    lu, lv = np.searchsorted(verts, g.edge_u[eids]), np.searchsorted(verts, g.edge_v[eids])
    both_out = ~incut[lu] & ~incut[lv]
    root = _reference_roots(len(verts), zip(lu[both_out].tolist(), lv[both_out].tolist()))
    anchor = np.where(~incut[lu], root[lu], np.where(~incut[lv], root[lv], -1))
    roots, first = np.unique(anchor, return_index=True)
    pieces = [(_verts_of_edges(g, eids[anchor == key]), eids[anchor == key])
              for key in roots[np.argsort(first)] if key >= 0]
    leftover = eids[anchor == -1]
    if len(leftover):
        pieces.extend(_reference_groups(g, leftover))
    return pieces


def _as_lists(pieces):
    return [(pv.tolist(), pe.tolist()) for pv, pe in pieces]


class TestLocalComponents:
    """The cluster-local component labelling and CSR against reference builds."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_groups_split_and_csr_match_reference(self, data):
        n = data.draw(st.integers(2, 24))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            min_size=1, max_size=3 * n))
        g = Graph(n, list(edges))
        keep = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
        eids = np.flatnonzero(keep)
        if len(eids) == 0:
            eids = np.arange(1)
        assert _as_lists(_connected_edge_groups(g, eids)) == _as_lists(_reference_groups(g, eids))
        verts = _verts_of_edges(g, eids)
        cut = np.asarray(sorted(data.draw(st.sets(st.integers(0, len(verts) - 1)))),
                         dtype=np.int64)
        assert (_as_lists(_split_pieces_from_cut(g, verts, eids, cut))
                == _as_lists(_reference_split(g, verts, eids, cut)))
        # the X-cluster layer's neighbor lists are the Graph CSR rows of the
        # cluster's local edges
        c = Cluster(id=0, level=1, vertices=verts, boundary=verts[cut], edges=eids)
        dyn = _ClusterDyn(g, c)
        lu, lv = np.searchsorted(verts, g.edge_u[eids]), np.searchsorted(verts, g.edge_v[eids])
        ref = Graph(len(verts), np.stack([lu, lv], axis=1))
        for i in range(len(verts)):
            assert dyn.adj[i] == ref.neighbors(i).tolist()


class TestActiveState:
    def test_flip_budget_and_recompute(self):
        g = grid_graph(10)
        nc = nested_r_clustering(g, 20, 4, 0.5, c_r=0.05)
        st = ActiveState(nc)
        v = int(nc.cluster(nc.level1[0]).vertices[0])
        st.set_vertex_state(v, "active")
        st.set_vertex_state(v, "passive")
        with pytest.raises(ValueError):
            st.set_vertex_state(v, "active")

    def test_x_cap(self):
        g = grid_graph(8)
        nc = nested_r_clustering(g, 16, 4, 0.5, c_r=0.05)
        assert isinstance(nc, NestedClustering)
        st = ActiveState(nc, x_cap=2)
        st.set_many([0, 1], "active")
        with pytest.raises(ValueError):
            st.set_vertex_state(2, "active")

    def test_decompose_matches_bfs_under_flips(self):
        g = grid_graph(12)
        nc = nested_r_clustering(g, 20, 4, 0.5, c_r=0.05)
        st = ActiveState(nc)
        rnd = random.Random(5)
        seq = rnd.sample(range(g.n), 36)
        for i, v in enumerate(seq):
            st.set_vertex_state(v, "active")
            if i % 4 == 0:
                self._compare(g, nc, st)
        for v in seq[:12]:
            st.set_vertex_state(v, "passive")
        self._compare(g, nc, st)

    def test_decompose_weighted_under_flips(self):
        # heavy-tailed weights make any lost shared-vertex correction visible
        base = grid_graph(14)
        rng = np.random.Generator(np.random.PCG64(7))
        w = np.minimum(np.floor(10 * (1 + rng.pareto(1.5, base.n))), 10**6).astype(np.int64)
        g = Graph(base.n, np.stack([base.edge_u, base.edge_v], axis=1), vertex_weight=w.tolist())
        nc = nested_r_clustering(g, 24, 4, 0.5, c_r=0.05)
        assert isinstance(nc, NestedClustering)
        st = ActiveState(nc)
        rnd = random.Random(11)
        seq: list[int] = []
        while len(seq) < 40:  # neighbours of random centres cut G - X apart
            seq.extend(u for u in g.neighbors(rnd.randrange(g.n)).tolist() if u not in seq)
        for i, v in enumerate(seq[:40]):
            st.set_vertex_state(v, "active")
            if i % 5 == 4:
                st.set_vertex_state(seq[i - 2], "passive")
            self._compare(g, nc, st)

    @staticmethod
    def _compare(g, nc, st):
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
                expected.append((glob, sum(int(g.vertex_weight[v]) for v in glob), len(glob)))
        expected.sort()
        got = []
        for members, w, cnt in comps:
            assert members == sorted(members)
            assert type(w) is int and type(cnt) is int
            vs = set()
            for cid, idx in members:
                vs.update(st.dyn[cid].xclusters[idx].vertices.tolist())
            got.append((sorted(vs), w, cnt))
        got.sort()
        assert got == expected
        # the loop's tie-break reads the first member: components come in its order
        firsts = [members[0] for members, _, _ in comps]
        assert firsts == sorted(firsts) and len(set(firsts)) == len(firsts)
