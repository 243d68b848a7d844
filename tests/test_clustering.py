import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import clustering, debugcheck, graph
from sepkit.certificates import MinorReport, MinorWitness, verify_output
from sepkit.clustering import (
    SMALL_SPLIT_CUTOFF,
    ActiveState,
    Cluster,
    Clustering,
    ClusteringError,
    NestedClustering,
    _adjacency_lists,
    _ClusterDyn,
    _direct_split,
    _local_ends,
    _pieces_around_cut,
    _verts_of_edges,
    decompose_active_complement,
    nested_r_clustering,
    refine_to_r_clustering,
    split_cluster_two_weights,
    weak_r_clustering,
)
from sepkit.generators import generate_graph, grid_graph, kh_blowup_graph, path_graph
from sepkit.graph import Graph, connected_components, induced_subgraph
from sepkit.minorfree import balanced_separator
from sepkit.shallow import ln_ceil


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

    @pytest.mark.parametrize("eps,c_r,message", [
        (0.0, 0.05, "eps must be in"), (-0.5, 0.05, "eps must be in"),
        (7.0, 0.05, "eps must be in"), (0.5, float("nan"), "c_r must be finite"),
        (0.5, -3.0, "c_r must be finite"),
    ])
    @pytest.mark.parametrize("build", [weak_r_clustering, nested_r_clustering])
    def test_eps_and_c_r_checked(self, build, eps, c_r, message):
        with pytest.raises(ValueError, match=message):
            build(grid_graph(6), 10, 5, eps, c_r=c_r)

    def test_c_r_zero_is_legal(self):
        g = grid_graph(6)
        check_clustering_shape(g, weak_r_clustering(g, 2, 5, 0.5, c_r=0.0).clusters, r=2)

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


    @pytest.mark.parametrize("spec,moved,total", [
        ("grid 40", 132, 438), ("grid 56", 224, 779), ("grid 64", 264, 999),
        ("binary-tree 10", 236, 237), ("path 2000", 0, 137),
    ])
    def test_identity_at_balanced_r(self, spec, moved, total):
        # at the r balanced_separator picks with c_r = 0.05, refinement keeps
        # every weak cluster; it pops its work stack, so clusters that share
        # a smallest vertex come out in reverse weak order
        h, eps = 5, 0.5
        g = generate_graph(spec, 0)
        lnn = ln_ceil(g.n)
        ell = max(1, math.ceil(math.sqrt(g.n) / (h * math.sqrt(lnn))))
        r = max(2, math.ceil(g.n / (h * h * ell)))
        weak = weak_r_clustering(g, r, h, eps, c_r=0.05)
        refined = refine_to_r_clustering(weak, h, eps)

        def key(c):
            return c.vertices.tolist(), c.edges.tolist(), c.boundary.tolist()

        assert sorted(map(key, refined.clusters)) == sorted(map(key, weak.clusters))
        reversed_ties = sorted(reversed(weak.clusters), key=lambda c: int(c.vertices[0]))
        assert list(map(key, refined.clusters)) == list(map(key, reversed_ties))
        assert len(weak.clusters) == total
        assert sum(key(a) != key(b) for a, b in zip(weak.clusters, refined.clusters)) == moved


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


def _reference_direct_split(g, verts, eids, weights):
    """_direct_split's rule with networkx layers and the union-find pieces."""
    nn = len(verts)
    lu, lv = np.searchsorted(verts, g.edge_u[eids]), np.searchsorted(verts, g.edge_v[eids])
    local = nx.Graph()
    local.add_nodes_from(range(nn))
    local.add_edges_from(zip(lu.tolist(), lv.tolist()))
    d0 = nx.single_source_shortest_path_length(local, 0)
    far = max(range(nn), key=lambda i: (d0.get(i, -1), -i))
    dist = nx.single_source_shortest_path_length(local, far)
    maxd = max(dist.values())
    if maxd >= 2:
        def side_weight(keep):
            return sum(int(weights[i]) for i, d in dist.items() if keep(d))
        t = min(range(1, maxd), key=lambda t: (
            max(side_weight(lambda d: d < t), side_weight(lambda d: d > t)),
            sum(1 for d in dist.values() if d == t), t))
        cut = np.asarray(sorted(i for i, d in dist.items() if d == t), dtype=np.int64)
        return _reference_split(g, verts, eids, cut)
    star = lu == 0
    pieces = _reference_groups(g, eids[~star]) if (~star).any() else []
    star_e = eids[star]
    if len(_verts_of_edges(g, star_e)) == nn and len(star_e) >= 2:
        half = (len(star_e) + 1) // 2
        return pieces + [(_verts_of_edges(g, pe), pe) for pe in (star_e[:half], star_e[half:])]
    return pieces + [(_verts_of_edges(g, star_e), star_e)]


def _pieces(g, verts, eids, cut_local):
    """The one piece builder on the cluster's neighbor lists and a local cut."""
    lu, lv = (ends.tolist() for ends in _local_ends(g, verts, eids))
    incut = [False] * len(verts)
    for i in cut_local:
        incut[i] = True
    return _pieces_around_cut(verts, eids, lu, lv, _adjacency_lists(len(verts), lu, lv), incut)


@st.composite
def _host_cluster(draw, max_n=200):
    """A connected cluster of a larger host graph: (host, verts, eids).

    In "star" mode the cluster's two lowest vertices touch every other one,
    so the BFS from the far vertex has depth 1 and the star rule applies.
    """
    n = draw(st.integers(2, min(max_n, SMALL_SPLIT_CUTOFF)) | st.integers(2, max_n))
    star = draw(st.booleans())
    extra_hosts = draw(st.integers(0, 6))
    host_ids = sorted(draw(st.permutations(range(n + extra_hosts)))[:n])
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}   # a spanning tree
    if star:
        edges |= {(a, b) for a in (0, 1) for b in range(a + 1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    host_edges = [(host_ids[a], host_ids[b]) for a, b in edges]
    outside = [v for v in range(n + extra_hosts) if v not in set(host_ids)]
    # host edges off the cluster: an outside vertex joined to a cluster vertex
    host_edges += [(v, host_ids[0]) for v in outside]
    g = Graph(n + extra_hosts, host_edges)
    inside = np.zeros(g.n, dtype=bool)
    inside[host_ids] = True
    return g, np.asarray(host_ids, dtype=np.int64), np.flatnonzero(inside[g.edge_u] & inside[g.edge_v])


def _as_lists(pieces):
    return [(pv.tolist(), pe.tolist()) for pv, pe in pieces]


class TestLocalComponents:
    """The cluster-local component labelling and CSR against reference builds,
    on clusters on both sides of SMALL_SPLIT_CUTOFF."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_groups_split_and_csr_match_reference(self, data):
        n = data.draw(st.integers(2, 24) | st.integers(25, 200))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            min_size=max(1, n // 2), max_size=3 * n))
        g = Graph(n, list(edges))
        keep = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
        eids = np.flatnonzero(keep)
        if len(eids) == 0:
            eids = np.arange(1)
        verts = _verts_of_edges(g, eids)
        # the empty cut gives the connected edge groups
        assert _as_lists(_pieces(g, verts, eids, [])) == _as_lists(_reference_groups(g, eids))
        cut = np.asarray(sorted(data.draw(st.sets(st.integers(0, len(verts) - 1)))),
                         dtype=np.int64)
        assert (_as_lists(_pieces(g, verts, eids, cut))
                == _as_lists(_reference_split(g, verts, eids, cut)))
        # the X-cluster layer's neighbor lists are the Graph CSR rows of the
        # cluster's local edges
        c = Cluster(id=0, level=1, vertices=verts, boundary=verts[cut], edges=eids)
        dyn = _ClusterDyn(g, c)
        lu, lv = np.searchsorted(verts, g.edge_u[eids]), np.searchsorted(verts, g.edge_v[eids])
        ref = Graph(len(verts), np.stack([lu, lv], axis=1))
        for i in range(len(verts)):
            assert dyn.adj[i] == ref.neighbors(i).tolist()


    @settings(max_examples=200, deadline=None)
    @given(_host_cluster(), st.data())
    def test_direct_split_matches_reference(self, cluster, data):
        g, verts, eids = cluster
        if len(eids) < 2:   # single edges are leaves and never split
            return
        weights = np.asarray(data.draw(st.lists(st.integers(0, 3), min_size=len(verts),
                                                max_size=len(verts))), dtype=np.int64)
        assert (_as_lists(_direct_split(g, verts, eids, weights))
                == _as_lists(_reference_direct_split(g, verts, eids, weights)))

    @pytest.mark.parametrize("g", [
        path_graph(9),
        Graph(9, [(i, j) for i in range(9) for j in range(i + 1, 9)]),
        Graph(3, [(0, 1), (0, 2), (1, 2)]),
    ], ids=["path-layer-cut", "clique-star", "triangle-star"])
    def test_direct_split_covers_both_branches(self, g):
        # a path splits at a BFS layer; cliques take the star rule
        every = np.arange(g.n, dtype=np.int64)
        unit = np.ones(g.n, dtype=np.int64)
        eids = np.arange(g.m, dtype=np.int64)
        got = _as_lists(_direct_split(g, every, eids, unit))
        assert got == _as_lists(_reference_direct_split(g, every, eids, unit))
        assert len(got) >= 2 and all(len(pv) < g.n for pv, _ in got)

    @settings(max_examples=150, deadline=None)
    @given(_host_cluster(max_n=30), st.data())
    def test_recompute_matches_networkx_components(self, cluster, data):
        g, verts, eids = cluster
        weight = data.draw(st.lists(st.integers(1, 10**6), min_size=g.n, max_size=g.n))
        g = Graph(g.n, np.stack([g.edge_u, g.edge_v], axis=1), vertex_weight=weight)
        bnd = np.asarray(sorted(data.draw(st.sets(st.sampled_from(verts.tolist())))),
                         dtype=np.int64)
        active = np.zeros(g.n, dtype=bool)
        active[data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n))] = True
        dyn = _ClusterDyn(g, Cluster(id=0, level=1, vertices=verts, boundary=bnd, edges=eids))
        dyn.recompute(active)
        local = nx.Graph()
        local.add_nodes_from(v for v in verts.tolist() if not active[v])
        local.add_edges_from((u, v) for u, v in zip(g.edge_u[eids].tolist(), g.edge_v[eids].tolist())
                             if not active[u] and not active[v])
        expected = sorted((sorted(comp), sum(weight[v] for v in comp),
                           sorted(set(comp) & set(bnd.tolist())))
                          for comp in nx.connected_components(local))
        got = [(xc.vertices.tolist(), xc.weight, xc.passive_boundary.tolist())
               for xc in dyn.xclusters]
        assert got == expected   # numbered in order of smallest member
        for i, v in enumerate(verts.tolist()):
            x = dyn.xcluster_of_vertex(v)
            assert (x is None) if active[v] else (v in got[x][0])

    def test_no_csgraph_labelling_inside_splits(self, monkeypatch):
        # every split labels its pieces on lists; only the separator runs
        # inside _separator_split may call csgraph
        calls = {"inside": 0, "outside": 0, "large_splits": 0}
        depth = {"split": 0, "run": 0}
        labelling = graph.csgraph.connected_components
        splitter = clustering._separator_split

        def spy_labelling(*args, **kwargs):
            calls["inside" if depth["split"] and not depth["run"] else "outside"] += 1
            return labelling(*args, **kwargs)

        def spy(fn, key):
            def wrapped(*args, **kwargs):
                if fn is splitter and len(args[1]) > SMALL_SPLIT_CUTOFF:
                    calls["large_splits"] += 1
                depth[key] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[key] -= 1
            return wrapped

        monkeypatch.setattr(graph.csgraph, "connected_components", spy_labelling)
        for name, key in [("_separator_split", "split"), ("_direct_split", "split"),
                          ("shallow_separator", "run"), ("shallow_separator_balanced", "run")]:
            monkeypatch.setattr(clustering, name, spy(getattr(clustering, name), key))
        g = grid_graph(20)
        out = balanced_separator(g, 5, 0.5, seed=0, c_r=0.05)
        assert out.params["algorithm"] == "minorfree-balanced"
        assert calls["large_splits"] > 0 and calls["outside"] > 0
        assert calls["inside"] == 0


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

    def test_x_cap_counts_both_flip_directions(self):
        # the cap reads a running count; it must fire on the flip where the
        # active mask's own sum would first pass it, and not before
        g = grid_graph(8)
        nc = nested_r_clustering(g, 16, 4, 0.5, c_r=0.05)
        cap = 4
        st = ActiveState(nc, x_cap=cap)
        flips = [(v, "active") for v in range(4)] + [(1, "passive"), (2, "passive")]
        flips += [(v, "active") for v in range(4, 9)]
        for step, (v, to) in enumerate(flips):
            over = to == "active" and int(st.active.sum()) + 1 > cap
            if over:
                with pytest.raises(ValueError, match="cap exceeded"):
                    st.set_vertex_state(v, to)
                break
            st.set_vertex_state(v, to)
            assert st.n_active == int(st.active.sum())
        assert step == 8 and flips[step] == (6, "active")
        assert st.n_active == int(st.active.sum()) == cap and not st.active[6]

    def test_stale_record_trips_the_partition_rule(self):
        # a record whose partition predates a flip at one of its vertices
        g = grid_graph(10)
        nc = nested_r_clustering(g, 20, 4, 0.5, c_r=0.05)
        st = ActiveState(nc)
        st.set_many([33, 55], "active")
        cid = min(st.clusters_at(55))
        st.dyn[cid].recompute(np.zeros(g.n, dtype=bool))
        with pytest.raises(debugcheck.InvariantViolation) as err:
            clustering._check_cx_postconditions(st)
        assert err.value.rule == "cx.partition"
        st.dyn[cid].recompute(st.active)
        clustering._check_cx_postconditions(st)

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

    @pytest.mark.parametrize("spec,r,h", [("binary-tree 6", 12, 4), ("path 200", 16, 3),
                                          ("kh-blowup 5 40", 30, 5)])
    def test_flip_recomputes_every_cluster_holding_the_vertex(self, spec, r, h):
        # a degree-1 vertex stays interior to its single-edge leaf; that
        # leaf's partition must follow the vertex's flips like any other
        g = generate_graph(spec, 1)
        nc = nested_r_clustering(g, r, h, 0.5, c_r=0.05)
        assert isinstance(nc, NestedClustering)
        st = ActiveState(nc)
        rnd = random.Random(3)
        for step in range(60):
            if step % 3 == 2:
                pool = [v for v in range(g.n) if st.active[v] and not st.down_used[v]]
                to = "passive"
            else:
                pool = [v for v in range(g.n) if not st.up_used[v]]
                to = "active"
            st.set_vertex_state(rnd.choice(pool), to)
            for cid, dyn in st.dyn.items():
                fresh = _ClusterDyn(g, nc.cluster(cid))
                fresh.recompute(st.active)
                assert dyn.xcl_of == fresh.xcl_of, (step, cid)
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
