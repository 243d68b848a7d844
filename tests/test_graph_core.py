import io

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from sepkit.graph import (
    DIAMETER_BLOCK_ENTRIES,
    Graph,
    GraphFormatError,
    MaskedSubgraph,
    VertexSet,
    connected_components,
    density_threshold,
    dump_graph,
    induced_subgraph,
    load_graph,
    masked_bfs,
    masked_components,
    masked_diameter,
    neighborhood,
    sparsity_guard,
    symmetric_components,
    total_weight,
)


def grid_graph(k):
    edges = []
    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                edges.append((i * k + j, (i + 1) * k + j))
            if j + 1 < k:
                edges.append((i * k + j, i * k + j + 1))
    return Graph(k * k, edges)


class TestLoadGraph:
    def test_smallest_nonempty(self):
        g = load_graph(b"0 1\n")
        assert g.n == 2 and g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError) as ei:
            load_graph(b"0 0\n")
        assert ei.value.line == 1

    def test_grid_edge_count(self):
        # k x k grid has 2k(k-1) edges
        k = 3
        g = grid_graph(k)
        text = dump_graph(g)
        g2 = load_graph(text)
        assert g2.n == 9 and g2.m == 2 * k * (k - 1) == 12

    def test_weights_and_comments(self):
        g = load_graph("# comment\nw 0 5\n0 1\nw 2 0\n1 2\n")
        assert g.vertex_weight.tolist() == [5, 1, 0]

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph("w 0 -3\n0 1\n")

    def test_duplicate_edges_collapse(self):
        g = load_graph("0 1\n1 0\n0 1\n")
        assert g.m == 1

    def test_dimacs(self):
        g = load_graph("c comment\np edge 4 2\ne 1 2\ne 3 4\n", fmt="dimacs")
        assert g.n == 4 and g.m == 2
        assert g.has_edge(0, 1) and g.has_edge(2, 3)

    def test_dimacs_roundtrip(self):
        g = grid_graph(3)
        g2 = load_graph(dump_graph(g, fmt="dimacs"), fmt="dimacs")
        assert g2.edge_list() == g.edge_list()

    def test_parse_error_line_number(self):
        with pytest.raises(GraphFormatError) as ei:
            load_graph("0 1\nnot an edge line at all\n")
        assert ei.value.line == 2


class TestNeighborhood:
    def test_path_delta1(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert neighborhood(g, VertexSet([0]), 1) == {0, 1}

    def test_path_delta2(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert neighborhood(g, VertexSet([0]), 2) == {0, 1, 2}

    def test_empty(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert len(neighborhood(g, VertexSet(), 3)) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_composition(self, data):
        n = data.draw(st.integers(2, 12))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            max_size=24))
        g = Graph(n, list(edges))
        xs = VertexSet(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
        d1 = data.draw(st.integers(1, 3))
        d2 = data.draw(st.integers(1, 3))
        lhs = neighborhood(g, xs, d1 + d2)
        rhs = neighborhood(g, neighborhood(g, xs, d1), d2)
        assert lhs == rhs


class TestInducedSubgraph:
    def test_c4_adjacent_pair(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        sub, mapping = induced_subgraph(c4, VertexSet([0, 1]))
        assert sub.n == 2 and sub.m == 1

    def test_c4_opposite_pair(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        sub, _ = induced_subgraph(c4, VertexSet([0, 2]))
        assert sub.n == 2 and sub.m == 0

    def test_k5_triple(self):
        k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        sub, mapping = induced_subgraph(k5, VertexSet([1, 3, 4]))
        assert sub.n == 3 and sub.m == 3
        assert sorted(mapping) == [1, 3, 4]

    def test_weights_carried(self):
        g = Graph(3, [(0, 1), (1, 2)], vertex_weight=[7, 1, 9])
        sub, mapping = induced_subgraph(g, VertexSet([0, 2]))
        assert sub.vertex_weight.tolist() == [7, 9]

    def test_components_commute_with_union_of_components(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        xs = VertexSet([0, 1, 4, 5])
        sub, mapping = induced_subgraph(g, xs)
        comps = connected_components(sub)
        back = {v: k for k, v in mapping.items()}
        lifted = [frozenset(back[x] for x in c) for c in comps]
        host = [frozenset(c.ids()) & frozenset(xs.ids()) for c in connected_components(g)]
        host = [c for c in host if c]
        assert sorted(lifted, key=min) == sorted(host, key=min)


class TestComponents:
    def test_empty(self):
        assert connected_components(Graph(0, [])) == []

    def test_two_disjoint_edges(self):
        comps = connected_components(Graph(4, [(0, 1), (2, 3)]))
        assert [len(c) for c in comps] == [2, 2]
        assert comps[0] == {0, 1}

    def test_grid_connected(self):
        comps = connected_components(grid_graph(3))
        assert len(comps) == 1 and len(comps[0]) == 9


class TestSymmetricComponents:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_labels_equal_undirected(self, data):
        # strong components of a symmetric matrix: same count and labels as
        # the undirected search, numbered by each component's smallest id
        n = data.draw(st.integers(1, 40))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] != t[1]), max_size=2 * n))
        mat = Graph(n, list(edges)).csr()
        ncomp, labels = symmetric_components(mat)
        ref_ncomp, ref_labels = csgraph.connected_components(mat, directed=False)
        assert ncomp == ref_ncomp and labels.tolist() == ref_labels.tolist()
        firsts = [int(np.flatnonzero(labels == c)[0]) for c in range(ncomp)]
        assert firsts == sorted(firsts)


class TestMaskedSubgraph:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_agrees_with_induced_subgraph(self, data):
        # edges only within blocks v % blocks, so masks span several components
        n = data.draw(st.integers(1, 14))
        blocks = data.draw(st.integers(1, 3))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] != t[1] and t[0] % blocks == t[1] % blocks),
            max_size=28))
        g = Graph(n, list(edges))
        ids = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        mask = VertexSet(ids).to_mask(n)
        sub, _ = induced_subgraph(g, VertexSet(ids))
        # the kernel's matrix: canonical, symmetric, float64, and its csgraph
        # queries equal the undirected ones on a reference CSR of G[ids]
        ms = MaskedSubgraph(g, np.asarray(ids))
        assert ms.mat.dtype == np.float64 and ms.mat.has_canonical_format
        assert (ms.mat != ms.mat.T).nnz == 0
        ref = sub.csr()
        ref_ncomp, ref_labels = csgraph.connected_components(ref, directed=False)
        ncomp, labels = ms.components()
        assert ncomp == ref_ncomp and labels.tolist() == ref_labels.tolist()
        ida = np.asarray(ids)
        for i, v in enumerate(ids):
            ref_dist, ref_pred = csgraph.dijkstra(ref, directed=False, unweighted=True, indices=i,
                                                  return_predecessors=True)
            dist, pred = ms.bfs(v)
            assert dist[ida].tolist() == ref_dist.tolist()
            has = ref_pred >= 0  # scipy marks "no predecessor" with -9999
            assert pred[ida].tolist() == np.where(has, ida[np.where(has, ref_pred, 0)], -1).tolist()
            assert np.isinf(np.delete(dist, ida)).all() and (np.delete(pred, ida) == -1).all()
        # components: same partition, numbered by smallest vertex id
        got_ids, ncomp, labels = masked_components(g, mask)
        assert got_ids.tolist() == ids
        comps = [[ids[i] for i in c] for c in connected_components(sub)]
        assert ncomp == len(comps)
        assert [[int(v) for v in got_ids[labels == c]] for c in range(ncomp)] == comps
        # BFS from one masked vertex: hop distances equal those in G[mask],
        # and every predecessor is a masked neighbor one hop closer
        start = data.draw(st.sampled_from(ids))
        dist, pred = masked_bfs(g, mask, start)
        reach = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.neighbors(u).tolist():
                    if mask[w] and w not in reach:
                        reach[w] = reach[u] + 1
                        nxt.append(w)
            frontier = nxt
        assert {v: int(dist[v]) for v in range(n) if np.isfinite(dist[v])} == reach
        assert pred[start] == -1
        for v, d in reach.items():
            if v != start:
                assert g.has_edge(v, pred[v]) and dist[pred[v]] == d - 1
        assert all(pred[v] == -1 for v in range(n) if v not in reach)


class TestMaskedDiameter:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_agrees_with_networkx(self, data):
        n = data.draw(st.integers(1, 14))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            max_size=30))
        g = Graph(n, list(edges))
        ids = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        sub = nx.Graph()
        sub.add_nodes_from(ids)
        sub.add_edges_from((u, v) for u, v in g.edge_list() if u in ids and v in ids)
        want = nx.diameter(sub) if nx.is_connected(sub) else None
        assert masked_diameter(g, np.asarray(ids)) == want

    def test_singleton(self):
        g = grid_graph(3)
        assert masked_diameter(g, np.array([4])) == 0

    def test_path_over_three_source_blocks(self, monkeypatch):
        n = 1500
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        calls = []
        real = csgraph.shortest_path

        def counting(*args, **kwargs):
            calls.append(len(kwargs["indices"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(csgraph, "shortest_path", counting)
        assert masked_diameter(g, np.arange(n)) == n - 1
        assert len(calls) == 3 and sum(calls) == n
        assert max(calls) * n <= DIAMETER_BLOCK_ENTRIES
        # a sub-path, and two runs with a gap between them
        assert masked_diameter(g, np.arange(500, 1000)) == 499
        assert masked_diameter(g, np.r_[0:10, 20:30]) is None


class TestTotalWeight:
    def test_unit(self):
        g = Graph(6, [(0, 1)])
        assert total_weight(g, VertexSet(range(5))) == 5

    def test_empty(self):
        g = Graph(6, [(0, 1)])
        assert total_weight(g, VertexSet()) == 0

    def test_mixed(self):
        g = Graph(3, [(0, 1)], vertex_weight=[1, 2, 4])
        assert total_weight(g, VertexSet([0, 1, 2])) == 7


class TestSparsityGuard:
    def test_k5_mader_h3(self):
        k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        cert = sparsity_guard(k5, 3, "mader-proven")
        assert cert is not None and cert.m == 10 and cert.m > cert.threshold
        # density implies an actual K3 minor on this instance
        from sepkit.certificates import brute_force_minor_detect

        assert brute_force_minor_detect(k5, 3) is not None

    def test_empty_graph_passes(self):
        g = Graph(4, [])
        assert sparsity_guard(g, 2, "mader-proven") is None
        assert sparsity_guard(g, 2, "thomason-soft") is None

    def test_grid_thomason_h5(self):
        g = grid_graph(3)
        assert sparsity_guard(g, 5, "thomason-soft") is None

    def test_monotone_in_edges(self):
        # adding edges never flips a certificate back to pass
        n = 8
        all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        fired = False
        for m in range(1, len(all_edges) + 1):
            cert = sparsity_guard(Graph(n, all_edges[:m]), 3, "mader-proven")
            if fired:
                assert cert is not None
            fired = cert is not None

    def test_threshold_deterministic(self):
        assert density_threshold("mader-proven", 4, 100) == 200
        assert density_threshold("thomason-soft", 4, 100) == density_threshold("thomason-soft", 4, 100)


class TestVertexSet:
    def test_basic(self):
        s = VertexSet([3, 1, 2, 1])
        assert len(s) == 3 and list(s) == [1, 2, 3] and 2 in s

    def test_mask_roundtrip(self):
        s = VertexSet([0, 5, 9])
        assert VertexSet.from_mask(s.to_mask(12)) == s

    @pytest.mark.parametrize("n", [0, 1, 40, 1000])
    def test_from_mask_equals_list_constructor(self, n):
        mask = np.random.default_rng(n).random(n) < 0.3
        got = VertexSet.from_mask(mask)
        want = VertexSet(np.flatnonzero(mask).tolist())
        assert got == want and hash(got) == hash(want)
        assert got.ids() == want.ids() and list(got) == list(want)
        assert all(type(v) is int for v in got.ids())
