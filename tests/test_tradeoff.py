import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import debugcheck
from sepkit.certificates import MinorReport, MinorWitness, Separator, verify_output
from sepkit.generators import grid_graph, kh_blowup_graph, path_graph
from sepkit.graph import Graph, gather_neighbors
from sepkit.tradeoff import (
    contract_by_partition,
    linear_time_separator,
    partition_spanning_tree,
    tradeoff_separator,
    tree_partition,
)


@pytest.fixture(autouse=True)
def _debug_asserts():
    debugcheck.enable(True)
    yield
    debugcheck.enable(False)


def reference_partition_spanning_tree(parent, order, target, degree_cap):
    """The per-vertex loops that partition_spanning_tree replaced."""
    n = len(parent)
    z = max(1, math.ceil(target / degree_cap))
    par = parent.tolist()
    visit = order.tolist()
    residual = [1] * n
    carve = [False] * n
    for v in reversed(visit):
        if residual[v] >= z:
            carve[v] = True
            residual[v] = 0
        p = par[v]
        if p >= 0:
            residual[p] += residual[v]
    sub = [-1] * n
    next_id = 0
    for v in visit:
        p = par[v]
        if carve[v] or p < 0 or sub[p] < 0:
            sub[v] = next_id
            next_id += 1
        else:
            sub[v] = sub[p]
    return np.array(sub, dtype=np.int64), next_id


def reference_forest(g, live_ids):
    """The per-level frontier search that tree_partition replaced: parents
    and visit order of its breadth-first spanning forest."""
    mask = np.zeros(g.n, dtype=bool)
    mask[live_ids] = True
    parent = np.full(g.n, -1, dtype=np.int64)
    seenq = []
    seen = np.zeros(g.n, dtype=bool)
    for root in live_ids.tolist():
        if seen[root]:
            continue
        seen[root] = True
        frontier = np.asarray([root], dtype=np.int64)
        seenq.append(root)
        while len(frontier):
            nbrs = gather_neighbors(g.indptr, g.indices, frontier)
            src = np.repeat(frontier, g.indptr[frontier + 1] - g.indptr[frontier])
            keep = mask[nbrs] & ~seen[nbrs]
            nbrs, src = nbrs[keep], src[keep]
            if len(nbrs) == 0:
                break
            uniq, first = np.unique(nbrs, return_index=True)
            parent[uniq] = src[first]
            seen[uniq] = True
            seenq.extend(uniq.tolist())
            frontier = uniq
    return parent, np.asarray(seenq, dtype=np.int64)


def reference_members(g, live_ids, subtree_of, count):
    """Quotient edges, weights and members as contract_by_partition built them."""
    label = np.full(g.n, -1, dtype=np.int64)
    label[live_ids] = subtree_of[live_ids]
    keep = (label[g.edge_u] >= 0) & (label[g.edge_v] >= 0)
    qu, qv = label[g.edge_u[keep]], label[g.edge_v[keep]]
    inter = qu != qv
    weights = np.zeros(count, dtype=np.int64)
    np.add.at(weights, label[live_ids], g.vertex_weight[live_ids])
    quotient = Graph(count, np.stack([qu[inter], qv[inter]], axis=1) if inter.any() else [],
                     vertex_weight=weights.tolist())
    members = [live_ids[label[live_ids] == q] for q in range(count)]
    return quotient, members


class TestAgainstReference:
    """The numpy pre-phase against the loops it replaced, output for output."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_forest_partition(self, data):
        n = data.draw(st.integers(1, 60))
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        # a random parents-first order, and a forest consistent with it
        order = list(range(n))
        rnd.shuffle(order)
        parent = np.full(n, -1, dtype=np.int64)
        for i in range(1, n):
            if rnd.random() < 0.9:
                parent[order[i]] = order[rnd.randrange(i)]
        cap = data.draw(st.integers(1, 6))
        # z = 1 when target <= cap
        target = data.draw(st.one_of(st.integers(1, cap), st.integers(cap + 1, 40)))
        order = np.asarray(order, dtype=np.int64)
        tp = partition_spanning_tree(parent, order, target, cap)
        sub, count = reference_partition_spanning_tree(parent, order, target, cap)
        assert tp.parent is parent
        assert tp.subtree_of.tolist() == sub.tolist() and tp.count == count

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_graph_partition_and_quotient(self, data):
        n = data.draw(st.integers(1, 40))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            max_size=2 * n))
        weights = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        g = Graph(n, list(edges), vertex_weight=weights)
        live_ids = np.flatnonzero(np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                                               max_size=n)), dtype=bool))
        cap = max(1, int(g.degrees().max(initial=0)))
        target = data.draw(st.integers(1, 12))
        tp = tree_partition(g, live_ids, target, cap)
        parent, order = reference_forest(g, live_ids)
        sub, count = reference_partition_spanning_tree(parent, order, target, cap)
        assert tp.parent.tolist() == parent.tolist()
        assert tp.subtree_of.tolist() == sub.tolist() and tp.count == count
        quo = contract_by_partition(g, live_ids, tp)
        ref_graph, ref_members = reference_members(g, live_ids, sub, count)
        assert quo.graph.edge_list() == ref_graph.edge_list()
        assert quo.graph.vertex_weight.tolist() == ref_graph.vertex_weight.tolist()
        assert [m.tolist() for m in quo.members] == [m.tolist() for m in ref_members]


class TestPartitionSpanningTree:
    def test_path_exact_tiles(self):
        parent = np.array([-1] + list(range(99)), dtype=np.int64)
        order = np.arange(100, dtype=np.int64)
        tp = partition_spanning_tree(parent, order, 10, 1)
        sizes = np.bincount(tp.subtree_of)
        assert tp.count == 10 and set(sizes.tolist()) == {10}

    def test_star_single_piece(self):
        parent = np.array([-1] + [0] * 20, dtype=np.int64)
        order = np.arange(21, dtype=np.int64)
        tp = partition_spanning_tree(parent, order, 30, 25)
        assert tp.count == 1

    def test_random_tree_size_bound(self):
        rnd = random.Random(4)
        n = 1000
        parent = np.array([-1] + [rnd.randrange(i) for i in range(1, n)], dtype=np.int64)
        order = np.arange(n, dtype=np.int64)
        degs = np.bincount(parent[parent >= 0], minlength=n) + 1
        cap = int(degs.max())
        tp = partition_spanning_tree(parent, order, 37, cap)
        sizes = np.bincount(tp.subtree_of)
        assert int(sizes.max()) <= 37 + cap
        # classes are connected in the tree
        for v in range(1, n):
            if tp.subtree_of[v] != tp.subtree_of[parent[v]]:
                continue
        roots = sum(1 for v in range(n) if parent[v] < 0 or tp.subtree_of[v] != tp.subtree_of[parent[v]])
        assert roots == tp.count

    def test_degree_cap_validated_in_driver(self):
        g = Graph(6, [(0, i) for i in range(1, 6)])
        with pytest.raises(ValueError):
            tree_partition(g, np.arange(6), 3, 2)


class TestContraction:
    def test_weight_preservation(self):
        g = grid_graph(8)
        tp = tree_partition(g, np.arange(g.n), 7, 4)
        quo = contract_by_partition(g, np.arange(g.n), tp)
        assert int(quo.graph.total_vertex_weight) == g.n
        assert quo.graph.n == tp.count
        # members partition the live set
        seen = np.zeros(g.n, dtype=np.int64)
        for mem in quo.members:
            seen[mem] += 1
        assert (seen == 1).all()

    def test_quotient_simple(self):
        g = grid_graph(6)
        tp = tree_partition(g, np.arange(g.n), 5, 4)
        quo = contract_by_partition(g, np.arange(g.n), tp)
        eu, ev = quo.graph.edge_u, quo.graph.edge_v
        assert np.all(eu < ev)
        key = eu * quo.graph.n + ev
        assert len(np.unique(key)) == len(key)


class TestTradeoffSeparator:
    def test_small_quotient_trivial(self):
        g = path_graph(12)
        out = tradeoff_separator(g, 3, 0.8, 0.5, seed=0)
        assert verify_output(g, out).ok

    def test_grid_sizes(self):
        for k in (16, 32):
            g = grid_graph(k)
            out = tradeoff_separator(g, 5, 0.8, 0.5, seed=0)
            assert isinstance(out, Separator)
            assert verify_output(g, out).ok
            assert len(out.C) <= out.claimed_bound

    def test_delta_domain(self):
        g = path_graph(10)
        with pytest.raises(ValueError):
            tradeoff_separator(g, 3, 0.5, 0.5)
        with pytest.raises(ValueError):
            tradeoff_separator(g, 3, 1.0, 0.5)

    def test_dense_density_certificate(self):
        rnd = random.Random(1)
        edges = set()
        n = 40
        while len(edges) < 420:
            a, b = rnd.randrange(n), rnd.randrange(n)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        g = Graph(n, sorted(edges))
        out = tradeoff_separator(g, 4, 0.75, 0.5, seed=0)
        assert isinstance(out, (MinorReport, MinorWitness))
        assert verify_output(g, out).ok

    def test_k20_minor_side(self):
        g = Graph(20, [(i, j) for i in range(20) for j in range(i + 1, 20)])
        out = linear_time_separator(g, 5, 0.5, seed=0)
        assert isinstance(out, (MinorReport, MinorWitness))
        assert verify_output(g, out).ok

    def test_single_edge(self):
        g = path_graph(2)
        out = linear_time_separator(g, 3, 0.5, seed=0)
        assert isinstance(out, Separator)
        assert verify_output(g, out).ok

    def test_quotient_witness_lifts(self):
        # blow-up whose quotient run finds the minor: the lifted witness
        # must be verifier-clean on the original graph
        g = kh_blowup_graph(6, 60, seed=2)
        out = tradeoff_separator(g, 6, 0.8, 0.5, seed=0)
        assert verify_output(g, out).ok
        if isinstance(out, MinorWitness):
            assert out.h == 6

    def test_high_degree_separator_path(self):
        # hub-and-spoke: removing the single high-degree hub separates
        spokes = 60
        edges = []
        for i in range(spokes):
            base = 1 + 3 * i
            edges += [(0, base), (base, base + 1), (base + 1, base + 2)]
        g = Graph(1 + 3 * spokes, edges)
        out = tradeoff_separator(g, 3, 0.75, 0.5, seed=0)
        assert isinstance(out, Separator)
        assert verify_output(g, out).ok
        assert out.params.get("path") == "high-degree-only"
        assert 0 in out.C
