"""Edge cases pinned by the documented contracts of each layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import debugcheck
from sepkit.certificates import (
    MinorReport,
    MinorWitness,
    Separator,
    certificate_from_json,
    certificate_to_json,
    verify_output,
)
from sepkit.clustering import (
    ActiveState,
    NestedClustering,
    decompose_active_complement,
    nested_r_clustering,
)
from sepkit.ddg import DdgLayer
from sepkit.generators import grid_graph, path_graph
from sepkit.graph import Graph
from sepkit.shallow import BranchLedger


@pytest.fixture(autouse=True)
def _debug_asserts():
    debugcheck.enable(True)
    yield
    debugcheck.enable(False)


class TestClusteringMinorSide:
    def test_k10_h4_minor_side(self):
        k10 = Graph(10, [(i, j) for i in range(10) for j in range(i + 1, 10)])
        out = nested_r_clustering(k10, 5, 4, 0.5, c_r=0.05)
        assert isinstance(out, (MinorWitness, MinorReport))
        assert verify_output(k10, out).ok


class TestDecomposeSplitPath:
    def test_interior_split_weights(self):
        # activating an interior path vertex forces an expansion that leaves a
        # passive boundary vertex on each side: two components, exact weights
        g = path_graph(10)
        nc = nested_r_clustering(g, 6, 3, 0.5, c_r=0.02)
        assert isinstance(nc, NestedClustering)
        st = ActiveState(nc)
        mult = np.zeros(g.n, dtype=int)
        for cid in nc.level1:
            mult[nc.cluster(cid).vertices] += 1
        interior = [v for v in range(1, g.n - 1) if mult[v] == 1]
        v = interior[len(interior) // 2]
        st.set_vertex_state(v, "active")
        comps = decompose_active_complement(st)
        weights = sorted(w for _, w, _ in comps)
        assert weights == sorted([v, g.n - 1 - v])

    def test_shared_vertex_hides_boundaryless_side(self):
        # activating a vertex that is the only boundary vertex of a segment
        # leaves that segment without passive boundary: absent by contract
        g = path_graph(10)
        nc = nested_r_clustering(g, 6, 3, 0.5, c_r=0.02)
        assert isinstance(nc, NestedClustering)
        st = ActiveState(nc)
        mult = np.zeros(g.n, dtype=int)
        for cid in nc.level1:
            mult[nc.cluster(cid).vertices] += 1
        shared = int(np.flatnonzero(mult > 1)[0])
        st.set_vertex_state(shared, "active")
        comps = decompose_active_complement(st)
        total_visible = sum(w for _, w, _ in comps)
        assert total_visible <= g.n - 1

    def test_fully_active_segment_contributes_no_xclusters(self):
        g = path_graph(9)
        nc = nested_r_clustering(g, 5, 3, 0.5, c_r=0.02)
        assert isinstance(nc, NestedClustering)
        st = ActiveState(nc)
        cid = nc.level1[0]
        c = nc.cluster(cid)
        if len(c.boundary) == 0:
            pytest.skip("single-cluster layout")
        st.set_many(c.boundary.tolist(), "active")
        dyn = st.dyn.get(cid)
        if dyn is not None:
            # a segment whose boundary is fully active keeps no qualifying
            # X-cluster (no passive boundary vertex remains)
            assert all(len(x.passive_boundary) == 0 or
                       not st.active[x.passive_boundary].any()
                       for x in dyn.xclusters)


class TestDegenerateTreeSearch:
    def test_no_slots_gives_singleton_tree(self):
        g = grid_graph(10)
        nc = nested_r_clustering(g, 20, 4, 0.5, c_r=0.05)
        assert isinstance(nc, NestedClustering)
        st = ActiveState(nc)
        layer = DdgLayer(st, BranchLedger(g.n), 0.5, seed=2)
        sx = layer.assemble()
        s = int(sx.vertices[0])
        res = layer.find_tree_or_far_pair(s, [], ell=2, h=4)
        assert res.kind == "tree"
        assert res.tree_vertices.tolist() == [s]


class TestSerializationProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_separator_roundtrip(self, data):
        n = data.draw(st.integers(1, 20))
        ids = list(range(n))
        labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        parts = {0: [], 1: [], 2: []}
        for v, lab in zip(ids, labels):
            parts[lab].append(v)
        sep = Separator(C=np.array(parts[0], dtype=np.int64), A=np.array(parts[1], dtype=np.int64),
                        B=np.array(parts[2], dtype=np.int64),
                        claimed_bound=data.draw(st.one_of(st.none(), st.integers(0, n))),
                        params={"h": data.draw(st.integers(2, 8))})
        text = certificate_to_json(sep)
        again = certificate_to_json(certificate_from_json(text))
        assert text == again

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_witness_roundtrip(self, data):
        h = data.draw(st.integers(1, 4))
        used = set()
        sets = []
        for i in range(h):
            size = data.draw(st.integers(1, 3))
            base = max(used, default=-1) + 1
            members = list(range(base, base + size))
            used.update(members)
            sets.append(np.array(members))
        wtn = MinorWitness(branch_sets=sets,
                           depth_bound=data.draw(st.one_of(st.none(), st.integers(0, 5))))
        text = certificate_to_json(wtn)
        assert certificate_to_json(certificate_from_json(text)) == text
