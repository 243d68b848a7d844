import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import debugcheck
from sepkit.certificates import (
    MinorReport,
    MinorWitness,
    Separator,
    brute_force_min_separator,
    brute_force_minor_detect,
    verify_output,
)
from sepkit.graph import Graph, HostSubgraph, VertexSet, connected_components, induced_subgraph
from sepkit.shallow import (
    PartitionState,
    _park_light_components,
    ln_ceil,
    shallow_separator,
    shallow_separator_balanced,
    tree_or_cut,
)


@pytest.fixture(autouse=True)
def _debug_asserts():
    debugcheck.enable(True)
    yield
    debugcheck.enable(False)


def grid(k):
    edges = []
    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                edges.append((i * k + j, (i + 1) * k + j))
            if j + 1 < k:
                edges.append((i * k + j, i * k + j + 1))
    return Graph(k * k, edges)


def kcomplete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestTreeOrCut:
    def test_k5_tree_immediately(self):
        res = tree_or_cut(kcomplete(5), [VertexSet([3])], ell=2, delta=1, start=0)
        assert res.kind == "tree"
        assert all(v in res.tree_vertices for v in (0, 3))

    def test_long_path_cut(self):
        n = 1000
        res = tree_or_cut(path(n), [VertexSet([n - 1])], ell=2, delta=1, start=0)
        assert res.kind == "cut"
        s = set(res.cut_S.ids())
        # exact conditions 2a/2b, checked directly on the path
        comp = set(range(n)) - s
        shell_out = {v for v in comp if any(abs(v - u) <= 1 for u in s)}
        assert 2 * len(shell_out) < min(len(s), len(comp))

    def test_single_vertex_tree(self):
        g = Graph(1, [])
        res = tree_or_cut(g, [VertexSet([0])], ell=3, delta=1, start=0)
        assert res.kind == "tree" and list(res.tree_vertices) == [0]

    def test_empty_a_set_rejected(self):
        with pytest.raises(ValueError):
            tree_or_cut(path(5), [VertexSet()], ell=1, delta=1, start=0)

    def test_no_a_sets_gives_singleton_tree_or_cut(self):
        res = tree_or_cut(kcomplete(4), [], ell=1, delta=1, start=2)
        assert res.kind == "tree" and 2 in res.tree_vertices


class TestParkLightComponents:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_keeps_the_heaviest_component(self, data):
        """G' is the heaviest component of G[live], ties to the smallest id,
        whichever vertex the first search runs from."""
        n = data.draw(st.integers(1, 16))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            max_size=n))
        weights = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        g = Graph(n, list(edges), vertex_weight=weights)
        live = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        dead = np.flatnonzero(~live).tolist()
        slots = data.draw(st.lists(st.one_of(
            st.none(), st.sets(st.sampled_from(dead), min_size=1).map(sorted)) if dead
            else st.none(), max_size=3))
        state = PartitionState(
            n=n, h=5, ell=1, eps=0.5, delta=3, in_vr=np.zeros(n, dtype=bool),
            in_b=np.zeros(n, dtype=bool),
            branch_slots=[None if s is None else np.asarray(s) for s in slots],
            live=live.copy(), parked=np.zeros(n, dtype=bool))
        # reference: every component of G[live], the heaviest first, then the
        # one with the smallest vertex id
        sub, _ = induced_subgraph(g, VertexSet.from_mask(live))
        ids = np.flatnonzero(live)
        comps = [ids[list(c.ids())] for c in connected_components(sub)]
        best = min(comps, key=lambda c: (-int(g.vertex_weight[c].sum()), int(c[0])),
                   default=np.empty(0, dtype=np.int64))
        gw = _park_light_components(g, state, HostSubgraph(g, live))
        assert gw == int(g.vertex_weight[best].sum())
        assert np.flatnonzero(state.live).tolist() == sorted(best.tolist())
        assert (state.parked == (live & ~state.live)).all()

    @pytest.mark.parametrize("weights, kept", [([1, 1, 1, 1], [0]), ([1, 2, 1, 1], [1]),
                                               ([0, 0, 1, 1], [0])])
    def test_tie_goes_to_the_smallest_id(self, weights, kept):
        # live {0, 1} as two components; the first branch set {3} touches
        # only vertex 1, so the first search runs from 1
        g = Graph(4, [(1, 3)], vertex_weight=weights)
        live = np.array([True, True, False, False])
        state = PartitionState(
            n=4, h=5, ell=1, eps=0.5, delta=3, in_vr=np.zeros(4, dtype=bool),
            in_b=np.zeros(4, dtype=bool), branch_slots=[None, np.array([3])],
            live=live.copy(), parked=np.zeros(4, dtype=bool))
        gw = _park_light_components(g, state, HostSubgraph(g, live))
        assert gw == weights[kept[0]] and np.flatnonzero(state.live).tolist() == kept
        assert np.flatnonzero(state.parked).tolist() == [1 - kept[0]]


class TestShallowSeparator:
    def test_kh_returns_witness(self):
        for h in (2, 3, 4, 5):
            g = kcomplete(h)
            out = shallow_separator(g, h, 1, 0.5, seed=0)
            assert isinstance(out, MinorWitness), f"h={h}"
            rep = verify_output(g, out)
            assert rep.ok, rep.violations

    def test_grid32_separator(self):
        g = grid(32)
        out = shallow_separator(g, 5, 8, 0.5, seed=0)
        assert isinstance(out, Separator)
        assert verify_output(g, out).ok
        lnn = ln_ceil(1024)
        assert out.claimed_bound is not None
        assert len(out.C) <= out.claimed_bound

    def test_two_triangles_cut_vertex(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        out4 = shallow_separator(g, 4, 1, 0.5, seed=0)
        assert verify_output(g, out4).ok
        out3 = shallow_separator(g, 3, 1, 0.5, seed=0)
        # triangle is a K3: the minor side must win for h=3
        assert isinstance(out3, (MinorWitness, MinorReport))
        assert verify_output(g, out3).ok
        if isinstance(out3, MinorWitness):
            assert brute_force_minor_detect(g, 3) is not None

    def test_disconnected_no_heavy_component(self):
        g = Graph(4, [(0, 1), (2, 3)])
        out = shallow_separator(g, 3, 1, 0.5, seed=0)
        assert isinstance(out, Separator) and len(out.C) == 0
        assert verify_output(g, out).ok

    def test_heavy_vertex(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], vertex_weight=[1, 1, 100, 1, 1])
        out = shallow_separator(g, 3, 1, 0.5, seed=0)
        assert verify_output(g, out).ok

    def test_deterministic(self):
        g = grid(12)
        a = shallow_separator(g, 4, 3, 0.5, seed=7)
        b = shallow_separator(g, 4, 3, 0.5, seed=7)
        assert isinstance(a, Separator) and isinstance(b, Separator)
        assert a.C == b.C and a.A == b.A and a.B == b.B

    def test_parameter_validation(self):
        g = path(4)
        with pytest.raises(ValueError):
            shallow_separator(g, 1, 1, 0.5)
        with pytest.raises(ValueError):
            shallow_separator(g, 3, 0, 0.5)
        with pytest.raises(ValueError):
            shallow_separator(g, 3, 1, 0.0)

    def test_iteration_budget_on_paths(self):
        for n, ell in ((200, 2), (400, 5)):
            stats = {}
            out = shallow_separator(path(n), 3, ell, 0.5, seed=1, stats=stats)
            assert verify_output(path(n), out).ok
            assert stats["iterations"] <= 16 * n // ell + 8 * 3 + 8


class TestShallowBalanced:
    def test_single_vertex(self):
        g = Graph(1, [])
        out = shallow_separator_balanced(g, 3, 0.5, seed=0)
        assert isinstance(out, Separator)
        assert verify_output(g, out).ok
        # exact 2/3 arithmetic forces the vertex into C
        assert list(out.C) == [0]

    def test_grid64_size_bound(self):
        g = grid(64)
        out = shallow_separator_balanced(g, 5, 0.5, seed=0)
        assert isinstance(out, Separator)
        assert verify_output(g, out).ok

    def test_grid64_builds_one_live_subgraph(self, monkeypatch):
        # G[live] is built once per call and edited as live shrinks
        from sepkit import shallow

        builds = []

        class Counting(HostSubgraph):
            __slots__ = ()

            def __init__(self, g, mask):
                builds.append(int(mask.sum()))
                super().__init__(g, mask)

        monkeypatch.setattr(shallow, "HostSubgraph", Counting)
        stats = {}
        out = shallow_separator_balanced(grid(64), 5, 0.5, seed=0, stats=stats)
        assert isinstance(out, Separator)
        assert builds == [64 * 64] and stats["iterations"] > 1

    def test_k10_minor_side(self):
        g = kcomplete(10)
        out = shallow_separator_balanced(g, 5, 0.5, seed=0)
        assert isinstance(out, (MinorWitness, MinorReport))
        assert verify_output(g, out).ok

    def test_small_graphs_vs_oracle(self):
        # on tiny instances: separator is never smaller than the optimum and
        # the minor side never contradicts the exact oracle
        rnd = random.Random(11)
        for trial in range(25):
            n = rnd.randrange(2, 11)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            m = rnd.randrange(n - 1, len(pairs) + 1)
            g = Graph(n, rnd.sample(pairs, m))
            from sepkit.graph import connected_components

            if len(connected_components(g)) != 1:
                continue
            for h in (3, 4):
                out = shallow_separator_balanced(g, h, 0.5, seed=trial)
                assert verify_output(g, out).ok
                if isinstance(out, Separator):
                    opt = brute_force_min_separator(g)
                    assert opt is not None and len(out.C) >= len(opt.C)
                else:
                    assert brute_force_minor_detect(g, h) is not None
