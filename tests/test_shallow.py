import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import debugcheck, minorfree, shallow
from sepkit.certificates import (
    MinorReport,
    MinorWitness,
    Separator,
    brute_force_min_separator,
    brute_force_minor_detect,
    verify_output,
)
from sepkit.generators import generate_graph
from sepkit.minorfree import minor_free_separator
from sepkit.graph import (
    Graph,
    HostSubgraph,
    connected_components,
    gather_neighbors,
    gather_rows,
    induced_subgraph,
)
from sepkit.shallow import (
    BranchLedger,
    PartitionState,
    _attachments,
    _pair_edges,
    _park_light_components,
    _representatives,
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
        res = tree_or_cut(kcomplete(5), [np.array([3])], ell=2, delta=1, start=0)
        assert res.kind == "tree"
        assert all(v in res.tree_vertices for v in (0, 3))

    def test_long_path_cut(self):
        n = 1000
        res = tree_or_cut(path(n), [np.array([n - 1])], ell=2, delta=1, start=0)
        assert res.kind == "cut"
        s = set(res.cut_S.tolist())
        # exact conditions 2a/2b, checked directly on the path
        comp = set(range(n)) - s
        shell_out = {v for v in comp if any(abs(v - u) <= 1 for u in s)}
        assert 2 * len(shell_out) < min(len(s), len(comp))

    def test_single_vertex_tree(self):
        g = Graph(1, [])
        res = tree_or_cut(g, [np.array([0])], ell=3, delta=1, start=0)
        assert res.kind == "tree" and list(res.tree_vertices) == [0]

    def test_empty_a_set_rejected(self):
        with pytest.raises(ValueError):
            tree_or_cut(path(5), [np.empty(0, dtype=np.int64)], ell=1, delta=1, start=0)

    def test_no_a_sets_gives_singleton_tree_or_cut(self):
        res = tree_or_cut(kcomplete(4), [], ell=1, delta=1, start=2)
        assert res.kind == "tree" and 2 in res.tree_vertices


def _ledger(n, slots):
    """A ledger whose slots hold `slots` in order, None as a retired slot."""
    ledger = BranchLedger(n)
    for s in slots:
        si = ledger.adopt(np.asarray([] if s is None else s, dtype=np.int64), ())
        if s is None:
            ledger.retire(si)
    return ledger


class TestBranchLedger:
    def test_adopt_and_retire_keep_owner_p_and_held(self):
        ledger = BranchLedger(8)
        sets = [np.array([0, 1]), np.array([2]), np.array([5, 6, 7])]
        for i, bs in enumerate(sets):
            assert ledger.adopt(bs, ()) == i
        ledger.retire(1)
        assert ledger.held == [0, 2] and ledger.p == 2 and ledger.slots[1] is None
        assert ledger.owner.tolist() == [0, 0, -1, -1, -1, 2, 2, 2]
        # slots are never reused: the next set takes slot 3
        assert ledger.adopt(np.array([3]), [(0, (3, 1)), (2, (3, 5))]) == 3
        assert ledger.held == [0, 2, 3] and ledger.p == 3
        assert ledger.owner.tolist() == [0, 0, -1, 3, -1, 2, 2, 2]
        assert ledger.pair_edges == {(0, 3): (3, 1), (2, 3): (3, 5)}
        assert ledger.retire(0).tolist() == [0, 1]
        assert ledger.held == [2, 3] and ledger.owner.tolist() == [-1, -1, -1, 3, -1, 2, 2, 2]

    def test_witness_renumbers_around_a_retired_slot(self):
        # path 0-1-2-3-4-5: sets {0,1}, {2}, {3,4}; the middle one retires
        # and {2} returns as a new slot joined to both
        g = path(6)
        ledger = BranchLedger(6)
        ledger.adopt(np.array([0, 1]), ())
        ledger.adopt(np.array([3, 4]), ())
        ledger.retire(1)
        ledger.adopt(np.array([2]), [(0, (2, 1))])
        ledger.adopt(np.array([5]), [(2, (5, 2))])
        wtn = ledger.witness(g, {"algorithm": "test"})
        assert [bs.tolist() for bs in wtn.branch_sets] == [[0, 1], [2], [5]]
        # (0, 2) and (2, 3) in slots are (0, 1) and (1, 2) in the witness;
        # the pair (0, 2) has no recorded edge and no connecting edge
        assert wtn.connecting_edges == {(0, 1): (2, 1), (1, 2): (5, 2)}
        assert wtn.depth_bound == 1 and wtn.params == {"algorithm": "test"}

    def test_forged_ledger_fires_each_loops_pair_rule(self, monkeypatch):
        # two branch sets with no edge between them, held from the start
        class Forged(BranchLedger):
            def __init__(self, n):
                super().__init__(n)
                self.adopt(np.array([0]), ())
                self.adopt(np.array([n - 1]), ())

        g = grid(16)
        for mod, run, rule in (
                (shallow, lambda: shallow_separator(g, 5, 2, 0.5), "shallow.branch-pair"),
                (minorfree, lambda: minor_free_separator(g, 5, 1, 0.5, c_r=0.05),
                 "mf.branch-pair")):
            with monkeypatch.context() as mp:
                mp.setattr(mod, "BranchLedger", Forged)
                with pytest.raises(debugcheck.InvariantViolation) as err:
                    run()
            assert err.value.rule == rule


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
            h=5, ell=1, delta=3, in_vr=np.zeros(n, dtype=bool),
            in_b=np.zeros(n, dtype=bool),
            ledger=_ledger(n, slots),
            live=live.copy(), live_n=int(live.sum()), live_w=int(g.vertex_weight[live].sum()))
        # reference: every component of G[live], the heaviest first, then the
        # one with the smallest vertex id
        sub, _ = induced_subgraph(g, np.flatnonzero(live))
        ids = np.flatnonzero(live)
        comps = [ids[c] for c in connected_components(sub)]
        best = min(comps, key=lambda c: (-int(g.vertex_weight[c].sum()), int(c[0])),
                   default=np.empty(0, dtype=np.int64))
        s0 = data.draw(st.sampled_from(ids.tolist())) if len(ids) else 0
        gw = _park_light_components(g, state, HostSubgraph(g, live), s0)
        assert gw == int(g.vertex_weight[best].sum())
        assert np.flatnonzero(state.live).tolist() == sorted(best.tolist())
        assert state.live_n == len(best)

    @pytest.mark.parametrize("weights, kept", [([1, 1, 1, 1], [0]), ([1, 2, 1, 1], [1]),
                                               ([0, 0, 1, 1], [0])])
    def test_tie_goes_to_the_smallest_id(self, weights, kept):
        # live {0, 1} as two components; the first search runs from 1, the
        # only vertex the first branch set {3} touches
        g = Graph(4, [(1, 3)], vertex_weight=weights)
        live = np.array([True, True, False, False])
        state = PartitionState(
            h=5, ell=1, delta=3, in_vr=np.zeros(4, dtype=bool),
            in_b=np.zeros(4, dtype=bool), ledger=_ledger(4, [None, [3]]),
            live=live.copy(), live_n=2, live_w=weights[0] + weights[1])
        gw = _park_light_components(g, state, HostSubgraph(g, live), 1)
        assert gw == weights[kept[0]] and np.flatnonzero(state.live).tolist() == kept
        assert state.live_n == 1


def _reference_attachments(g, slots, live):
    """A_i one branch set at a time: the sorted live neighbors of each held
    slot, and the first held slot with none."""
    sets, empty = [], None
    for si, bs in enumerate(slots):
        if bs is None:
            continue
        nbrs = np.concatenate([g.neighbors(int(v)) for v in bs])
        a = np.unique(nbrs[live[nbrs]]).astype(np.int64)
        if len(a) == 0 and empty is None:
            empty = si
        sets.append(a)
    return sets, empty


def _reference_representatives(bfs, sets):
    """The nearest vertex of each set, ties to the lowest id, one set at a time."""
    reps = []
    for ids in sets:
        lv = bfs.levels(ids)
        if not (lv >= 0).any():
            raise ValueError("unreached")
        reps.append(int(ids[lv >= 0][np.argmin(lv[lv >= 0])]))
    return reps


def _reference_pair_edge(g, rep, bs):
    """The first neighbor of rep, in ascending order, that lies in bs."""
    inside = set(bs.tolist())
    return rep, next(int(w) for w in g.neighbors(rep) if int(w) in inside)


class TestBatchedBranchSets:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_batched_steps_match_per_slot_reference(self, data):
        """A_i sets, the empty slot, the reps and the pair edges of all held
        branch sets at once equal the per-slot computation."""
        n = data.draw(st.integers(3, 18))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            min_size=n, max_size=3 * n))
        g = Graph(n, list(edges))
        # at least n edge draws and a third of the vertices dead on average,
        # so that an A_i often has two vertices nearest to the start
        live = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))) > 0
        # disjoint branch sets over the dead vertices, some slots retired
        dead = np.flatnonzero(~live).tolist()
        owner_of = data.draw(st.lists(st.integers(-1, 4), min_size=len(dead), max_size=len(dead)))
        retired = data.draw(st.sets(st.integers(0, 4)))
        slots = [None if si in retired or si not in owner_of
                 else np.array([v for v, o in zip(dead, owner_of) if o == si], dtype=np.int64)
                 for si in range(max(owner_of, default=-1) + 1)]
        held = [si for si, bs in enumerate(slots) if bs is not None]

        ref_sets, ref_empty = _reference_attachments(g, slots, live)
        a_rank, a_ids = _attachments(g, [slots[si] for si in held], live)
        assert [a_ids[a_rank == i].tolist() for i in range(len(held))] == \
            [a.tolist() for a in ref_sets]
        a_sizes = np.bincount(a_rank, minlength=len(held))
        empty = held[int(np.argmin(a_sizes))] if held and not a_sizes.all() else None
        assert empty == ref_empty
        if not live.any():
            return

        # the reps and pair edges of the sets that have a vertex
        kept = [i for i, a in enumerate(ref_sets) if len(a)]
        a_starts = np.flatnonzero(np.diff(a_rank, prepend=-1))
        start = data.draw(st.sampled_from(np.flatnonzero(live).tolist()))
        bfs = HostSubgraph(g, live).bfs(start)
        try:
            want = _reference_representatives(bfs, [ref_sets[i] for i in kept])
        except ValueError:
            with pytest.raises(ValueError):
                _representatives(bfs, a_ids, a_starts)
        else:
            assert _representatives(bfs, a_ids, a_starts) == want

        # any vertex of each A_i may be its rep
        reps = [int(data.draw(st.sampled_from(ref_sets[i].tolist()))) for i in kept]
        slots_kept = [held[i] for i in kept]
        owner = np.full(n, -1, dtype=np.int64)
        for si in held:
            owner[slots[si]] = si
        assert _pair_edges(g, owner, reps, slots_kept) == \
            [_reference_pair_edge(g, rep, slots[si]) for rep, si in zip(reps, slots_kept)]


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
        assert np.array_equal(a.C, b.C) and np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)

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

    def test_neighbor_gathers_per_iteration_do_not_grow_with_p(self, monkeypatch):
        # all held branch sets share one gather per step, so an iteration
        # makes at most two (the A_i, then the pair edges or the cut
        # boundary) while p climbs to 12
        from sepkit import shallow

        per_iter = []

        class Marking(HostSubgraph):
            __slots__ = ()

            def restrict(self, mask):  # called once at the top of each iteration
                per_iter.append(0)
                super().restrict(mask)

        def counting(gather):
            def counted(indptr, indices, verts):
                per_iter[-1] += 1
                return gather(indptr, indices, verts)
            return counted

        monkeypatch.setattr(shallow, "HostSubgraph", Marking)
        monkeypatch.setattr(shallow, "gather_neighbors", counting(gather_neighbors))
        monkeypatch.setattr(shallow, "gather_rows", counting(gather_rows))
        stats = {}
        g = generate_graph("kh-blowup 12 40", 1)
        out = shallow_separator_balanced(g, 12, 0.5, seed=1, stats=stats)
        assert isinstance(out, MinorWitness) and len(out.branch_sets) == 12
        assert len(per_iter) == stats["iterations"] and max(per_iter) <= 2

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
