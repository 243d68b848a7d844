import copy
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit import approx_minor, graph
from sepkit.approx_minor import approx_largest_clique_minor
from sepkit.certificates import (
    MinorWitness,
    Separator,
    brute_force_minor_detect,
    certificate_to_json,
    lift_minor,
    minor_witness,
    verify_minor_witness,
)
from sepkit.generators import (
    binary_tree_graph,
    generate_graph,
    grid_graph,
    kh_blowup_graph,
    path_graph,
)
from sepkit.graph import Graph, induced_subgraph, masked_components, split_by_label
from sepkit.shallow import shallow_separator_balanced
from sepkit.small_minors import _edit_keeps_core, _SPGraph, find_k3_witness, find_k4_witness


def _reduces_to_empty(adj: dict[int, set[int]]) -> bool:
    """Reference series-parallel reduction: sweep until no vertex of degree
    <= 2 is left (delete degree <= 1, suppress degree 2 without duplicates)."""
    adj = {x: set(nb) for x, nb in adj.items()}
    changed = True
    while changed:
        changed = False
        for x in list(adj):
            nb = adj[x]
            if len(nb) > 2:
                continue
            for w in nb:
                adj[w].discard(x)
            if len(nb) == 2:
                a, b = nb
                adj[a].add(b)
                adj[b].add(a)
            del adj[x]
            changed = True
    return not adj


def _edited(adj: dict[int, dict[int, int]], u: int, v: int, contract: bool) -> dict[int, set[int]]:
    """Full copy of adj with the edge uv deleted, or contracted into u."""
    out = {x: set(nb) for x, nb in adj.items()}
    out[u].discard(v)
    out[v].discard(u)
    if contract:
        for w in out.pop(v):
            out[w].discard(v)
            out[w].add(u)
            out[u].add(w)
    return out


def _check_local_edits(g: Graph) -> None:
    """Every local edit check on g's reduced core agrees with a full
    reduction of the edited copy, and after each edit that keeps a K4 minor
    the seeded reduce leaves exactly what a full rescan leaves."""
    sp = _SPGraph(g)
    sp.reduce()
    assert sp.adj and min(len(nb) for nb in sp.adj.values()) >= 3
    before = copy.deepcopy(sp.adj)
    kept = []
    for eid, (u, v, _) in sp.edges.items():
        for contract in (True, False):
            got = _edit_keeps_core(sp.adj, u, v, contract)
            assert got == (not _reduces_to_empty(_edited(sp.adj, u, v, contract)))
            if got:
                kept.append((eid, contract))
    assert sp.adj == before  # the overlay leaves the core untouched
    for eid, contract in kept:
        seeded, full = (copy.deepcopy(sp, {id(g): g}) for _ in range(2))
        u, v, _ = sp.edges[eid]
        for graph in (seeded, full):
            if contract:
                seeds = [u, *(w for w in graph.adj[v] if w in graph.adj[u])]
                graph.contract(eid)
            else:
                seeds = [u, v]
                graph._remove_edge(eid)
        seeded.reduce(seeds)
        full.reduce()
        assert list(seeded.adj.items()) == list(full.adj.items())
        assert list(seeded.edges.items()) == list(full.edges.items())
        assert seeded.sets == full.sets


class TestSmallMinors:
    def test_k3_on_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        w = find_k3_witness(g)
        assert w is not None and verify_minor_witness(g, w, 3).ok

    def test_k3_none_on_forest(self):
        assert find_k3_witness(binary_tree_graph(4)) is None

    def test_k4_matches_oracle_randomized(self):
        rnd = random.Random(3)
        for _ in range(40):
            n = rnd.randrange(4, 10)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            m = rnd.randrange(3, len(pairs) + 1)
            g = Graph(n, rnd.sample(pairs, m))
            mine = find_k4_witness(g)
            oracle = brute_force_minor_detect(g, 4)
            assert (mine is None) == (oracle is None)
            if mine is not None:
                assert verify_minor_witness(g, mine, 4).ok

    def test_k4_on_large_grid(self):
        g = grid_graph(20)
        w = find_k4_witness(g)
        assert w is not None and verify_minor_witness(g, w, 4).ok

    def test_k4_none_on_series_parallel(self):
        # 2 x n grid is series-parallel
        n = 12
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [(n + i, n + i + 1) for i in range(n - 1)]
        edges += [(i, n + i) for i in range(n)]
        assert find_k4_witness(Graph(2 * n, edges)) is None

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_local_edit_check_matches_full_reduction(self, data):
        # at least 2n - 2 edges: more than any series-parallel graph has, so
        # the reduced core is never empty
        n = data.draw(st.integers(4, 12))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), min_size=2 * n - 2,
                                   max_size=len(pairs), unique=True))
        _check_local_edits(Graph(n, edges))

    def test_seeded_reduce_keeps_suppression_order(self):
        # contracting an edge here drops several common neighbours to degree
        # 2 at once, so the order of the seeded queue decides the survivors
        edges = [(0, 1), (1, 6), (1, 7), (4, 8), (0, 9), (1, 2), (1, 3), (4, 5), (5, 8),
                 (0, 2), (0, 3), (0, 4), (0, 6), (1, 8), (1, 9), (2, 5), (0, 7), (2, 3)]
        _check_local_edits(Graph(10, edges))

class TestApproxLargestMinor:
    def test_tree_gives_two(self):
        res = approx_largest_clique_minor(binary_tree_graph(5), 0.5, seed=0)
        assert res.h_found == 2

    def test_k8_gives_eight(self):
        g = Graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
        res = approx_largest_clique_minor(g, 0.5, seed=0)
        assert res.h_found == 8
        assert verify_minor_witness(g, res.witness, 8).ok

    def test_grid16_gives_four(self):
        g = grid_graph(16)
        res = approx_largest_clique_minor(g, 0.5, seed=0)
        # grids are planar: K4 present, K5 impossible
        assert res.h_found == 4
        assert verify_minor_witness(g, res.witness, 4).ok

    def test_monotone_under_edge_addition(self):
        # nested edge sets: h_found never decreases
        rnd = random.Random(7)
        n = 12
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rnd.shuffle(pairs)
        last = 1
        for m in (11, 20, 35, 50, 66):
            g = Graph(n, pairs[:m])
            res = approx_largest_clique_minor(g, 0.5, seed=1)
            assert res.h_found >= last
            last = res.h_found
            assert verify_minor_witness(g, res.witness).ok

    def test_blowup_finds_planted_or_better(self):
        g = kh_blowup_graph(5, 40, seed=4)
        res = approx_largest_clique_minor(g, 0.5, seed=0)
        assert res.h_found >= 5
        assert verify_minor_witness(g, res.witness).ok

    def test_edgeless(self):
        res = approx_largest_clique_minor(Graph(3, []), 0.5, seed=0)
        assert res.h_found == 1

    def test_ratio_claim_recorded(self):
        res = approx_largest_clique_minor(path_graph(50), 0.5, seed=0)
        assert "value" in res.ratio_claim and res.ratio_claim["value"] > 0


def _reference_attempt(g, h, eps, seed, depth=0):
    """The search as it was before probes passed up branch sets: every
    successful shallow probe emits its witness, depth included."""
    if g.n < h or g.m < h * (h - 1) // 2 or depth > 64:
        return None
    if h == 3:
        return find_k3_witness(g)
    if h == 4:
        return find_k4_witness(g)
    out = shallow_separator_balanced(g, h, eps, seed)
    if isinstance(out, MinorWitness):
        return out
    if not isinstance(out, Separator) or len(out.C) >= g.n:
        return None
    rest = np.ones(g.n, dtype=bool)
    rest[out.C] = False
    ids, ncomp, labels = masked_components(g, rest)
    label_of = np.full(g.n, -1, dtype=np.int64)
    label_of[ids] = labels
    lu, lv = label_of[g.edge_u], label_of[g.edge_v]
    piece_m = np.bincount(lu[(lu >= 0) & (lv >= 0)], minlength=ncomp).tolist()
    for verts, m in zip(split_by_label(ids, labels, ncomp), piece_m):
        if not h <= len(verts) < g.n or m < h * (h - 1) // 2:
            continue
        piece, _ = induced_subgraph(g, verts)
        got = _reference_attempt(piece, h, eps, seed, depth + 1)
        if got is not None:
            return replace(lift_minor(got, verts), params={})
    return None


def _reference_search(g, eps, seed):
    """(witness, h_found) by doubling from K4, then binary search."""
    if g.m == 0:
        return minor_witness(g, [[0]], depth_bound=0), 1
    best = minor_witness(g, [[int(g.edge_u[0])], [int(g.edge_v[0])]], depth_bound=0)
    best_h = 2
    unit = Graph(g.n, np.stack([g.edge_u, g.edge_v], axis=1))
    h = 4
    last_fail = None
    while h <= g.n:
        got = _reference_attempt(unit, h, eps, seed)
        if got is None:
            last_fail = h
            break
        best, best_h = got, h
        h *= 2
    if last_fail is None:
        last_fail = h
    lo, hi = best_h, last_fail
    while hi - lo > 1:
        mid = (lo + hi) // 2
        got = _reference_attempt(unit, mid, eps, seed)
        if got is None:
            hi = mid
        else:
            best, best_h, lo = got, mid, mid
    return best, best_h


@st.composite
def _simple_graphs(draw):
    """Simple graphs of 1 to 40 vertices with at most or more than 2n - 3
    edges, the bound above which a K4 minor is certain."""
    n = draw(st.integers(1, 40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sparse_top = max(0, min(2 * n - 3, len(pairs)))
    if draw(st.booleans()) and len(pairs) > sparse_top:
        m = draw(st.integers(sparse_top + 1, len(pairs)))
    else:
        m = draw(st.integers(0, sparse_top))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Graph(n, rnd.sample(pairs, m))


class TestSearchOrder:
    @settings(max_examples=60, deadline=None)
    @given(_simple_graphs(), st.integers(0, 3))
    def test_matches_reference_search(self, g, seed):
        # probing K8 before K4, and emitting only the winner, changes no byte
        want, want_h = _reference_search(g, 0.5, seed)
        got = approx_largest_clique_minor(g, 0.5, seed)
        assert got.h_found == want_h
        assert certificate_to_json(got.witness) == certificate_to_json(want)

    def test_blowup_skips_k4_and_measures_only_the_winner(self, monkeypatch):
        # kh-blowup 6 120 has m > 2n - 3 and K8 succeeds, so the exact K4
        # search never runs, and depth is measured only on the returned
        # witness's branch sets, each once
        k4_calls = []
        measured = []
        diameter = graph.MaskedSubgraph.diameter

        def k4(g):
            k4_calls.append(g.n)
            return find_k4_witness(g)

        def recorded(self, cap=None):
            measured.append(self.ids.tolist())
            return diameter(self, cap)

        monkeypatch.setattr(approx_minor, "find_k4_witness", k4)
        monkeypatch.setattr(graph.MaskedSubgraph, "diameter", recorded)
        g = generate_graph("kh-blowup 6 120", 1)
        assert g.m > 2 * g.n - 3
        res = approx_largest_clique_minor(g, 0.5, 1)
        assert k4_calls == []
        assert res.h_found > 8
        assert measured == [bs.tolist() for bs in res.witness.branch_sets]
