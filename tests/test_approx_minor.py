import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit.approx_minor import approx_largest_clique_minor
from sepkit.certificates import brute_force_minor_detect, verify_minor_witness
from sepkit.generators import binary_tree_graph, grid_graph, kh_blowup_graph, path_graph
from sepkit.graph import Graph
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
