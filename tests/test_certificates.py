import dataclasses
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepkit.approx_minor import approx_largest_clique_minor
from sepkit.certificates import (
    BALANCE_C,
    MinorReport,
    MinorWitness,
    OracleGuardError,
    Separator,
    brute_force_min_separator,
    brute_force_minor_detect,
    certificate_from_json,
    certificate_to_json,
    find_connecting_edge,
    pack_components,
    trim_separator_mask,
    verify_minor_witness,
    verify_output,
    verify_separator,
)
from sepkit.generators import generate_graph, grid_graph, path_graph
from sepkit.graph import DensityCertificate, Graph, sparsity_guard
from sepkit.shallow import shallow_separator, shallow_separator_balanced
from sepkit.tradeoff import tradeoff_separator


def c4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def k(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid(kk):
    edges = []
    for i in range(kk):
        for j in range(kk):
            if i + 1 < kk:
                edges.append((i * kk + j, (i + 1) * kk + j))
            if j + 1 < kk:
                edges.append((i * kk + j, i * kk + j + 1))
    return Graph(kk * kk, edges)


class TestVerifySeparator:
    def test_c4_ok(self):
        s = Separator(C=np.array([1, 3]), A=np.array([0]), B=np.array([2]), claimed_bound=2)
        assert verify_separator(c4(), s).ok

    def test_crossing_edge(self):
        # v3 is adjacent to v0 in C4, so A={0}, B={2,3} has an A-B edge
        s = Separator(C=np.array([1]), A=np.array([0]), B=np.array([2, 3]), claimed_bound=1)
        rep = verify_separator(c4(), s)
        assert not rep.ok
        assert any(r == "sep.crossing-edge" for r, _ in rep.violations)

    def test_grid_middle_column(self):
        g = grid(3)
        col = [0 * 3 + 1, 1 * 3 + 1, 2 * 3 + 1]
        a = [0, 3, 6]
        b = [2, 5, 8]
        s = Separator(C=np.array(col), A=np.array(a), B=np.array(b), claimed_bound=3)
        assert verify_separator(g, s).ok

    def test_not_a_partition(self):
        s = Separator(C=np.array([0]), A=np.array([1]), B=np.array([1, 2, 3]))
        assert not verify_separator(c4(), s).ok

    def test_balance_violation(self):
        g = Graph(3, [(0, 1), (1, 2)], vertex_weight=[10, 1, 1])
        s = Separator(C=np.array([1]), A=np.array([0]), B=np.array([2]))
        rep = verify_separator(g, s)
        assert not rep.ok and any(r == "sep.balance" for r, _ in rep.violations)

    def test_forged_balance_c_is_rejected(self):
        # C empty and A = V balances only under the certificate's own 1
        g = grid(16)
        s = Separator(C=np.empty(0, dtype=np.int64), A=np.arange(g.n), B=np.empty(0, dtype=np.int64),
                      balance_c=Fraction(1))
        for rep in (verify_separator(g, s),
                    verify_output(g, certificate_from_json(certificate_to_json(s)))):
            rules = [r for r, _ in rep.violations]
            assert not rep.ok and "sep.balance-c" in rules and "sep.balance" in rules

    def test_claimed_bound(self):
        s = Separator(C=np.array([1, 3]), A=np.array([0]), B=np.array([2]), claimed_bound=1)
        rep = verify_separator(c4(), s)
        assert not rep.ok and any(r == "sep.bound" for r, _ in rep.violations)

    @pytest.mark.parametrize("bad", [4, -1])
    def test_out_of_range_id_is_reported_and_left_out(self, bad):
        # an id past n used to raise IndexError, and -1 used to wrap to vertex
        # 3 and report a crossing edge (2,3); both are only out of range
        s = Separator(C=np.array([1, 3]), A=np.array([0, bad]), B=np.array([2]), claimed_bound=2)
        rep = verify_separator(c4(), s)
        assert rep.violations == [("sep.range", f"vertex {bad} outside 0..3")]

    def test_out_of_range_ids_on_every_side(self):
        s = Separator(C=np.array([1, 3, 9]), A=np.array([-2, 0]), B=np.array([2, 4, -5]))
        rep = verify_separator(c4(), s)
        assert [r for r, _ in rep.violations] == ["sep.range"] * 4
        assert [m.split()[1] for _, m in rep.violations] == ["-2", "-5", "4", "9"]


class TestVerifyMinorWitness:
    def test_k5_singletons_depth0(self):
        w = MinorWitness(branch_sets=[np.array([i]) for i in range(5)], depth_bound=0)
        assert verify_minor_witness(k(5), w, 5).ok

    def test_petersen_standard_k5(self):
        # outer 5-cycle 0..4, inner pentagram 5..9, spokes i <-> i+5
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        pet = Graph(10, outer + inner + spokes)
        w = MinorWitness(branch_sets=[np.array([i, i + 5]) for i in range(5)], depth_bound=1)
        assert verify_minor_witness(pet, w, 5).ok

    def test_c4_missing_pair_edge(self):
        w = MinorWitness(branch_sets=[np.array([0]), np.array([2])])
        rep = verify_minor_witness(c4(), w, 2)
        assert not rep.ok and any(r == "minor.pair" for r, _ in rep.violations)

    def test_disconnected_branch_set(self):
        w = MinorWitness(branch_sets=[np.array([0, 2]), np.array([1])])
        rep = verify_minor_witness(c4(), w, 2)
        assert not rep.ok and any(r == "minor.connected" for r, _ in rep.violations)

    def test_depth_bound_enforced(self):
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        w = MinorWitness(branch_sets=[np.array([0, 1, 2]), np.array([3])], depth_bound=1)
        rep = verify_minor_witness(p4, w, 2)
        assert not rep.ok and any(r == "minor.depth" for r, _ in rep.violations)


class TestForgedWitness:
    """Forged witnesses get a rule id from verify_output; none raises."""

    @staticmethod
    def rules(g, w):
        rep = verify_output(g, w)
        assert not rep.ok
        return [r for r, _ in rep.violations]

    def test_negative_id(self):
        w = MinorWitness(branch_sets=[np.array([-1, 0]), np.array([1])], depth_bound=1)
        assert self.rules(c4(), w) == ["minor.range"]

    def test_id_equal_to_n(self):
        w = MinorWitness(branch_sets=[np.array([0]), np.array([1, 4, 9])], depth_bound=1)
        rep = verify_output(c4(), w)
        assert [r for r, _ in rep.violations] == ["minor.range"]
        assert "vertex 4 " in rep.violations[0][1]

    def test_disconnected(self):
        w = MinorWitness(branch_sets=[np.array([0, 2]), np.array([1])], depth_bound=3)
        assert "minor.connected" in self.rules(c4(), w)

    def test_diameter_over_bound(self):
        p6 = Graph(6, [(i, i + 1) for i in range(5)])
        w = MinorWitness(branch_sets=[np.array([0, 1, 2, 3, 4]), np.array([5])],
                         depth_bound=3, connecting_edges={(0, 1): (4, 5)})
        rep = verify_output(p6, w)
        assert [r for r, _ in rep.violations] == ["minor.depth"]
        assert "diameter 4 > bound 3" in rep.violations[0][1]

    def test_overlap_reported_per_set(self):
        w = MinorWitness(branch_sets=[np.array([0, 1]), np.array([1, 2]), np.array([0, 3])])
        rep = verify_output(c4(), w)
        dis = [msg for r, msg in rep.violations if r == "minor.disjoint"]
        assert dis == ["branch set 1 reuses vertices [1]", "branch set 2 reuses vertices [0]"]

    def test_empty_set(self):
        w = MinorWitness(branch_sets=[np.array([0]), np.empty(0, dtype=np.int64)])
        assert "minor.empty" in self.rules(c4(), w)

    def test_recorded_edge_out_of_range(self):
        w = MinorWitness(branch_sets=[np.array([0]), np.array([1])],
                         connecting_edges={(0, 1): (4, 0)})
        assert self.rules(c4(), w) == ["minor.pair-edge"]


class TestForgedDepth:
    """A depth_bound one below the truth, on branch sets of up to 69
    vertices, is rejected with each deep set's exact diameter."""

    @pytest.mark.parametrize("spec, h", [("torus 30", 5), ("kh-blowup 8 60", 8)])
    def test_lowered_bound_names_the_exact_diameter(self, spec, h):
        g = generate_graph(spec, seed=1)
        w = shallow_separator_balanced(g, h, 0.5, seed=1)
        assert isinstance(w, MinorWitness) and w.h == h
        host = nx.Graph()
        host.add_nodes_from(range(g.n))
        host.add_edges_from(g.edge_list())
        diams = [nx.diameter(host.subgraph(bs.tolist())) for bs in w.branch_sets]
        assert w.depth_bound == max(diams)
        assert verify_output(g, w).ok
        bound = w.depth_bound - 1
        rep = verify_output(g, dataclasses.replace(w, depth_bound=bound))
        assert [r for r, _ in rep.violations] == ["minor.depth"]
        assert [msg for _, msg in rep.violations] == [
            f"branch set {i} has diameter {d} > bound {bound}"
            for i, d in enumerate(diams) if d > bound]
        assert verify_output(g, dataclasses.replace(w, depth_bound=None)).ok


class TestRepeatedIds:
    """A repeated id is not a set member twice: the verifiers reject it."""

    def test_separator_file_with_repeats(self):
        # as sets, C={1}, A={0}, B={2,3} separate the path 0-1-2-3
        text = ('{"kind":"separator","C":[1,1],"A":[0],"B":[2,3,3],"balance_c":[2,3],'
                '"claimed_bound":null,"params":{}}')
        rep = verify_output(path_graph(4), certificate_from_json(text))
        assert [r for r, _ in rep.violations] == ["sep.partition"]

    def test_witness_file_with_repeats(self):
        text = ('{"kind":"minor_witness","h":2,"branch_sets":[[0,0],[1]],"depth_bound":null,'
                '"connecting_edges":{},"params":{}}')
        rep = verify_output(path_graph(4), certificate_from_json(text))
        assert rep.violations == [("minor.disjoint", "branch set 0 reuses vertices [0]")]


def _loop_connecting_edge(g, a, b):
    """Reference edge search: the smaller set in ascending order, each
    vertex's neighbors in ascending order, the first one in the other set."""
    small, other = (a, b) if len(a) <= len(b) else (b, a)
    members = set(other.tolist())
    for u in small.tolist():
        for w in g.neighbors(u).tolist():
            if w in members:
                return (u, w) if small is a else (w, u)
    return None


class TestFindConnectingEdge:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_reference_loop(self, data):
        n = data.draw(st.integers(2, 16))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
        g = Graph(n, data.draw(st.lists(pairs, max_size=3 * n)))
        side = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        a, b = np.flatnonzero(side == 0), np.flatnonzero(side == 1)
        assert find_connecting_edge(g, a, b) == _loop_connecting_edge(g, a, b)


def _vertex_fields(out):
    if isinstance(out, Separator):
        return [out.C, out.A, out.B]
    if isinstance(out, MinorWitness):
        return list(out.branch_sets)
    return []


class TestIdArrayFormat:
    """Every produced vertex set is a strictly increasing int64 array, and
    its certificate survives a parse and a second write byte for byte."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_outputs(self, data):
        n = data.draw(st.integers(1, 24))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
        g = Graph(n, data.draw(st.lists(pairs, max_size=3 * n)),
                  vertex_weight=data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        h = data.draw(st.integers(2, 5))
        seed = data.draw(st.integers(0, 3))
        outs = [shallow_separator_balanced(g, h, 0.5, seed),
                tradeoff_separator(g, h, 0.8, 0.5, seed),
                approx_largest_clique_minor(g, 0.5, seed).witness]
        for out in outs:
            for ids in _vertex_fields(out):
                assert isinstance(ids, np.ndarray) and ids.dtype == np.int64
                assert bool(np.all(np.diff(ids) > 0))
            text = certificate_to_json(out)
            assert certificate_to_json(certificate_from_json(text)) == text


class TestForgedReport:
    """A density report describes g or a subgraph or contraction of it, which
    can be neither larger nor denser than g."""

    @staticmethod
    def rules(g, out):
        rep = verify_output(g, out)
        assert not rep.ok
        return [r for r, _ in rep.violations]

    def test_denser_than_any_simple_graph(self):
        # 29 edges on 7 vertices: the arithmetic rechecks (threshold 28) and
        # both sizes are below path_graph(50)'s, but K7 has only 21 edges
        cert = DensityCertificate(n=7, m=29, h=5, threshold=28, policy="mader-proven")
        assert cert.recheck()
        assert self.rules(path_graph(50), MinorReport(certificate=cert)) == ["report.m"]

    def test_more_vertices_than_g(self):
        cert = DensityCertificate(n=12, m=50, h=4, threshold=24, policy="mader-proven")
        assert self.rules(k(10), MinorReport(certificate=cert)) == ["report.n", "report.m"]

    def test_more_edges_than_g(self):
        cert = DensityCertificate(n=30, m=61, h=4, threshold=60, policy="mader-proven")
        assert self.rules(path_graph(50), MinorReport(certificate=cert)) == ["report.m"]

    def test_oversized_report_refused_before_its_threshold(self):
        # 2^(h-2) n / 2 at n = h = 10^8 takes most of a second to compute;
        # a report larger than g is refused by report.n without it
        import time

        cert = DensityCertificate(n=10**8, m=24, h=10**8, threshold=1, policy="mader-proven")
        t0 = time.perf_counter()
        assert self.rules(grid_graph(4), MinorReport(certificate=cert)) == ["report.n"]
        assert time.perf_counter() - t0 < 0.1

    def test_bare_certificate_threshold(self):
        cert = DensityCertificate(n=5, m=10, h=3, threshold=4, policy="mader-proven")
        assert self.rules(k(5), MinorReport(certificate=cert)) == ["report.threshold"]

    def test_live_recheck_report_still_verifies(self):
        # K12 plus 30 light isolated vertices: the shallow loop's live recheck
        # reports on the 11-vertex clique left after one iteration
        g = Graph(42, [(i, j) for i in range(12) for j in range(i + 1, 12)],
                  vertex_weight=[100] * 12 + [1] * 30)
        out = shallow_separator(g, 5, 2, 0.5, 1)
        assert isinstance(out, MinorReport)
        assert (out.certificate.n, out.certificate.m) == (11, 55)
        assert verify_output(g, out).ok


class TestBruteForceMinSeparator:
    def test_p4(self):
        sep = brute_force_min_separator(Graph(4, [(0, 1), (1, 2), (2, 3)]))
        assert sep is not None and len(sep.C) == 1
        assert verify_separator(Graph(4, [(0, 1), (1, 2), (2, 3)]), sep).ok

    def test_k5_minimum(self):
        # removing 2 vertices leaves K3 of weight 3 <= (2/3)*5, with B empty
        sep = brute_force_min_separator(k(5))
        assert sep is not None and len(sep.C) == 2
        assert verify_separator(k(5), sep).ok

    def test_single_vertex(self):
        # exact 2/3 balance forbids putting the whole weight on one side
        sep = brute_force_min_separator(Graph(1, []))
        assert sep is not None and len(sep.C) == 1 and len(sep.A) == 0

    def test_guard(self):
        with pytest.raises(OracleGuardError):
            brute_force_min_separator(Graph(17, []))


class TestBruteForceMinorDetect:
    def test_k4(self):
        w = brute_force_minor_detect(k(4), 4)
        assert w is not None and verify_minor_witness(k(4), w, 4).ok

    def test_tree_has_no_k3(self):
        t = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        assert brute_force_minor_detect(t, 3) is None

    def test_c4_has_k3(self):
        w = brute_force_minor_detect(c4(), 3)
        assert w is not None
        assert verify_minor_witness(c4(), w, 3).ok

    def test_c4_has_no_k4(self):
        assert brute_force_minor_detect(c4(), 4) is None

    def test_guard(self):
        with pytest.raises(OracleGuardError):
            brute_force_minor_detect(Graph(11, []), 3)
        with pytest.raises(OracleGuardError):
            brute_force_minor_detect(Graph(4, []), 5)

    def test_density_guard_agreement_small(self):
        # any mader-proven density certificate is matched by an oracle witness
        import itertools
        import random

        rnd = random.Random(7)
        for trial in range(40):
            n = rnd.randrange(3, 8)
            pairs = list(itertools.combinations(range(n), 2))
            m = rnd.randrange(0, len(pairs) + 1)
            g = Graph(n, rnd.sample(pairs, m))
            for h in (3, 4):
                if sparsity_guard(g, h, "mader-proven") is not None:
                    assert brute_force_minor_detect(g, h) is not None


class TestPackComponents:
    def test_heavy_component_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)], vertex_weight=[1, 10, 1])
        cmask = np.array([True, False, False])
        with pytest.raises(ValueError):
            pack_components(g, cmask)

    def test_many_pieces(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        a, b = pack_components(g, np.zeros(6, dtype=bool))
        assert a.sum() + b.sum() == 6 and not (a & b).any()
        assert 3 * a.sum() <= 2 * 6 and 3 * b.sum() <= 2 * 6


def trim_to_fixpoint(g, cmask, amask, bmask):
    """The reference trim: passes over C in ascending id order until none moves a vertex."""
    num, den = BALANCE_C.numerator, BALANCE_C.denominator
    wv = int(g.total_vertex_weight)
    wa = int(g.vertex_weight[amask].sum())
    wb = int(g.vertex_weight[bmask].sum())
    cmask, amask, bmask = cmask.copy(), amask.copy(), bmask.copy()
    changed = True
    while changed:
        changed = False
        for v in np.flatnonzero(cmask).tolist():
            nb = g.neighbors(v)
            touches_a = bool(amask[nb].any())
            touches_b = bool(bmask[nb].any())
            w = int(g.vertex_weight[v])
            if not touches_b and (wa + w) * den <= num * wv:
                cmask[v], amask[v] = False, True
                wa += w
                changed = True
            elif not touches_a and (wb + w) * den <= num * wv:
                cmask[v], bmask[v] = False, True
                wb += w
                changed = True
    return cmask, amask, bmask


class TestTrimSeparatorMask:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_pass_equals_fixpoint(self, data):
        n = data.draw(st.integers(1, 40))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1])
        edges = data.draw(st.lists(pairs, max_size=3 * n))
        weights = data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        g = Graph(n, edges, vertex_weight=weights)
        # each vertex in C, A or B, with C often the largest part
        side = np.array(data.draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=n,
                                           max_size=n)))
        masks = (side == 0, side == 1, side == 2)
        got = trim_separator_mask(g, *masks)
        want = trim_to_fixpoint(g, *masks)
        for a, b in zip(got, want):
            assert a.tolist() == b.tolist()

    def test_moves_cascade_through_c(self):
        # a path C = 1..4 between A = {0} and B = {5}: each vertex moved to A
        # makes the next one touch A, up to vertex 4, which touches both
        g = Graph(6, [(i, i + 1) for i in range(5)], vertex_weight=[2] * 6)
        cmask = np.array([False, True, True, True, True, False])
        got = trim_separator_mask(g, cmask, np.eye(6, dtype=bool)[0], np.eye(6, dtype=bool)[5])
        assert [np.flatnonzero(m).tolist() for m in got] == [[4], [0, 1, 2, 3], [5]]


class TestSerialization:
    def test_separator_roundtrip(self):
        s = Separator(C=np.array([1, 3]), A=np.array([0]), B=np.array([2]),
                      balance_c=Fraction(2, 3), claimed_bound=2, params={"h": 3})
        s2 = certificate_from_json(certificate_to_json(s))
        assert isinstance(s2, Separator)
        assert all(np.array_equal(x, y) for x, y in ((s2.C, s.C), (s2.A, s.A), (s2.B, s.B)))
        assert s2.balance_c == s.balance_c and s2.claimed_bound == 2
        assert certificate_to_json(s2) == certificate_to_json(s)

    def test_witness_roundtrip(self):
        w = MinorWitness(branch_sets=[np.array([0]), np.array([1, 2])], depth_bound=1,
                         connecting_edges={(0, 1): (0, 1)})
        w2 = certificate_from_json(certificate_to_json(w))
        assert isinstance(w2, MinorWitness)
        assert certificate_to_json(w2) == certificate_to_json(w)

    def test_report_roundtrip(self):
        rep = MinorReport(certificate=DensityCertificate(5, 10, 3, 5, "mader-proven"))
        rep2 = certificate_from_json(certificate_to_json(rep))
        assert isinstance(rep2, MinorReport)
        assert certificate_to_json(rep2) == certificate_to_json(rep)
        assert verify_output(k(5), rep2).ok
