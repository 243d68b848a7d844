from fractions import Fraction

import pytest

from sepkit.certificates import (
    MinorReport,
    MinorWitness,
    OracleGuardError,
    Separator,
    brute_force_min_separator,
    brute_force_minor_detect,
    certificate_from_json,
    certificate_to_json,
    pack_components,
    verify_minor_witness,
    verify_output,
    verify_separator,
)
from sepkit.generators import path_graph
from sepkit.graph import DensityCertificate, Graph, VertexSet, sparsity_guard
from sepkit.shallow import shallow_separator


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
        s = Separator(C=VertexSet([1, 3]), A=VertexSet([0]), B=VertexSet([2]), claimed_bound=2)
        assert verify_separator(c4(), s).ok

    def test_crossing_edge(self):
        # v3 is adjacent to v0 in C4, so A={0}, B={2,3} has an A-B edge
        s = Separator(C=VertexSet([1]), A=VertexSet([0]), B=VertexSet([2, 3]), claimed_bound=1)
        rep = verify_separator(c4(), s)
        assert not rep.ok
        assert any(r == "sep.crossing-edge" for r, _ in rep.violations)

    def test_grid_middle_column(self):
        g = grid(3)
        col = [0 * 3 + 1, 1 * 3 + 1, 2 * 3 + 1]
        a = [0, 3, 6]
        b = [2, 5, 8]
        s = Separator(C=VertexSet(col), A=VertexSet(a), B=VertexSet(b), claimed_bound=3)
        assert verify_separator(g, s).ok

    def test_not_a_partition(self):
        s = Separator(C=VertexSet([0]), A=VertexSet([1]), B=VertexSet([1, 2, 3]))
        assert not verify_separator(c4(), s).ok

    def test_balance_violation(self):
        g = Graph(3, [(0, 1), (1, 2)], vertex_weight=[10, 1, 1])
        s = Separator(C=VertexSet([1]), A=VertexSet([0]), B=VertexSet([2]))
        rep = verify_separator(g, s)
        assert not rep.ok and any(r == "sep.balance" for r, _ in rep.violations)

    def test_forged_balance_c_is_rejected(self):
        # C empty and A = V balances only under the certificate's own 1
        g = grid(16)
        s = Separator(C=VertexSet(), A=VertexSet(range(g.n)), B=VertexSet(),
                      balance_c=Fraction(1))
        for rep in (verify_separator(g, s),
                    verify_output(g, certificate_from_json(certificate_to_json(s)))):
            rules = [r for r, _ in rep.violations]
            assert not rep.ok and "sep.balance-c" in rules and "sep.balance" in rules

    def test_claimed_bound(self):
        s = Separator(C=VertexSet([1, 3]), A=VertexSet([0]), B=VertexSet([2]), claimed_bound=1)
        rep = verify_separator(c4(), s)
        assert not rep.ok and any(r == "sep.bound" for r, _ in rep.violations)

    @pytest.mark.parametrize("bad", [4, -1])
    def test_out_of_range_id_is_reported_and_left_out(self, bad):
        # an id past n used to raise IndexError, and -1 used to wrap to vertex
        # 3 and report a crossing edge (2,3); both are only out of range
        s = Separator(C=VertexSet([1, 3]), A=VertexSet([0, bad]), B=VertexSet([2]), claimed_bound=2)
        rep = verify_separator(c4(), s)
        assert rep.violations == [("sep.range", f"vertex {bad} outside 0..3")]

    def test_out_of_range_ids_on_every_side(self):
        s = Separator(C=VertexSet([1, 3, 9]), A=VertexSet([-2, 0]), B=VertexSet([2, 4, -5]))
        rep = verify_separator(c4(), s)
        assert [r for r, _ in rep.violations] == ["sep.range"] * 4
        assert [m.split()[1] for _, m in rep.violations] == ["-2", "-5", "4", "9"]


class TestVerifyMinorWitness:
    def test_k5_singletons_depth0(self):
        w = MinorWitness(branch_sets=[VertexSet([i]) for i in range(5)], depth_bound=0)
        assert verify_minor_witness(k(5), w, 5).ok

    def test_petersen_standard_k5(self):
        # outer 5-cycle 0..4, inner pentagram 5..9, spokes i <-> i+5
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        pet = Graph(10, outer + inner + spokes)
        w = MinorWitness(branch_sets=[VertexSet([i, i + 5]) for i in range(5)], depth_bound=1)
        assert verify_minor_witness(pet, w, 5).ok

    def test_c4_missing_pair_edge(self):
        w = MinorWitness(branch_sets=[VertexSet([0]), VertexSet([2])])
        rep = verify_minor_witness(c4(), w, 2)
        assert not rep.ok and any(r == "minor.pair" for r, _ in rep.violations)

    def test_disconnected_branch_set(self):
        w = MinorWitness(branch_sets=[VertexSet([0, 2]), VertexSet([1])])
        rep = verify_minor_witness(c4(), w, 2)
        assert not rep.ok and any(r == "minor.connected" for r, _ in rep.violations)

    def test_depth_bound_enforced(self):
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        w = MinorWitness(branch_sets=[VertexSet([0, 1, 2]), VertexSet([3])], depth_bound=1)
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
        w = MinorWitness(branch_sets=[VertexSet([-1, 0]), VertexSet([1])], depth_bound=1)
        assert self.rules(c4(), w) == ["minor.range"]

    def test_id_equal_to_n(self):
        w = MinorWitness(branch_sets=[VertexSet([0]), VertexSet([1, 4, 9])], depth_bound=1)
        rep = verify_output(c4(), w)
        assert [r for r, _ in rep.violations] == ["minor.range"]
        assert "vertex 4 " in rep.violations[0][1]

    def test_disconnected(self):
        w = MinorWitness(branch_sets=[VertexSet([0, 2]), VertexSet([1])], depth_bound=3)
        assert "minor.connected" in self.rules(c4(), w)

    def test_diameter_over_bound(self):
        p6 = Graph(6, [(i, i + 1) for i in range(5)])
        w = MinorWitness(branch_sets=[VertexSet([0, 1, 2, 3, 4]), VertexSet([5])],
                         depth_bound=3, connecting_edges={(0, 1): (4, 5)})
        rep = verify_output(p6, w)
        assert [r for r, _ in rep.violations] == ["minor.depth"]
        assert "diameter 4 > bound 3" in rep.violations[0][1]

    def test_overlap_reported_per_set(self):
        w = MinorWitness(branch_sets=[VertexSet([0, 1]), VertexSet([1, 2]), VertexSet([0, 3])])
        rep = verify_output(c4(), w)
        dis = [msg for r, msg in rep.violations if r == "minor.disjoint"]
        assert dis == ["branch set 1 reuses vertices [1]", "branch set 2 reuses vertices [0]"]

    def test_empty_set(self):
        w = MinorWitness(branch_sets=[VertexSet([0]), VertexSet()])
        assert "minor.empty" in self.rules(c4(), w)

    def test_recorded_edge_out_of_range(self):
        w = MinorWitness(branch_sets=[VertexSet([0]), VertexSet([1])],
                         connecting_edges={(0, 1): (4, 0)})
        assert self.rules(c4(), w) == ["minor.pair-edge"]


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
        assert self.rules(path_graph(50), cert) == ["density.m"]

    def test_more_vertices_than_g(self):
        cert = DensityCertificate(n=12, m=50, h=4, threshold=24, policy="mader-proven")
        assert self.rules(k(10), MinorReport(certificate=cert)) == ["report.n", "report.m"]

    def test_more_edges_than_g(self):
        cert = DensityCertificate(n=30, m=61, h=4, threshold=60, policy="mader-proven")
        assert self.rules(path_graph(50), MinorReport(certificate=cert)) == ["report.m"]
        assert self.rules(path_graph(50), cert) == ["density.m"]

    def test_bare_certificate_threshold(self):
        cert = DensityCertificate(n=5, m=10, h=3, threshold=4, policy="mader-proven")
        assert self.rules(k(5), cert) == ["density.threshold"]

    def test_live_recheck_report_still_verifies(self):
        # K12 plus 30 light isolated vertices: the shallow loop's live recheck
        # reports on the 11-vertex clique left after one iteration
        g = Graph(42, [(i, j) for i in range(12) for j in range(i + 1, 12)],
                  vertex_weight=[100] * 12 + [1] * 30)
        out = shallow_separator(g, 5, 2, 0.5, 1)
        assert isinstance(out, MinorReport)
        assert (out.certificate.n, out.certificate.m) == (11, 55)
        assert verify_output(g, out).ok
        assert verify_output(g, out.certificate).ok


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
        cmask = VertexSet([0]).to_mask(3)
        with pytest.raises(ValueError):
            pack_components(g, cmask)

    def test_many_pieces(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        a, b = pack_components(g, VertexSet().to_mask(6))
        assert len(a) + len(b) == 6
        assert 3 * len(a) <= 2 * 6 and 3 * len(b) <= 2 * 6


class TestSerialization:
    def test_separator_roundtrip(self):
        s = Separator(C=VertexSet([1, 3]), A=VertexSet([0]), B=VertexSet([2]),
                      balance_c=Fraction(2, 3), claimed_bound=2, params={"h": 3})
        s2 = certificate_from_json(certificate_to_json(s))
        assert isinstance(s2, Separator)
        assert s2.C == s.C and s2.A == s.A and s2.B == s.B
        assert s2.balance_c == s.balance_c and s2.claimed_bound == 2
        assert certificate_to_json(s2) == certificate_to_json(s)

    def test_witness_roundtrip(self):
        w = MinorWitness(branch_sets=[VertexSet([0]), VertexSet([1, 2])], depth_bound=1,
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
