import math

import numpy as np
import pytest

from sepkit import debugcheck
from sepkit.bench import clustering_diagnostics
from sepkit.certificates import verify_minor_witness
from sepkit.clustering import ActiveState, NestedClustering, nested_r_clustering
from sepkit.generators import (
    binary_tree_graph,
    generate_graph,
    grid_graph,
    kh_blowup_graph,
    path_graph,
    planted_minor_graph,
    random_regular_graph,
    torus_graph,
)
from sepkit.shallow import ln_ceil
from sepkit.spanner import build_spanner, stretch_check


class TestGenerators:
    def test_grid_counts(self):
        g = grid_graph(3)
        assert g.n == 9 and g.m == 12

    def test_torus_regular(self):
        g = torus_graph(6)
        assert (g.degrees() == 4).all()

    def test_path_and_tree(self):
        assert path_graph(5).m == 4
        t = binary_tree_graph(4)
        assert t.n == 31 and t.m == 30

    # each depth is rejected before the tree's size is computed or any list
    # is built: 127 is the size a caller meant, not a depth
    @pytest.mark.parametrize("depth", [-1, 31, 127])
    def test_binary_tree_depth_guard(self, depth):
        with pytest.raises(ValueError, match=f"binary-tree depth {depth} is outside 0..30"):
            binary_tree_graph(depth)
        with pytest.raises(ValueError, match=f"binary-tree depth {depth}"):
            generate_graph(f"binary-tree {depth}")

    def test_regular_degrees(self):
        for n, d in ((30, 3), (40, 6), (21, 4)):
            g = random_regular_graph(n, d, seed=1)
            assert (g.degrees() == d).all()

    def test_regular_parity_rejected(self):
        with pytest.raises(ValueError):
            random_regular_graph(9, 3)

    def test_planted_minor_witness_verifies(self):
        for n, h, seed in ((200, 6, 0), (90, 4, 3), (60, 3, 5)):
            g, wtn = planted_minor_graph(n, h, seed=seed)
            assert verify_minor_witness(g, wtn, h).ok

    def test_generate_graph_dispatch_deterministic(self):
        a = generate_graph("random-regular 30 4", seed=5)
        b = generate_graph("random-regular 30 4", seed=5)
        assert a.edge_list() == b.edge_list()
        with pytest.raises(ValueError):
            generate_graph("moebius 5")


class TestSpannerSampledAboveExhaustiveRange:
    def test_grid32_thousand_pairs(self):
        # above n = 200 the stretch contract is checked on sampled pairs
        g = grid_graph(32)
        rng = np.random.default_rng(3)
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, g.n, size=(1000, 2))
                 if a != b]
        for k in (2, 4):
            sp = build_spanner(g, k, seed=8)
            ratio, infp = stretch_check(g, sp, pairs)
            assert infp == 0 and ratio <= 2 * k - 1


class TestClusteringDiagnostics:
    """Lemma-style sums are measured diagnostics with recorded slack."""

    # measured on the grid corpus: ratios stay below 0.14 / 0.09 with polylog
    # exponent 1; pinned with modest headroom as regression thresholds
    SUM1_COEFF = 0.5
    SUM3_COEFF = 0.3

    @pytest.mark.parametrize("k", [10, 16, 24, 32])
    def test_grid_sums_within_recorded_envelope(self, k):
        g = grid_graph(k)
        h = 4
        n = g.n
        lnn = ln_ceil(n)
        r = max(10, n // 16)
        ell = max(1.0, n / (h * h * r))
        diag = clustering_diagnostics(g, r, h, 0.5)
        assert "minor_side" not in diag
        bound1 = self.SUM1_COEFF * h * n ** 1.5 / math.sqrt(ell) * lnn
        bound3 = self.SUM3_COEFF * (h * h * n ** 1.5 / math.sqrt(ell) + h ** 4 * n) * lnn
        assert diag["sum_C_dC"] <= bound1, (k, diag)
        assert diag["sum_dC_cubed"] <= bound3, (k, diag)

    def test_cx_boundary_sum_envelope(self):
        # Sum of |dC| over C_X stays within the recorded h^2 sqrt(ell n) envelope
        g = grid_graph(16)
        h, eps = 4, 0.5
        n = g.n
        lnn = ln_ceil(n)
        ell = max(1, math.ceil(math.sqrt(n) / (h * math.sqrt(lnn))))
        r = max(2, math.ceil(n / (h * h * ell)))
        nc = nested_r_clustering(g, r, h, eps, c_r=0.05)
        assert isinstance(nc, NestedClustering)
        rng = np.random.default_rng(4)
        xs = rng.choice(n, size=min(n // 8, 24), replace=False).tolist()
        st = ActiveState(nc)
        debugcheck.enable(True)
        try:
            st.set_many(xs, "active")
        finally:
            debugcheck.enable(False)
        total = sum(len(nc.cluster(cid).boundary) for cid in st.cx)
        envelope = 20.0 * h * h * math.sqrt(ell * n) * lnn
        assert total <= envelope, (total, envelope)


class TestIterationBudgetProperty:
    def test_corpus_iteration_counts(self):
        # c_it * n / ell + 8h + 8 with c_it = 16, enforced as a hard cap inside
        # the loops; representative runs stay well under it
        from sepkit.shallow import shallow_separator

        for g, ell in ((path_graph(600), 4), (grid_graph(20), 3)):
            stats = {}
            shallow_separator(g, 4, ell, 0.5, seed=2, stats=stats)
            assert stats["iterations"] <= 16 * g.n // ell + 40


class TestGeneratorSpecCheck:
    @pytest.mark.parametrize("spec", ["grid 3 4", "torus 1", "random-regular 0 0", "grid ١٢",
                                      "grid 0x10", "grid 50000", "path 99999999999999999999"])
    def test_rejected_naming_the_spec(self, spec):
        with pytest.raises(ValueError, match=f"generator spec {spec!r}: "):
            generate_graph(spec)

    def test_generator_errors_name_the_spec(self):
        with pytest.raises(ValueError, match="generator spec 'random-regular 5 3': n\\*d must be even"):
            generate_graph("random-regular 5 3")

    @pytest.mark.parametrize("spec, n", [("grid 0", 0), ("grid +3", 9), ("torus 2", 4),
                                         ("kh-blowup 2 1", 2), ("binary-tree 0", 1)])
    def test_edge_of_range_accepted(self, spec, n):
        assert generate_graph(spec).n == n
