"""Iterative shallow-minor separator: tree-or-cut primitive and the main loop.

The loop maintains a four-way partition (V_r, M, B, V') of the vertex set.
M is spanned by p <= h branch sets forming a K_p minor of bounded depth; each
iteration either grows p (a shallow tree is adopted), retires a branch set
whose neighborhood left the working component, or moves a low-expansion chunk
S' from V' to V_r with its boundary B' into B.  The working component G' is
the heaviest component of G[live].  Component labelling and ball growth run
on G[live] itself, so a cut's boundary B' = N(S') - S' lies at distance 1
from S'.

The source analysis grows balls in a decremental (2k-1)-spanner of G' so
that they cost n^(1+1/k) rather than m.  Here the loop runs only after the
density guard, which leaves m <= 4 h sqrt(ln h) n, and the spanner's size
target 4 k n^(1+1/k) then admits every edge unless h sqrt(ln h) > k n^(1/k);
so the loop skips the spanner (Baswana-Sen, JACM 2007, for that regime).

Ball growth is implemented as one exact BFS from the start vertex plus
arithmetic over the distance histogram: for exact-BFS balls,
N^delta(ball(x)) = ball(x + delta), so the growth and stall conditions reduce
to prefix-sum comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
# perfbench's trace-uninstall test reads this module attribute
from scipy.sparse import csr_matrix  # noqa: F401

from . import debugcheck
from .certificates import (
    SepOrMinor,
    Separator,
    density_result,
    lift_minor,
    separator_from_cut_mask,
    witness_from_slots,
)
from .graph import (
    DENSITY_POLICIES,
    Graph,
    MaskedSubgraph,
    VertexSet,
    any_edge_between,
    density_threshold,
    gather_neighbors,
    grow_within,
    induced_subgraph,
    masked_bfs,
    masked_diameter,
)

# Invariant constants, all functions of delta = 2*ceil(2/eps) - 1.  A raw
# tree-or-cut tree has depth <= 4*delta*ell*ln n and at most p paths of that
# length; the extension adds <= ell*h*ln n vertices within the same radius.
ITER_COEFF = 16           # c_it: iterations <= c_it * n / ell + 8h + 8


def branch_size_cap(delta: int, ell: int, h: int, lnn: float) -> int:
    """c_A * ell * h * ln n with c_A = 4*delta + 2 (raw tree plus extension)."""
    return int((4 * delta + 2) * ell * h * lnn) + 2


def branch_diam_cap(delta: int, ell: int, lnn: float) -> int:
    """c_D * ell * ln n with c_D = 16*delta + 4 (two radii of tree + extension)."""
    return int((16 * delta + 4) * ell * lnn) + 2


def separator_coeff(delta: int) -> int:
    """c_S in the claimed bound n/ell + c_S * ell h^2 ln n."""
    return 4 * delta + 3


def ln_ceil(n: int) -> float:
    """max(1, ln n); every logarithmic bound in this package rounds this way."""
    return max(1.0, math.log(max(n, 2)))


@dataclass
class TreeOrCutResult:
    """Tagged outcome of the ball-growing primitive."""

    kind: str                                 # "tree" | "cut"
    tree_vertices: Optional[VertexSet] = None
    root: Optional[int] = None
    parent: Optional[dict[int, int]] = None   # tree edges toward the root
    reps: Optional[list[int]] = None          # chosen representative per A_i
    cut_S: Optional[VertexSet] = None
    rounds: int = 0


def tree_or_cut(h_graph: Graph, a_sets: Sequence[VertexSet], ell: int, delta: int,
                start: int) -> TreeOrCutResult:
    """Grow a ball around `start` in steps of 2*delta until it stalls or spans.

    Returns a shallow tree hitting one representative per A_i (when the ball
    swallows start's component) or a cut S = N^delta(R) with low expansion on
    both sides.  Deterministic; ties route to the lexicographically smallest
    representative.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    for i, a in enumerate(a_sets):
        if len(a) == 0:
            raise ValueError(f"A_{i + 1} is empty; caller must filter empty sets")
    n = h_graph.n
    dist, pred = masked_bfs(h_graph, np.ones(n, dtype=bool), start)
    return _tree_or_cut_from_bfs(dist, pred, a_sets, ell, delta, start, n)


def _tree_or_cut_from_bfs(dist: np.ndarray, pred: np.ndarray, a_sets, ell: int,
                          delta: int, start: int, n: int) -> TreeOrCutResult:
    """tree_or_cut from one BFS (dist/pred indexed by host id); n is the
    number of vertices the BFS searched, which sets the logarithmic bounds."""
    finite = np.isfinite(dist)
    comp_size = int(finite.sum())
    idist = dist[finite].astype(np.int64)
    maxd = int(idist.max()) if comp_size else 0
    hist = np.bincount(idist, minlength=maxd + 1)
    csum = np.cumsum(hist)  # csum[d] = |ball(d)|

    def ball(d: int) -> int:
        if d < 0:
            return 0
        return int(csum[min(d, maxd)])

    rad = 0
    rounds = 0
    max_rounds = int(2 * ell * ln_ceil(n)) + 2
    while True:
        if ball(rad) == comp_size:
            break  # ball spans the component: tree case
        r2 = rad + 2 * delta
        grew = ell * ball(r2) >= (ell + 1) * ball(rad)
        rest_old = comp_size - ball(rad)
        rest_new = comp_size - ball(r2)
        shrunk = (ell + 1) * rest_new <= ell * rest_old
        if not (grew or shrunk):
            break  # stall: cut case
        rad = r2
        rounds += 1
        debugcheck.check("treeorcut.rounds", rounds <= max_rounds,
                         f"{rounds} rounds exceeds 2*ell*ln(n)={max_rounds}")

    if ball(rad) == comp_size:
        # BFS tree spans the component; prune to one representative per A_i
        reps: list[int] = []
        tree: set[int] = {start}
        parent: dict[int, int] = {}
        for a in a_sets:
            best = None
            for v in a:
                if not finite[v]:
                    continue
                key = (int(dist[v]), v)
                if best is None or key < best:
                    best = key
            if best is None:
                raise ValueError("an A_i set has no vertex in start's component")
            reps.append(best[1])
        for r in reps:
            v = r
            while v != start and v not in parent:
                parent[v] = int(pred[v])
                tree.add(v)
                v = int(pred[v])
        tree.update(reps)
        depth_bound = int(4 * delta * ell * ln_ceil(n)) + 1
        debugcheck.check("treeorcut.depth",
                         all(dist[v] <= depth_bound for v in tree),
                         "tree deeper than 4*delta*ell*ln n")
        size_bound = int(4 * delta * ell * max(1, len(a_sets)) * ln_ceil(n)) + 1
        debugcheck.check("treeorcut.size", len(tree) <= size_bound,
                         f"tree size {len(tree)} exceeds {size_bound}")
        return TreeOrCutResult(kind="tree", tree_vertices=VertexSet(tree), root=start,
                               parent=parent, reps=reps, rounds=rounds)

    s_mask = finite & (dist <= rad + delta)
    if debugcheck.enabled():
        # exact condition 2a: for exact-BFS balls N^d(ball(x)) = ball(x+d)
        out_shell = int(np.sum(finite & (dist > rad + delta) & (dist <= rad + 2 * delta)))
        s_count = int(s_mask.sum())
        mn = min(s_count, comp_size - s_count)
        debugcheck.check("treeorcut.outer-expansion", ell * out_shell < mn,
                         f"|N^d(S) \\ S| = {out_shell} !< min/ell = {mn}/{ell}")
        in_shell = int(np.sum(finite & (dist > rad) & (dist <= rad + delta)))
        debugcheck.check("treeorcut.inner-expansion", ell * in_shell < mn,
                         f"|N^d(V-S) ^ S| <= {in_shell} !< min/ell = {mn}/{ell}")
    return TreeOrCutResult(kind="cut", cut_S=VertexSet.from_mask(s_mask), rounds=rounds)


@dataclass
class PartitionState:
    """Four-way partition (V_r, M, B, V') with branch sets over M."""

    n: int
    h: int
    ell: int
    eps: float
    delta: int
    in_vr: np.ndarray
    in_b: np.ndarray
    branch_slots: list[Optional[np.ndarray]]
    live: np.ndarray          # working component of G[V']
    parked: np.ndarray        # V' vertices set aside in non-maximal components

    @property
    def p(self) -> int:
        return sum(1 for s in self.branch_slots if s is not None)

    def m_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        for s in self.branch_slots:
            if s is not None:
                mask[s] = True
        return mask

    def check_invariants(self, g: Graph, rule_prefix: str = "shallow") -> None:
        """Assert the loop invariants: branch-set sizes, connectivity, diameters,
        pairwise edges, the boundary/processed ratio, and the weight cap."""
        if not debugcheck.enabled():
            return
        n, ell, h = self.n, self.ell, self.h
        lnn = ln_ceil(n)
        size_cap = branch_size_cap(self.delta, ell, h, lnn)
        diam_cap = branch_diam_cap(self.delta, ell, lnn)
        sets = [s for s in self.branch_slots if s is not None]
        debugcheck.check(f"{rule_prefix}.branch-count", len(sets) <= h, f"p={len(sets)} > h={h}")
        for i, s in enumerate(sets):
            debugcheck.check(f"{rule_prefix}.branch-size", len(s) <= size_cap,
                             f"branch set {i}: {len(s)} > {size_cap}")
            diam = masked_diameter(g, s)
            debugcheck.check(f"{rule_prefix}.branch-connected", diam is not None,
                             f"branch set {i} disconnected")
            if diam is not None:
                debugcheck.check(f"{rule_prefix}.branch-diameter", diam <= diam_cap,
                                 f"branch set {i}: diameter {diam} > {diam_cap}")
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                debugcheck.check(
                    f"{rule_prefix}.branch-pair",
                    any_edge_between(g, sets[i], sets[j]),
                    f"no edge between branch sets {i} and {j}")
        debugcheck.check(f"{rule_prefix}.boundary-ratio", ell * int(self.in_b.sum()) <= int(self.in_vr.sum()),
                         f"boundary {int(self.in_b.sum())} exceeds processed/ell = {int(self.in_vr.sum())}/{ell}")
        wvr = int(g.vertex_weight[self.in_vr].sum())
        debugcheck.check(f"{rule_prefix}.processed-weight", 3 * wvr <= 2 * g.total_vertex_weight,
                         f"processed weight {wvr} exceeds 2/3 of total")
        overlap = (self.in_vr & self.in_b) | (self.in_vr & self.live) | (self.in_b & self.live)
        debugcheck.check(f"{rule_prefix}.partition", not overlap.any(), "partition classes overlap")


def shallow_separator(g: Graph, h: int, ell: int, eps: float, seed: int = 0,
                      stats: Optional[dict] = None, complete_witness: bool = True) -> SepOrMinor:
    """Depth-bounded K_h-minor witness or a separator of size O(n/ell + ell h^2 ln n).

    With complete_witness (the default), tree adoptions continue after the
    separator has become valid, chasing a full K_h witness; clustering-internal
    calls disable this to keep separators lean.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if not (0 < eps <= 1):
        raise ValueError("eps must be in (0, 1]")
    n = g.n
    if n == 0:
        return Separator(VertexSet(), VertexSet(), VertexSet(), claimed_bound=0,
                         params={"h": h, "ell": ell, "eps": eps, "algorithm": "shallow"})
    k = math.ceil(2 / eps)
    delta = 2 * k - 1
    lnn = ln_ceil(n)
    wtotal = g.total_vertex_weight
    params = {"h": h, "ell": ell, "eps": eps, "k": k, "delta": delta, "seed": seed,
              "algorithm": "shallow"}

    dense = density_result(g, h, params)
    if dense is not None:
        return dense

    st = PartitionState(
        n=n, h=h, ell=ell, eps=eps, delta=delta,
        in_vr=np.zeros(n, dtype=bool), in_b=np.zeros(n, dtype=bool),
        branch_slots=[], live=np.ones(n, dtype=bool), parked=np.zeros(n, dtype=bool),
    )
    pair_edges: dict[tuple[int, int], tuple[int, int]] = {}
    ext_target = max(1, math.ceil(h * ell * lnn))
    ext_radius = max(1, math.ceil(4 * delta * ell * lnn))
    iters = 0
    iter_cap = ITER_COEFF * max(1, n // ell) + 8 * h + 8

    while True:
        iters += 1
        if iters > iter_cap:
            raise RuntimeError(f"shallow loop exceeded {iter_cap} iterations; this is a bug")

        # per-iteration density recheck on the live subgraph
        live_n = int(st.live.sum())
        live_m = int(np.count_nonzero(st.live[g.edge_u] & st.live[g.edge_v]))
        if live_n and any(live_m > density_threshold(p, h, live_n) for p in DENSITY_POLICIES):
            if stats is not None:
                stats["iterations"] = iters
            sub, _ = induced_subgraph(g, VertexSet.from_mask(st.live))
            return lift_minor(density_result(sub, h, params), np.flatnonzero(st.live))

        if st.p == h:
            if stats is not None:
                stats["iterations"] = iters
            wtn = witness_from_slots(g, st.branch_slots, pair_edges, params)
            debugcheck.check("shallow.witness-depth",
                             wtn.depth_bound <= branch_diam_cap(delta, ell, lnn),
                             f"witness depth {wtn.depth_bound} exceeds bound")
            return wtn

        # identify G' (heaviest live component); park the others.  The BFS
        # below reuses this G[live]: start lies in G', a whole component of it,
        # so parked vertices stay unreached either way.
        live_sub = MaskedSubgraph(g, st.live)
        ids = live_sub.ids
        ncomp, labels = live_sub.components()
        gprime_w = 0
        if ncomp > 0:
            compw = np.zeros(ncomp, dtype=np.int64)
            np.add.at(compw, labels, g.vertex_weight[ids])
            best = int(np.argmax(compw))  # ties: lowest label = lowest min-id
            gprime_w = int(compw[best])
            if ncomp > 1:
                parked_ids = ids[labels != best]
                st.live[parked_ids] = False
                st.parked[parked_ids] = True
        live_n = int(st.live.sum())

        # Once no live component is heavy, M u B is already a valid separator.
        # Branch sets may still complete to a K_h witness, so tree adoptions
        # (which only enlarge the separator side) continue in terminal mode;
        # cut moves and branch-set retirements need the heavy-component weight
        # argument and stop here.
        terminal = 3 * gprime_w <= 2 * wtotal
        if terminal and (st.p == 0 or gprime_w == 0 or not complete_witness):
            break

        st.check_invariants(g)

        # A_i upkeep; retire the first branch set cut off from G'
        empty_slot = None
        a_sets: list[VertexSet] = []
        slot_of_aset: list[int] = []
        for si, bs in enumerate(st.branch_slots):
            if bs is None:
                continue
            nbrs = gather_neighbors(g.indptr, g.indices, bs)
            nbrs = nbrs[st.live[nbrs]]
            if len(nbrs) == 0:
                empty_slot = si
                break
            a_sets.append(VertexSet(np.unique(nbrs).tolist()))
            slot_of_aset.append(si)
        if empty_slot is not None:
            if terminal:
                break
            st.in_vr[st.branch_slots[empty_slot]] = True
            st.branch_slots[empty_slot] = None
            continue

        if a_sets:
            start = a_sets[0].ids()[0]
        else:
            start = int(np.flatnonzero(st.live)[0])

        dist, pred = live_sub.bfs(start)
        result = _tree_or_cut_from_bfs(dist, pred, a_sets, ell, delta, start, live_n)

        if result.kind == "cut" and terminal:
            break

        if result.kind == "tree":
            tree_ids = np.asarray(result.tree_vertices.ids(), dtype=np.int64)
            room = max(1, live_n // (2 * (h - st.p)))
            target = min(ext_target, max(room, len(tree_ids)))
            new_set = grow_within(g, st.live, tree_ids, target, ext_radius)
            slot = len(st.branch_slots)
            for ai, si in enumerate(slot_of_aset):
                rep = result.reps[ai]
                other = st.branch_slots[si]
                omask = np.zeros(n, dtype=bool)
                omask[other] = True
                cand = g.neighbors(rep)
                cand = cand[omask[cand]]
                pair_edges[(si, slot)] = (int(rep), int(cand[0]))
            st.branch_slots.append(new_set)
            st.live[new_set] = False
        else:
            s_ids = np.asarray(result.cut_S.ids(), dtype=np.int64)
            w_s = int(g.vertex_weight[s_ids].sum())
            w_rest = gprime_w - w_s
            cnt_s = len(s_ids)
            cnt_rest = live_n - cnt_s
            take_s = (w_s, cnt_s, int(s_ids[0]) if cnt_s else -1) <= \
                     (w_rest, cnt_rest, _lowest_outside(st.live, s_ids))
            if take_s:
                sprime = s_ids
            else:
                smask = np.zeros(n, dtype=bool)
                smask[s_ids] = True
                sprime = np.flatnonzero(st.live & ~smask)
            spmask = np.zeros(n, dtype=bool)
            spmask[sprime] = True
            nbrs = gather_neighbors(g.indptr, g.indices, sprime)
            nbrs = nbrs[st.live[nbrs] & ~spmask[nbrs]]
            bprime = np.unique(nbrs)
            debugcheck.check("shallow.cut-boundary",
                             ell * len(bprime) < max(1, min(cnt_s, cnt_rest)),
                             f"|B'|={len(bprime)} !< min(|S|,|rest|)/ell")
            st.in_vr[sprime] = True
            st.in_b[bprime] = True
            st.live[sprime] = False
            st.live[bprime] = False

    st.check_invariants(g)
    if stats is not None:
        stats["iterations"] = iters
    cmask = st.m_mask() | st.in_b
    claimed = min(n, math.ceil(n / ell + separator_coeff(delta) * ell * h * h * lnn) + 1)
    sep = separator_from_cut_mask(g, cmask, claimed_bound=claimed, params=params)
    return sep


def _lowest_outside(live: np.ndarray, s_ids: np.ndarray) -> int:
    mask = live.copy()
    mask[s_ids] = False
    out = np.flatnonzero(mask)
    return int(out[0]) if len(out) else -1


def shallow_separator_balanced(g: Graph, h: int, eps: float, seed: int = 0,
                               stats: Optional[dict] = None,
                               complete_witness: bool = True) -> SepOrMinor:
    """Balanced instantiation: ell chosen so n/ell and ell h^2 ln n match."""
    n = g.n
    if n == 0:
        return shallow_separator(g, h, 1, eps, seed, stats=stats)
    lnn = ln_ceil(n)
    ell = max(1, round(math.sqrt(n / lnn) / h))
    out = shallow_separator(g, h, ell, eps, seed, stats=stats,
                            complete_witness=complete_witness)
    if isinstance(out, Separator):
        c_s = separator_coeff(2 * math.ceil(2 / eps) - 1)
        out.claimed_bound = min(out.claimed_bound if out.claimed_bound is not None else n, n,
                                math.ceil(4 * c_s * h * math.sqrt(n * lnn)) + 1)
        out.params["algorithm"] = "shallow-balanced"
    return out
