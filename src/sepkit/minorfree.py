"""Main separator loop over the nested clustering (bootstrapped algorithm).

Preprocessing builds a nested r-clustering with r = ceil(n / (h^2 ell)); a
cluster already heavier than 2/3 of the total weight is returned outright as
a separator.  The iterative loop mirrors the shallow-separator loop but finds
its shallow trees in the sublinear arena S_X (per-cluster spanners of dense
distance graphs) and its low-expansion cuts with a bidirectional ball search
run directly in G minus the active set.  The four-way partition invariants
are identical, and M is kept in the same `shallow.BranchLedger`, whose owner
array the DDG layer reads when each find derives its label sets.  The
active set X is M u B, and component weights come from the X-cluster
decomposition rather than graph scans.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import debugcheck
from .certificates import (
    SepOrMinor,
    Separator,
    density_result,
    exceeds_balance,
    separator_from_cut_mask,
)
from .clustering import (
    DEFAULT_C_R,
    ActiveState,
    MinorFound,
    NestedClustering,
    check_eps_c_r,
    decompose_active_complement,
    nested_r_clustering,
)
from .ddg import DdgLayer
from .graph import Graph, gather_neighbors, grow_within
from .shallow import (
    ITER_COEFF,
    BranchLedger,
    check_progress,
    ln_ceil,
    shallow_separator_balanced,
)

WORK_CHUNK = 256  # vertices per alternation step of the bidirectional search


class _BallSearch:
    """Incremental ball grower in G minus a blocked set, chunked for the
    unit-of-work alternation of the bidirectional search."""

    def __init__(self, g: Graph, blocked: np.ndarray, start: int, ell: int,
                 comp_size: int, owner: np.ndarray, tag: int):
        self.g = g
        self.blocked = blocked
        self.ell = ell
        self.comp_size = comp_size
        self.owner = owner
        self.tag = tag
        self.visited = [start]
        self.count = 1
        self.frontier = np.asarray([start], dtype=np.int64)
        self.layer_parity = 0      # layers completed within the current round
        self.pending = None        # frontier slice not yet processed
        self.pending_pos = 0
        self.next_frontier: list[np.ndarray] = []
        self.count_before_round = 1
        self.work = 0
        self.stalled = False
        self.rounds = 0
        owner[start] = tag

    def step(self) -> None:
        """Process up to WORK_CHUNK frontier vertices; update stall state."""
        g = self.g
        if self.pending is None:
            self.pending = self.frontier
            self.pending_pos = 0
        lo = self.pending_pos
        hi = min(lo + WORK_CHUNK, len(self.pending))
        batch = self.pending[lo:hi]
        self.pending_pos = hi
        if len(batch):
            nbrs = gather_neighbors(g.indptr, g.indices, batch)
            self.work += len(nbrs) + len(batch)
            if len(nbrs):
                nbrs = nbrs[~self.blocked[nbrs]]
                nbrs = np.unique(nbrs)
                fresh = self.owner[nbrs] == -1
                clash = self.owner[nbrs] == (1 - self.tag)
                if clash.any():
                    raise RuntimeError("bidirectional search balls met; "
                                       "far-pair precondition violated")
                new = nbrs[fresh]
                if len(new):
                    self.owner[new] = self.tag
                    self.next_frontier.append(new)
                    self.count += len(new)
                    self.visited.append(new)
        if self.pending_pos >= len(self.pending):
            # layer finished
            self.frontier = (np.concatenate(self.next_frontier)
                             if self.next_frontier else np.empty(0, np.int64))
            self.next_frontier = []
            self.pending = None
            self.layer_parity += 1
            if self.layer_parity == 2:
                self.layer_parity = 0
                self.rounds += 1
                grew = self.ell * self.count >= (self.ell + 1) * self.count_before_round
                rest_old = self.comp_size - self.count_before_round
                rest_new = self.comp_size - self.count
                shrunk = (self.ell + 1) * rest_new <= self.ell * rest_old
                if self.count == self.comp_size or not (grew or shrunk):
                    self.stalled = True
                self.count_before_round = self.count

    def ball_vertices(self) -> np.ndarray:
        return np.unique(np.concatenate([np.atleast_1d(np.asarray(p, dtype=np.int64))
                                         for p in self.visited]))


def bidirectional_cut(g: Graph, blocked: np.ndarray, s: int, t: int, ell: int,
                      comp_size: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Interleaved ball growth from s and t; the first stalled side yields
    S = N(R) with low expansion in both directions.

    Work alternates in chunks; the s-search moves on ties.  Ball collision
    signals a violated far-pair precondition and raises.
    """
    owner = np.full(g.n, -1, dtype=np.int8)
    search_s = _BallSearch(g, blocked, s, ell, comp_size, owner, 0)
    search_t = _BallSearch(g, blocked, t, ell, comp_size, owner, 1)
    max_rounds = int(2 * ell * ln_ceil(g.n)) + 2
    while True:
        if search_s.stalled or search_t.stalled:
            break
        pick = search_s if search_s.work <= search_t.work else search_t
        pick.step()
        debugcheck.check("bidi.rounds",
                         search_s.rounds <= max_rounds and search_t.rounds <= max_rounds,
                         "ball search exceeded 2 ell ln n rounds")
    winner = search_s if search_s.stalled else search_t
    r_ball = winner.ball_vertices()
    # S = N(R): one more layer around the final ball
    nbrs = gather_neighbors(g.indptr, g.indices, r_ball)
    nbrs = nbrs[~blocked[nbrs]]
    s_ids = np.unique(np.concatenate([r_ball, nbrs]))
    cnt_s = len(s_ids)
    cnt_rest = comp_size - cnt_s
    if debugcheck.enabled():
        _check_cut_conditions(g, blocked, s_ids, cnt_rest, ell)
    return s_ids, (cnt_s, cnt_rest)


def _check_cut_conditions(g: Graph, blocked: np.ndarray, s_ids: np.ndarray,
                          cnt_rest: int, ell: int) -> None:
    smask = np.zeros(g.n, dtype=bool)
    smask[s_ids] = True
    nbrs = gather_neighbors(g.indptr, g.indices, s_ids)
    nbrs = nbrs[~blocked[nbrs] & ~smask[nbrs]]
    out_shell = len(np.unique(nbrs)) if len(nbrs) else 0
    mn = min(len(s_ids), cnt_rest)
    debugcheck.check("dispatch.outer-expansion", ell * out_shell <= mn,
                     f"|N(S)\\S| = {out_shell} exceeds min/ell = {mn}/{ell}")
    if out_shell:
        back = gather_neighbors(g.indptr, g.indices, np.unique(nbrs))
        back = back[smask[back]]
        in_shell = len(np.unique(back)) if len(back) else 0
    else:
        in_shell = 0
    debugcheck.check("dispatch.inner-expansion", ell * in_shell <= mn,
                     f"|N(V'\\S) ^ S| = {in_shell} exceeds min/ell = {mn}/{ell}")


def _tree_size_coeff(k: int) -> int:
    # S_X tree threshold is 8*ell*ln(n)*(2k-1); extension adds one cluster
    return 8 * (2 * k - 1) + 2


def minor_free_separator(g: Graph, h: int, ell: int, eps: float, seed: int = 0,
                         stats: Optional[dict] = None,
                         c_r: float = DEFAULT_C_R) -> SepOrMinor:
    """Separator of size O(ell h^2 ln n) or K_h-minor evidence, via the
    nested-clustering bootstrap."""
    if h < 2:
        raise ValueError("h must be >= 2")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    check_eps_c_r(eps, c_r)
    params = {"h": h, "ell": ell, "eps": eps, "seed": seed, "algorithm": "minorfree"}
    try:
        return _minor_free_search(g, h, ell, eps, seed, stats, c_r, params)
    except MinorFound as mf:
        # a lazy split reached through the ActiveState flips found the minor side
        return _with_run_params(mf.result, params)


def _with_run_params(out: SepOrMinor, params: dict) -> SepOrMinor:
    """A minor-side result from a clustering step, with the run's params."""
    out.params = {**out.params, **params}
    return out


def _minor_free_search(g: Graph, h: int, ell: int, eps: float, seed: int,
                       stats: Optional[dict], c_r: float, params: dict) -> SepOrMinor:
    """minor_free_separator after its argument checks; adds "r" to `params`."""
    n = g.n
    if n == 0:
        return Separator(claimed_bound=0, params=params)
    lnn = ln_ceil(n)
    wtotal = g.total_vertex_weight
    k = max(1, math.ceil(1.0 / eps))  # DDG spanner parameter

    dense = density_result(g, h, params)
    if dense is not None:
        return dense

    # a single overweight vertex can never be balanced away: it must sit in C
    heavy_v = int(np.argmax(g.vertex_weight)) if n else 0
    if exceeds_balance(int(g.vertex_weight[heavy_v]), wtotal):
        cmask = np.zeros(n, dtype=bool)
        cmask[heavy_v] = True
        params["early_exit"] = "heavy-vertex"
        return separator_from_cut_mask(g, cmask, claimed_bound=1, params=params)

    r = max(2, math.ceil(n / (h * h * ell)))
    if r <= c_r * h * h * lnn:
        out = shallow_separator_balanced(g, h, eps, seed, stats=stats)
        if isinstance(out, Separator):
            out.params["algorithm"] = "minorfree-fallback-shallow"
            out.params["fallback_reason"] = f"r={r} below C_r h^2 ln n"
        return out
    params["r"] = r

    nc = nested_r_clustering(g, r, h, eps, c_r=c_r)
    if not isinstance(nc, NestedClustering):
        return _with_run_params(nc, params)

    # early cluster-weight exit
    for cid in nc.level1:
        c = nc.cluster(cid)
        wc = int(g.vertex_weight[c.vertices].sum())
        if 3 * wc >= 2 * wtotal:
            cmask = np.zeros(n, dtype=bool)
            cmask[c.vertices] = True
            params["early_exit"] = "cluster-weight"
            return separator_from_cut_mask(g, cmask, claimed_bound=len(c.vertices),
                                           params=params)

    c_tree = _tree_size_coeff(k)
    ext_target = max(1, math.ceil(h * ell * lnn))
    per_set_cap = (c_tree + 1) * max(1, math.ceil(h * ell * lnn)) + nc.r + 4
    x_cap = h * per_set_cap + math.ceil(n / ell) + 16
    st = ActiveState(nc, x_cap=x_cap)
    ledger = BranchLedger(n)
    layer = DdgLayer(st, ledger, eps, seed=seed)

    # the processed set V_R is read only by the debug checks
    in_vr = np.zeros(n, dtype=bool) if debugcheck.enabled() else None
    in_b = np.zeros(n, dtype=bool)
    iters = 0
    iter_cap = ITER_COEFF * max(1, n // ell) + 8 * h + 8
    counts = {"tree": 0, "cut": 0, "empty": 0}

    while True:
        iters += 1
        if iters > iter_cap:
            raise RuntimeError(f"minorfree loop exceeded {iter_cap} iterations; this is a bug")

        held = ledger.held
        if len(held) == h:
            if stats is not None:
                stats.update(iterations=iters, **counts)
            return ledger.witness(g, params)

        comps = decompose_active_complement(st)
        heavy = next((c for c in comps if exceeds_balance(c[1], wtotal)), None)
        terminal = heavy is None
        if terminal:
            if not held or not comps:
                break
            heavy = max(comps, key=lambda t: (t[1], -t[0][0][0]))
        members, w_gp, cnt_gp = heavy

        if in_vr is not None:
            ledger.check(g, "mf", h)
            check_progress(g, "mf", ell, in_vr, in_b)

        # the least passive boundary vertex of the heavy component
        pbs = [st.dyn[cid].xclusters[idx].passive_boundary for cid, idx in members]
        s_vertex = min((int(pb[0]) for pb in pbs if len(pb)), default=None)
        if s_vertex is None:
            break

        # one dispatch: tree-or-far search in S_X, then the bidirectional cut
        found = layer.find_tree_or_far_pair(s_vertex, held, ell, h)

        if found.kind == "empty":
            counts["empty"] += 1
            if terminal:
                break
            vs = ledger.retire(found.empty_slot)
            if in_vr is not None:
                in_vr[vs] = True
            st.set_many(vs.tolist(), "passive")
            continue

        if found.kind == "far":
            s_ids, (cnt_s, cnt_rest) = bidirectional_cut(g, st.active, *found.far_pair, ell,
                                                         cnt_gp)
            counts["cut"] += 1
            if terminal:
                break
            w_s = int(g.vertex_weight[s_ids].sum())
            w_rest = w_gp - w_s
            smask = np.zeros(n, dtype=bool)
            smask[s_ids] = True
            # both boundary candidates are derived by scanning the S side only
            nbrs = gather_neighbors(g.indptr, g.indices, s_ids)
            nbrs = nbrs[~st.active[nbrs] & ~smask[nbrs]]
            out_shell = np.unique(nbrs)
            if (w_s, cnt_s) <= (w_rest, cnt_rest):
                if in_vr is not None:
                    in_vr[s_ids] = True
                bprime = out_shell
            else:
                if in_vr is not None:
                    in_vr |= _component_minus(g, members, st, smask)
                back = gather_neighbors(g.indptr, g.indices, out_shell)
                bprime = np.unique(back[smask[back] & ~st.active[back]])
            debugcheck.check("mf.cut-boundary", ell * len(bprime) <= max(1, min(cnt_s, cnt_rest)),
                             f"|B'|={len(bprime)} vs min/ell")
            in_b[bprime] = True
            st.set_many(bprime.tolist(), "active")
            continue

        counts["tree"] += 1
        tree_ids = found.tree_vertices
        room = max(1, cnt_gp // (2 * (h - len(held))))
        target = min(ext_target, max(room, len(tree_ids)))
        new_set = grow_within(g, ~st.active, tree_ids, target,
                              max(1, math.ceil(c_tree * ell * lnn)))
        ledger.adopt(new_set, found.rep_edges.items())
        st.set_many(new_set.tolist(), "active")

    if in_vr is not None:
        ledger.check(g, "mf", h)
        check_progress(g, "mf", ell, in_vr, in_b)
    if stats is not None:
        stats.update(iterations=iters, **counts)
    cmask = (ledger.owner >= 0) | in_b
    c_s = _tree_size_coeff(k) + 3
    claimed = min(n, math.ceil(c_s * ell * h * h * lnn) + math.ceil(n / ell) + 2)
    return separator_from_cut_mask(g, cmask, claimed_bound=claimed, params=params)


def _component_minus(g: Graph, members, st: ActiveState, smask: np.ndarray) -> np.ndarray:
    """Heavy-component vertices outside S: its X-cluster union minus S."""
    mask = np.zeros(g.n, dtype=bool)
    for cid, idx in members:
        vs = st.dyn[cid].xclusters[idx].vertices
        take = vs[~smask[vs]]
        if len(take):
            mask[take] = True
    return mask


def balanced_separator(g: Graph, h: int, eps: float, seed: int = 0,
                       stats: Optional[dict] = None,
                       c_r: float = DEFAULT_C_R) -> SepOrMinor:
    """Balanced instantiation: ell = ceil(sqrt(n) / (h sqrt(ln n)))."""
    if h < 2:
        raise ValueError("h must be >= 2")
    n = g.n
    if n == 0:
        return minor_free_separator(g, h, 1, eps, seed, stats=stats, c_r=c_r)
    lnn = ln_ceil(n)
    ell = max(1, math.ceil(math.sqrt(n) / (h * math.sqrt(lnn))))
    out = minor_free_separator(g, h, ell, eps, seed, stats=stats, c_r=c_r)
    if isinstance(out, Separator):
        out.params["ell"] = ell
        k = max(1, math.ceil(1.0 / eps))
        c_s = _tree_size_coeff(k) + 3
        out.claimed_bound = min(out.claimed_bound if out.claimed_bound is not None else n, n,
                                math.ceil(4 * c_s * h * math.sqrt(n * lnn)) + 2)
        if out.params["algorithm"] == "minorfree":
            out.params["algorithm"] = "minorfree-balanced"
    return out
