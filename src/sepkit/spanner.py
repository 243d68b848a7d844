"""(2k-1)-spanners for weighted graphs and a decremental wrapper.

Static construction is Baswana-Sen style randomized clustering: k-1 sampling
rounds followed by a per-cluster cleanup pass.  It runs in O(k m) time and
yields stretch 2k-1 with expected size O(k n^(1+1/k)).

Decremental maintenance does not reimplement a dynamic spanner structure.
Deletions accumulate; the spanner is rebuilt from the surviving host edges
whenever (a) a deletion removed a spanner edge or isolated a spanner-incident
vertex, which could break the stretch contract, or (b) the deletion budget
R_max = max(sqrt(n), m/4) is exceeded, which keeps the size bound tracking the
shrinking host.  Between rebuilds the stretch contract holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph

from .graph import Graph

SIZE_COEFF = 4.0  # c_sp in the size bound c_sp * k * n^(1+1/k)


@dataclass
class Spanner:
    """Edge subset of a host graph with stretch at most 2k-1."""

    n: int
    k: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray

    @property
    def m(self) -> int:
        return len(self.edge_u)

    def size_bound(self) -> int:
        return int(math.ceil(SIZE_COEFF * self.k * self.n ** (1.0 + 1.0 / self.k)))

    def csr(self) -> csr_matrix:
        iu = np.concatenate([self.edge_u, self.edge_v])
        iv = np.concatenate([self.edge_v, self.edge_u])
        data = np.concatenate([self.edge_w, self.edge_w])
        return csr_matrix((data, (iu, iv)), shape=(self.n, self.n))


def _baswana_sen(n: int, eu: np.ndarray, ev: np.ndarray, ew: np.ndarray,
                 k: int, seed: int) -> np.ndarray:
    """Indices (into eu/ev/ew) of the selected spanner edges."""
    m = len(eu)
    if m == 0 or k <= 1:
        return np.arange(m)
    rng = np.random.Generator(np.random.PCG64(seed))
    cluster = np.arange(n, dtype=np.int64)  # center id per vertex; -1 = left
    alive = np.ones(m, dtype=bool)
    picked = np.zeros(m, dtype=bool)
    p = n ** (-1.0 / k)

    for _ in range(k - 1):
        if not alive.any():
            break
        sampled_center = rng.random(n) < p
        ids = np.flatnonzero(alive)
        cu = cluster[eu[ids]]
        cv = cluster[ev[ids]]
        intra = cu == cv
        if intra.any():
            alive[ids[intra]] = False
            ids, cu, cv = ids[~intra], cu[~intra], cv[~intra]
        if len(ids) == 0:
            continue
        # directed rows (endpoint, other cluster); only endpoints whose own
        # cluster is unsampled act this round
        vend = np.concatenate([eu[ids], ev[ids]])
        othc = np.concatenate([cv, cu])
        ownc = np.concatenate([cu, cv])
        reid = np.concatenate([ids, ids])
        act = (ownc >= 0) & (othc >= 0) & ~sampled_center[np.maximum(ownc, 0)]
        vend, othc, reid = vend[act], othc[act], reid[act]
        if len(vend):
            w = ew[reid]
            # lightest edge per (vertex, other-cluster); ties by (w, edge id)
            order = np.lexsort((reid, w, othc, vend))
            vend, othc, reid, w = vend[order], othc[order], reid[order], w[order]
            first_vc = np.ones(len(vend), dtype=bool)
            first_vc[1:] = (vend[1:] != vend[:-1]) | (othc[1:] != othc[:-1])
            lv, lc, lid, lw = vend[first_vc], othc[first_vc], reid[first_vc], w[first_vc]
            # per vertex: lightest sampled cluster among the per-cluster rows
            smp = sampled_center[lc]
            join_center = np.full(n, -1, dtype=np.int64)
            join_w = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
            join_eid = np.full(n, -1, dtype=np.int64)
            if smp.any():
                sv, sc, sid, sw = lv[smp], lc[smp], lid[smp], lw[smp]
                o2 = np.lexsort((sid, sc, sw, sv))
                sv, sc, sid = sv[o2], sc[o2], sid[o2]
                sw = sw[o2]
                firstv = np.ones(len(sv), dtype=bool)
                firstv[1:] = sv[1:] != sv[:-1]
                join_center[sv[firstv]] = sc[firstv]
                join_w[sv[firstv]] = sw[firstv]
                join_eid[sv[firstv]] = sid[firstv]
            # add: the join edge, plus lightest-per-cluster strictly below the
            # join weight (all per-cluster rows when nothing sampled is adjacent)
            add_rows = lw < join_w[lv]
            picked[lid[add_rows]] = True
            has_join = join_eid[lv] >= 0
            picked[join_eid[lv[has_join]]] = True  # idempotent over duplicates
            # settle rows that were added, rows to the joined cluster, and all
            # rows of leaving vertices; heavier rows of joiners survive
            settle = add_rows | (lc == join_center[lv]) | ~has_join
            grp = np.cumsum(first_vc) - 1
            alive[reid[settle[grp]]] = False
            alive[picked] = False
        else:
            join_center = np.full(n, -1, dtype=np.int64)
        # new clustering: sampled clusters persist, joiners adopt centers
        newc = np.full(n, -1, dtype=np.int64)
        keep = (cluster >= 0) & sampled_center[np.maximum(cluster, 0)]
        newc[keep] = cluster[keep]
        joined = join_center >= 0
        newc[joined] = join_center[joined]
        cluster = newc

    # cleanup pass: lightest edge per (vertex, adjacent final cluster)
    ids = np.flatnonzero(alive)
    if len(ids):
        cu = cluster[eu[ids]]
        cv = cluster[ev[ids]]
        inter = (cu != cv) & (cu >= 0) & (cv >= 0)
        ids = ids[inter]
        if len(ids):
            vend = np.concatenate([eu[ids], ev[ids]])
            othc = np.concatenate([cluster[ev[ids]], cluster[eu[ids]]])
            reid = np.concatenate([ids, ids])
            w = ew[reid]
            order = np.lexsort((reid, w, othc, vend))
            vend, othc, reid = vend[order], othc[order], reid[order]
            first_vc = np.ones(len(vend), dtype=bool)
            first_vc[1:] = (vend[1:] != vend[:-1]) | (othc[1:] != othc[:-1])
            picked[reid[first_vc]] = True
    return np.flatnonzero(picked)


def build_spanner(g: Graph, k: int, seed: int = 0) -> Spanner:
    """(2k-1)-spanner of g; deterministic for a fixed seed.

    Retries with derived seeds in the rare event the randomized size bound is
    missed, so the documented bound holds on every returned spanner.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ew = g.edge_weights()
    bound = int(math.ceil(SIZE_COEFF * k * g.n ** (1.0 + 1.0 / k))) if g.n else 0
    if k == 1:
        sel = np.arange(g.m)
    else:
        sel = None
        for attempt in range(8):
            cand = _baswana_sen(g.n, g.edge_u, g.edge_v, ew, k, seed + 7919 * attempt)
            if len(cand) <= bound:
                sel = cand
                break
        if sel is None:
            raise RuntimeError("spanner size bound missed on every retry")
    return Spanner(n=g.n, k=k, edge_u=g.edge_u[sel].copy(), edge_v=g.edge_v[sel].copy(),
                   edge_w=ew[sel].copy())


def stretch_check(g: Graph, span: Spanner, sample: Sequence[tuple[int, int]] | str = "all"):
    """Exact max of d_spanner / d_G over the sample; inf-pairs reported."""
    host = g.csr(g.edge_weights())
    sp = span.csr()
    if sample == "all":
        dh = csgraph.dijkstra(host, directed=False)
        ds = csgraph.dijkstra(sp, directed=False)
        iu, iv = np.triu_indices(g.n, k=1)
        hvals, svals = dh[iu, iv], ds[iu, iv]
    else:
        pairs = np.asarray(list(sample), dtype=np.int64)
        srcs = np.unique(pairs[:, 0])
        dh = csgraph.dijkstra(host, directed=False, indices=srcs)
        ds = csgraph.dijkstra(sp, directed=False, indices=srcs)
        row = {int(s): i for i, s in enumerate(srcs)}
        ridx = np.asarray([row[int(a)] for a, _ in pairs])
        hvals = dh[ridx, pairs[:, 1]]
        svals = ds[ridx, pairs[:, 1]]
    finite = np.isfinite(hvals) & (hvals > 0)
    inf_pairs = int(np.sum(np.isfinite(hvals) & ~np.isfinite(svals)))
    if inf_pairs:
        return math.inf, inf_pairs
    if not finite.any():
        return 1.0, 0
    ratio = float(np.max(svals[finite] / hvals[finite]))
    return ratio, 0


class DecrementalSpanner:
    """Spanner over a shrinking host graph (vertex and edge deletions).

    The current spanner always satisfies the stretch contract with respect to
    the surviving host edges; see the module docstring for the rebuild policy.
    """

    def __init__(self, g: Graph, k: int, seed: int = 0, size_coeff: float = SIZE_COEFF):
        self.k = int(k)
        self.n = g.n
        self.size_coeff = size_coeff
        self._host_u = g.edge_u.copy()
        self._host_v = g.edge_v.copy()
        self._host_w = g.edge_weights().copy()
        self._edge_alive = np.ones(g.m, dtype=bool)
        self._vertex_alive = np.ones(g.n, dtype=bool)
        self._edge_index = {(int(u), int(v)): i for i, (u, v) in
                            enumerate(zip(g.edge_u.tolist(), g.edge_v.tolist()))}
        self._seed_stream = np.random.SeedSequence(seed)
        self.rebuild_count = 0
        self.deletions_since_rebuild = 0
        self._in_spanner = np.zeros(g.m, dtype=bool)
        self._rebuild()

    # -- public API ---------------------------------------------------------

    @property
    def host_m(self) -> int:
        return int(self._edge_alive.sum())

    def current(self) -> Spanner:
        sel = np.flatnonzero(self._in_spanner & self._edge_alive)
        return Spanner(n=self.n, k=self.k, edge_u=self._host_u[sel],
                       edge_v=self._host_v[sel], edge_w=self._host_w[sel])

    def spanner_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sel = self._in_spanner & self._edge_alive
        return self._host_u[sel], self._host_v[sel], self._host_w[sel]

    def delete(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()) -> None:
        """Remove host vertices/edges; restores the stretch contract."""
        dirty = False
        removed = 0
        vs = np.asarray(list(vertices), dtype=np.int64)
        if len(vs):
            if np.any(vs < 0) or np.any(vs >= self.n):
                raise KeyError("unknown vertex id in deletion")
            if not np.all(self._vertex_alive[vs]):
                raise KeyError("vertex already deleted")
            self._vertex_alive[vs] = False
            dead = np.zeros(self.n, dtype=bool)
            dead[vs] = True
            hit = self._edge_alive & (dead[self._host_u] | dead[self._host_v])
            removed += int(hit.sum())
            if np.any(hit & self._in_spanner):
                dirty = True
            self._edge_alive[hit] = False
        for (u, v) in edges:
            key = (min(u, v), max(u, v))
            idx = self._edge_index.get(key)
            if idx is None or not self._edge_alive[idx]:
                raise KeyError(f"unknown or deleted edge {key}")
            self._edge_alive[idx] = False
            removed += 1
            if self._in_spanner[idx]:
                dirty = True
        self.deletions_since_rebuild += removed
        live_n = int(self._vertex_alive.sum())
        budget = max(math.isqrt(max(live_n, 1)), max(self.host_m, 1) // 4)
        if dirty or self.deletions_since_rebuild > budget:
            self._rebuild()

    # -- internals ------------------------------------------------------------

    def _rebuild(self) -> None:
        ids = np.flatnonzero(self._edge_alive)
        eu, ev, ew = self._host_u[ids], self._host_v[ids], self._host_w[ids]
        live_n = int(self._vertex_alive.sum())
        shortcut = self.size_coeff * self.k * max(live_n, 1) ** (1.0 + 1.0 / self.k)
        bound = SIZE_COEFF * self.k * max(live_n, 1) ** (1.0 + 1.0 / self.k)
        self._in_spanner[:] = False
        if len(ids) <= shortcut or self.k == 1:
            # host already meets the size target: it is its own (2k-1)-spanner
            self._in_spanner[ids] = True
        else:
            seed = int(self._seed_stream.spawn(1)[0].generate_state(1)[0])
            for attempt in range(8):
                sel = _baswana_sen(self.n, eu, ev, ew, self.k, seed + 7919 * attempt)
                if len(sel) <= math.ceil(bound):
                    self._in_spanner[ids[sel]] = True
                    break
            else:
                raise RuntimeError("spanner size bound missed on every retry")
        self.rebuild_count += 1
        self.deletions_since_rebuild = 0
