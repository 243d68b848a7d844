"""Dense distance graphs, per-cluster spanners, and the sublinear search arena.

For a cluster C and boundary subset B, the dense distance graph D_B(C) is the
complete graph on B whose edge (u,v) weighs the shortest u-v path in C that
avoids every other boundary vertex; decomposing shortest paths at boundary
vertices makes distances in the union of these graphs equal distances in the
underlying graph minus the active set.  Each cluster keeps a (2k-1)-spanner of
its restriction to passive boundary vertices; S_X, the union of those spanners
over the current antichain, is the search arena for the shallow-tree hunt:
a Dijkstra tree in S_X either yields an empty-index certificate, a shallow
tree (edges expanded back to stored underlying paths), or a pair of far-apart
vertices for the bidirectional cut search.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import debugcheck
from .clustering import ActiveState, Cluster, _ClusterDyn
from .graph import Graph
from .shallow import ln_ceil
from .spanner import build_spanner

INF = -1  # distance encoding inside integer matrices


@dataclass
class DenseDistanceGraph:
    """All-pairs boundary distances of one cluster, with stored path trees."""

    cid: int
    boundary: np.ndarray          # global ids, sorted
    dist: np.ndarray              # |B| x |B| int64; -1 encodes infinity
    parents: np.ndarray           # per-source local parent arrays over the cluster
    verts: np.ndarray             # cluster vertex ids (global, sorted)

    def index_of(self, v: int) -> int:
        i = int(np.searchsorted(self.boundary, v))
        if i >= len(self.boundary) or self.boundary[i] != v:
            raise KeyError(f"{v} is not a boundary vertex of cluster {self.cid}")
        return i


@dataclass
class RestrictedDDG:
    """Induced sub-matrix of a DDG on a boundary subset (path trees shared)."""

    base: DenseDistanceGraph
    subset: np.ndarray            # global ids, sorted
    sub_index: np.ndarray         # positions of subset inside base.boundary

    @property
    def cid(self) -> int:
        return self.base.cid

    def dist_matrix(self) -> np.ndarray:
        return self.base.dist[np.ix_(self.sub_index, self.sub_index)]


@dataclass
class ClusterSpanner:
    """Spanner over the current restricted DDG of one cluster."""

    cid: int
    k: int
    edge_u: np.ndarray            # global vertex ids
    edge_v: np.ndarray
    edge_w: np.ndarray
    version: int


@dataclass
class UnionGraph:
    """S_X: the union of cluster spanners over the current antichain."""

    vertices: np.ndarray          # global ids, sorted
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    edge_cluster: np.ndarray      # cluster of origin per edge
    versions: dict[int, int]


def _cluster_csr(g: Graph, c: Cluster):
    local = np.full(g.n, -1, dtype=np.int64)
    local[c.vertices] = np.arange(len(c.vertices))
    lu = local[g.edge_u[c.edges]]
    lv = local[g.edge_v[c.edges]]
    nn = len(c.vertices)
    allu = np.concatenate([lu, lv])
    allv = np.concatenate([lv, lu])
    order = np.argsort(allu * nn + allv)
    allu, allv = allu[order], allv[order]
    indptr = np.zeros(nn + 1, dtype=np.int64)
    np.add.at(indptr, allu + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, allv, local


def build_ddg(g: Graph, c: Cluster) -> DenseDistanceGraph:
    """Per-source BFS in C minus the other boundary vertices (hop metric).

    Other boundary vertices are removed during the search and relaxed once as
    final targets, so recorded paths contain no interior boundary vertices.
    """
    indptr, indices, local = _cluster_csr(g, c)
    nn = len(c.vertices)
    bnd = np.sort(c.boundary)
    bl = local[bnd]
    nb = len(bnd)
    dist = np.full((nb, nb), INF, dtype=np.int64)
    parents = np.full((nb, nn), -1, dtype=np.int64)
    is_bnd = np.zeros(nn, dtype=bool)
    is_bnd[bl] = True
    for si in range(nb):
        src = int(bl[si])
        d = np.full(nn, INF, dtype=np.int64)
        par = parents[si]
        d[src] = 0
        dq = deque([src])
        while dq:
            u = dq.popleft()
            du = d[u]
            for w in indices[indptr[u]:indptr[u + 1]].tolist():
                if d[w] == INF and not is_bnd[w]:
                    d[w] = du + 1
                    par[w] = u
                    dq.append(w)
        # relax one edge into each boundary target
        for ti in range(nb):
            if ti == si:
                dist[si, ti] = 0
                continue
            t = int(bl[ti])
            best = INF
            bestx = -1
            for x in indices[indptr[t]:indptr[t + 1]].tolist():
                if (x == src or not is_bnd[x]) and d[x] != INF:
                    cand = d[x] + 1
                    if best == INF or cand < best or (cand == best and x < bestx):
                        best = cand
                        bestx = x
            if best != INF:
                dist[si, ti] = best
                par[t] = bestx
    return DenseDistanceGraph(cid=c.id, boundary=bnd, dist=dist, parents=parents,
                              verts=c.vertices)


def ddg_path(ddg: DenseDistanceGraph, u: int, v: int) -> list[int]:
    """Underlying u-v path (global ids) recorded for the DDG edge (u, v)."""
    si = ddg.index_of(u)
    ti_local = int(np.searchsorted(ddg.verts, v))
    if ti_local >= len(ddg.verts) or ddg.verts[ti_local] != v:
        raise KeyError(f"{v} not in cluster {ddg.cid}")
    local_of = {int(x): i for i, x in enumerate(ddg.verts)}
    path = [v]
    cur = local_of[v]
    src = local_of[u]
    par = ddg.parents[si]
    while cur != src:
        cur = int(par[cur])
        if cur < 0:
            raise KeyError(f"no stored path {u} -> {v} in cluster {ddg.cid}")
        path.append(int(ddg.verts[cur]))
    path.reverse()
    return path


def restrict_ddg(ddg: DenseDistanceGraph, subset: Sequence[int] | np.ndarray) -> RestrictedDDG:
    """D_B(C) for B a subset of the boundary: the induced sub-matrix."""
    sub = np.sort(np.asarray(list(subset), dtype=np.int64))
    pos = np.searchsorted(ddg.boundary, sub)
    if np.any(pos >= len(ddg.boundary)) or np.any(ddg.boundary[np.minimum(pos, len(ddg.boundary) - 1)] != sub):
        raise KeyError("subset is not contained in the cluster boundary")
    return RestrictedDDG(base=ddg, subset=sub, sub_index=pos)


def build_cluster_spanner(rddg: RestrictedDDG, eps: float, seed: int = 0,
                          version: int = 0) -> ClusterSpanner:
    """(2k-1)-spanner of the restricted DDG with k = ceil(1/eps).

    Small restrictions (under the spanner size target) keep all finite DDG
    edges, which is trivially a spanner of itself; larger ones run the real
    construction.
    """
    k = max(1, math.ceil(1.0 / eps))
    nb = len(rddg.subset)
    if nb <= 1:
        return ClusterSpanner(cid=rddg.cid, k=k, edge_u=np.empty(0, np.int64),
                              edge_v=np.empty(0, np.int64), edge_w=np.empty(0, np.int64),
                              version=version)
    mat = rddg.dist_matrix()
    iu, iv = np.triu_indices(nb, k=1)
    w = mat[iu, iv]
    keep = w != INF
    iu, iv, w = iu[keep], iv[keep], w[keep]
    from .spanner import SIZE_COEFF

    if len(iu) > SIZE_COEFF * k * nb ** (1.0 + 1.0 / k):
        sub = Graph(nb, np.stack([iu, iv], axis=1), edge_weight=w.tolist())
        sp = build_spanner(sub, k, seed=seed)
        iu, iv, w = sp.edge_u, sp.edge_v, sp.edge_w.astype(np.int64)
    return ClusterSpanner(cid=rddg.cid, k=k,
                          edge_u=rddg.subset[iu], edge_v=rddg.subset[iv],
                          edge_w=np.asarray(w, dtype=np.int64), version=version)


def assemble_SX(st: ActiveState, spanners: dict[int, ClusterSpanner],
                versions: Optional[dict[int, int]] = None) -> UnionGraph:
    """Union of the cluster spanners over the current antichain."""
    us, vs, ws, cs = [], [], [], []
    vers: dict[int, int] = {}
    for cid in sorted(st.cx):
        sp = spanners.get(cid)
        if sp is None:
            raise KeyError(f"no spanner for cluster {cid}")
        if versions is not None and versions.get(cid) != sp.version:
            raise RuntimeError(f"stale spanner for cluster {cid}")
        vers[cid] = sp.version
        if len(sp.edge_u):
            us.append(sp.edge_u)
            vs.append(sp.edge_v)
            ws.append(sp.edge_w)
            cs.append(np.full(len(sp.edge_u), cid, dtype=np.int64))
    verts = []
    for cid in st.cx:
        c = st.nc.cluster(cid)
        b = c.boundary
        verts.append(b[~st.active[b]])
    vset = np.unique(np.concatenate(verts)) if verts else np.empty(0, np.int64)
    if us:
        eu = np.concatenate(us)
        ev = np.concatenate(vs)
        ew = np.concatenate(ws)
        ec = np.concatenate(cs)
    else:
        eu = ev = ew = ec = np.empty(0, np.int64)
    return UnionGraph(vertices=vset, edge_u=eu, edge_v=ev, edge_w=ew,
                      edge_cluster=ec, versions=vers)


@dataclass
class SXTree:
    """Shortest path tree over S_X with cluster tags on predecessor edges."""

    source: int
    vertices: np.ndarray          # global ids present in S_X, sorted
    dist_arr: np.ndarray          # per local id; -1 = unreachable
    pred_arr: np.ndarray          # predecessor local id; -1 at source/unreached
    tag_keys: np.ndarray          # sorted canonical pair keys for tag lookup
    tag_vals: np.ndarray          # cluster id per key

    def _loc(self, v: int) -> int:
        i = int(np.searchsorted(self.vertices, v))
        if i >= len(self.vertices) or self.vertices[i] != v:
            return -1
        return i

    def distance(self, v: int) -> Optional[int]:
        i = self._loc(v)
        if i < 0 or self.dist_arr[i] < 0:
            return None
        return int(self.dist_arr[i])

    def pred_of(self, v: int) -> Optional[tuple[int, int]]:
        """(predecessor vertex, cluster tag of the tree edge into v)."""
        i = self._loc(v)
        if i < 0 or self.pred_arr[i] < 0:
            return None
        p = int(self.vertices[self.pred_arr[i]])
        nv = len(self.vertices)
        key = min(i, int(self.pred_arr[i])) * nv + max(i, int(self.pred_arr[i]))
        j = int(np.searchsorted(self.tag_keys, key))
        return p, int(self.tag_vals[j])


def sssp_SX(sx: UnionGraph, s: int) -> SXTree:
    """Label-setting search over the union graph (scipy Dijkstra backend)."""
    nv = len(sx.vertices)
    i = int(np.searchsorted(sx.vertices, s)) if nv else 0
    if nv == 0 or i >= nv or sx.vertices[i] != s:
        raise KeyError(f"source {s} not in S_X")
    lu = np.searchsorted(sx.vertices, sx.edge_u)
    lv = np.searchsorted(sx.vertices, sx.edge_v)
    a = np.minimum(lu, lv)
    b = np.maximum(lu, lv)
    key = a * nv + b
    order = np.lexsort((sx.edge_cluster, sx.edge_w, key))
    key_s = key[order]
    first = np.ones(len(key_s), dtype=bool)
    first[1:] = key_s[1:] != key_s[:-1]
    sel = order[first]
    tag_keys = key_s[first]
    tag_vals = sx.edge_cluster[sel]
    ka, kb, kw = a[sel], b[sel], sx.edge_w[sel]
    from scipy.sparse import csr_matrix
    from scipy.sparse import csgraph as _cs

    mat = csr_matrix((np.concatenate([kw, kw]).astype(np.float64),
                      (np.concatenate([ka, kb]), np.concatenate([kb, ka]))),
                     shape=(nv, nv))
    # mat holds both directions of every edge, so a directed search needs no transpose
    dist, pred = _cs.dijkstra(mat, directed=True, indices=i, return_predecessors=True)
    darr = np.where(np.isfinite(dist), dist, -1).astype(np.int64)
    parr = np.where(pred >= 0, pred, -1).astype(np.int64)
    return SXTree(source=s, vertices=sx.vertices, dist_arr=darr, pred_arr=parr,
                  tag_keys=tag_keys, tag_vals=tag_vals)


def compute_Ai_boundary_sets(dyn: _ClusterDyn, st: ActiveState,
                             slot_of_vertex: np.ndarray, nslots: int) -> dict[int, list[int]]:
    """Per-slot passive boundary vertices whose X-cluster touches the slot's
    active boundary vertices of this cluster (the marked-DFS of the search
    layer, realized through the cached X-cluster partition)."""
    g = st.nc.g
    out: dict[int, set[int]] = {}
    xcl = dyn.xcl_of
    marked: dict[tuple[int, int], bool] = {}
    for bl in range(len(dyn.verts)):
        v = int(dyn.verts[bl])
        if not st.active[v]:
            continue
        slot = int(slot_of_vertex[v])
        if slot < 0:
            continue
        for w in dyn.indices[dyn.indptr[bl]:dyn.indptr[bl + 1]].tolist():
            k = int(xcl[w])
            if k >= 0:
                marked[(slot, k)] = True
    for (slot, k), _ in marked.items():
        pb = dyn.xclusters[k].passive_boundary
        if len(pb):
            out.setdefault(slot, set()).update(pb.tolist())
    return {slot: sorted(vals) for slot, vals in out.items()}


@dataclass
class FindResult:
    kind: str                               # "empty" | "tree" | "far"
    empty_slot: Optional[int] = None
    tree_vertices: Optional[np.ndarray] = None
    tree_root: Optional[int] = None
    reps: Optional[dict[int, int]] = None          # slot -> tree vertex in A_slot
    rep_edges: Optional[dict[int, tuple[int, int]]] = None  # slot -> (tree v, branch v)
    far_pair: Optional[tuple[int, int]] = None
    sx_size: int = 0


class DdgLayer:
    """Owns DDGs, restrictions, spanners, and label sets over an ActiveState."""

    def __init__(self, st: ActiveState, eps: float, seed: int = 0):
        self.st = st
        self.g = st.nc.g
        self.eps = eps
        self.k = max(1, math.ceil(1.0 / eps))
        self.seed = seed
        self.ddgs: dict[int, DenseDistanceGraph] = {}
        self.spanners: dict[int, ClusterSpanner] = {}
        self.ai_sets: dict[int, dict[int, list[int]]] = {}
        self._dirty: set[int] = set()
        self.slot_of_vertex = np.full(self.g.n, -1, dtype=np.int64)
        self.nslots = 0
        # the set's bound method, not one of self: st must not point back here
        st.listeners.append(self._dirty.update)

    def set_branch_vertices(self, slot: int, vertices: np.ndarray) -> None:
        self.slot_of_vertex[vertices] = slot
        self.nslots = max(self.nslots, slot + 1)

    def clear_branch(self, slot: int, vertices: np.ndarray) -> None:
        self.slot_of_vertex[vertices] = -1

    def _refresh(self, cid: int) -> None:
        st = self.st
        dyn = st.dyn[cid]
        ddg = self.ddgs.get(cid)
        if ddg is None:
            ddg = build_ddg(self.g, st.nc.cluster(cid))
            self.ddgs[cid] = ddg
        passive = ddg.boundary[~st.active[ddg.boundary]]
        rddg = restrict_ddg(ddg, passive)
        old = self.spanners.get(cid)
        version = (old.version + 1) if old is not None else 1
        self.spanners[cid] = build_cluster_spanner(rddg, self.eps,
                                                   seed=self.seed + cid, version=version)
        self.ai_sets[cid] = compute_Ai_boundary_sets(dyn, st, self.slot_of_vertex,
                                                     self.nslots)
        self._dirty.discard(cid)

    def refresh_all(self) -> None:
        for cid in sorted(self.st.cx):
            if cid in self._dirty or cid not in self.spanners:
                self._refresh(cid)
        for cid in list(self.spanners):
            if cid not in self.st.cx:
                self.spanners.pop(cid, None)
                self.ai_sets.pop(cid, None)

    def assemble(self) -> UnionGraph:
        self.refresh_all()
        return assemble_SX(self.st, self.spanners)

    def slot_candidates(self, slot: int) -> list[int]:
        out: set[int] = set()
        for cid in self.st.cx:
            vals = self.ai_sets.get(cid, {}).get(slot)
            if vals:
                out.update(vals)
        return sorted(out)

    def find_tree_or_far_pair(self, s: int, slots: list[int], ell: int,
                              h: int) -> FindResult:
        """Empty index, shallow tree through all label sets, or a far pair."""
        g = self.g
        n = g.n
        sx = self.assemble()
        tree = sssp_SX(sx, s)
        lnn = ln_ceil(n)
        threshold = math.ceil(8 * ell * lnn) * (2 * self.k - 1)
        nearest: dict[int, tuple[int, int]] = {}
        nv = len(tree.vertices)
        for slot in slots:
            cand = np.asarray(self.slot_candidates(slot), dtype=np.int64)
            best = None
            if len(cand):
                locs = np.searchsorted(tree.vertices, cand)
                locs = np.minimum(locs, max(nv - 1, 0))
                ok = (tree.vertices[locs] == cand) & (tree.dist_arr[locs] >= 0) if nv else \
                    np.zeros(len(cand), dtype=bool)
                if ok.any():
                    ds = tree.dist_arr[locs[ok]]
                    cs = cand[ok]
                    j = int(np.lexsort((cs, ds))[0])
                    best = (int(ds[j]), int(cs[j]))
            if best is None:
                return FindResult(kind="empty", empty_slot=slot, sx_size=len(sx.edge_u))
            nearest[slot] = best
        for slot in slots:
            d, b = nearest[slot]
            if d >= threshold:
                if debugcheck.enabled():
                    self._check_far(s, b, ell)
                return FindResult(kind="far", far_pair=(s, b), sx_size=len(sx.edge_u))
        # build the tree: expand S_X predecessor paths to underlying G paths
        verts: set[int] = {s}
        chain_done: set[int] = {s}
        reps: dict[int, int] = {}
        rep_edges: dict[int, tuple[int, int]] = {}
        for slot in slots:
            _, b = nearest[slot]
            walked = []
            cur = b
            while cur not in chain_done:
                walked.append(cur)
                p, cid = tree.pred_of(cur)
                verts.update(ddg_path(self.ddgs[cid], p, cur))
                cur = p
            chain_done.update(walked)
        # extend into the X-cluster of the lowest-id cluster holding each rep
        for slot in slots:
            _, b = nearest[slot]
            host = None
            for cid in sorted(self.st.cx):
                if b in self.ai_sets.get(cid, {}).get(slot, ()):  # list lookup
                    host = cid
                    break
            assert host is not None
            p_ext, edge = self._extend_into_xcluster(host, b, slot)
            verts.update(p_ext)
            reps[slot] = edge[0]
            rep_edges[slot] = edge
        out = FindResult(kind="tree", tree_vertices=np.asarray(sorted(verts), dtype=np.int64),
                         tree_root=s, reps=reps, rep_edges=rep_edges,
                         sx_size=len(sx.edge_u))
        if debugcheck.enabled():
            self._check_tree(out, ell, h, threshold)
        return out

    def _extend_into_xcluster(self, cid: int, b: int, slot: int):
        """BFS from b inside its X-cluster to the first vertex adjacent to the
        slot's branch set; returns (path vertices, (tree vertex, branch vertex))."""
        st = self.st
        g = self.g
        dyn = st.dyn[cid]
        k = dyn.xcluster_of_vertex(b)
        assert k is not None
        members = dyn.xclusters[k].vertices
        inside = np.zeros(g.n, dtype=bool)
        inside[members] = True
        prev = {b: None}
        dq = deque([b])
        while dq:
            u = dq.popleft()
            for wv in g.neighbors(u).tolist():
                if self.slot_of_vertex[wv] == slot and st.active[wv]:
                    path = [u]
                    cur = u
                    while prev[cur] is not None:
                        cur = prev[cur]
                        path.append(cur)
                    return path, (u, wv)
                if inside[wv] and wv not in prev and not st.active[wv]:
                    prev[wv] = u
                    dq.append(wv)
        raise RuntimeError(f"label set inconsistent: no branch contact from {b} "
                           f"in cluster {cid} slot {slot}")

    def _check_far(self, s: int, t: int, ell: int) -> None:
        d = _bfs_dist_avoiding(self.g, self.st.active, s, t)
        need = math.ceil(8 * ell * ln_ceil(self.g.n))
        debugcheck.check("ddg.far-pair", d is None or d >= need,
                         f"far pair at true distance {d} < {need}")

    def _check_tree(self, res: FindResult, ell: int, h: int, threshold: int) -> None:
        cap_depth = threshold + self.st.nc.r + 2
        cap_size = h * (threshold + self.st.nc.r) + 2
        debugcheck.check("ddg.tree-size", len(res.tree_vertices) <= cap_size,
                         f"tree size {len(res.tree_vertices)} exceeds {cap_size}")
        dmax = _tree_depth(self.g, self.st.active, res.tree_vertices, res.tree_root)
        debugcheck.check("ddg.tree-depth", dmax is not None and dmax <= cap_depth,
                         f"tree depth {dmax} exceeds {cap_depth}")


def _bfs_dist_avoiding(g: Graph, blocked: np.ndarray, s: int, t: int) -> Optional[int]:
    if blocked[s] or blocked[t]:
        return None
    dist = {s: 0}
    dq = deque([s])
    while dq:
        u = dq.popleft()
        if u == t:
            return dist[u]
        for w in g.neighbors(u).tolist():
            if not blocked[w] and w not in dist:
                dist[w] = dist[u] + 1
                dq.append(w)
    return None


def _tree_depth(g: Graph, blocked: np.ndarray, verts: np.ndarray, root: int) -> Optional[int]:
    inside = set(verts.tolist())
    dist = {root: 0}
    dq = deque([root])
    best = 0
    while dq:
        u = dq.popleft()
        best = max(best, dist[u])
        for w in g.neighbors(u).tolist():
            if w in inside and w not in dist:
                dist[w] = dist[u] + 1
                dq.append(w)
    if len(dist) != len(inside):
        return None
    return best
