"""Dense distance graphs, per-cluster spanners, and the sublinear search arena.

For a cluster C and boundary subset B, the dense distance graph D_B(C) is the
complete graph on B whose edge (u,v) weighs the shortest u-v path in C that
avoids every other boundary vertex; decomposing shortest paths at boundary
vertices makes distances in the union of these graphs equal distances in the
underlying graph minus the active set.  Each DDG is built at most once, by
`graph.local_bfs` over the neighbor lists its cluster's `_ClusterDyn`
already holds, and records its finite boundary pairs.

`DdgLayer` keeps S_X as one edge table: int64 columns (u, v, w, cluster) in
global ids, to which a cluster's finite DDG pairs are appended once, when it
first reaches C_X, and (cluster, boundary vertex) rows.  A cluster with no
interior vertex adds its own edges at weight 1, which is its DDG (every
search from a boundary vertex is blocked at once); its DDG object is built
only if a tree path through it is expanded.  Clusters never re-enter C_X, so
compaction drops the rows of clusters that left.  Each find masks the table
to C_X clusters and passive ends, thinning only clusters above the spanner
size target.  S_X is the search arena for the shallow-tree hunt: a Dijkstra
tree in S_X either yields an empty-index certificate, a shallow tree (edges
expanded back to stored underlying paths), or a pair of far-apart vertices
for the bidirectional cut search.  Label sets stay on the records; a
partition recompute marks them stale.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import debugcheck
from .clustering import ActiveState, _ClusterDyn
from .graph import Graph, HostSubgraph, LevelBFS, MaskedSubgraph, local_bfs
from .shallow import ln_ceil
from .spanner import SIZE_COEFF, build_spanner

INF = -1  # distance encoding inside integer matrices

SXEdges = tuple[np.ndarray, np.ndarray, np.ndarray]   # (u, v, w), global vertex ids


@dataclass
class DenseDistanceGraph:
    """All-pairs boundary distances of one cluster, with stored path trees."""

    cid: int
    boundary: np.ndarray          # global ids, sorted
    dist: np.ndarray              # |B| x |B| int64; -1 encodes infinity
    parents: np.ndarray           # per-source local parent arrays over the cluster
    verts: np.ndarray             # cluster vertex ids (global, sorted)
    pair_i: np.ndarray            # finite pairs i < j, row-major, as boundary positions
    pair_j: np.ndarray
    pair_w: np.ndarray            # dist[pair_i, pair_j]

    def index_of(self, v: int) -> int:
        i = int(np.searchsorted(self.boundary, v))
        if i >= len(self.boundary) or self.boundary[i] != v:
            raise KeyError(f"{v} is not a boundary vertex of cluster {self.cid}")
        return i


@dataclass
class UnionGraph:
    """S_X: the union of cluster spanners over the current antichain."""

    vertices: np.ndarray          # global ids, sorted
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    edge_cluster: np.ndarray      # cluster of origin per edge


def build_ddg(dyn: _ClusterDyn) -> DenseDistanceGraph:
    """Per-source BFS in C minus the other boundary vertices (hop metric).

    Runs `local_bfs` on the cluster's neighbor lists in `dyn`, with every
    boundary vertex blocked, so only the source and interior vertices are
    reached.  Each other boundary vertex is then relaxed once, as a final
    target, from its nearest reached neighbor (lowest id on ties), so
    recorded paths contain no interior boundary vertices.
    """
    adj = dyn.adj
    bl = np.flatnonzero(dyn.is_bnd).tolist()
    nb = len(bl)
    blocked = dyn.is_bnd.tolist()
    dist_rows: list[list[int]] = []
    par_rows: list[list[int]] = []
    for src in bl:
        _, d, par = local_bfs(adj, src, blocked)
        row = []
        for t in bl:
            if t == src:
                row.append(0)
                continue
            best = min(((d[x], x) for x in adj[t] if d[x] >= 0), default=None)
            row.append(INF if best is None else best[0] + 1)
            if best is not None:
                par[t] = best[1]
        dist_rows.append(row)
        par_rows.append(par)
    dist = np.array(dist_rows, dtype=np.int64).reshape(nb, nb)
    parents = np.array(par_rows, dtype=np.int64).reshape(nb, len(adj))
    # finite pairs of distinct vertices are at distance >= 1; nonzero is row-major
    iu, iv = np.nonzero(dist > 0)
    up = iu < iv
    iu, iv = iu[up], iv[up]
    return DenseDistanceGraph(cid=dyn.cid, boundary=dyn.verts[bl], dist=dist, parents=parents,
                              verts=dyn.verts, pair_i=iu, pair_j=iv, pair_w=dist[iu, iv])


def ddg_path(ddg: DenseDistanceGraph, u: int, v: int) -> list[int]:
    """Underlying u-v path (global ids) recorded for the DDG edge (u, v)."""
    si = ddg.index_of(u)
    src, cur = np.searchsorted(ddg.verts, [u, v]).tolist()
    if cur >= len(ddg.verts) or ddg.verts[cur] != v:
        raise KeyError(f"{v} not in cluster {ddg.cid}")
    path = [v]
    par = ddg.parents[si]
    while cur != src:
        cur = int(par[cur])
        if cur < 0:
            raise KeyError(f"no stored path {u} -> {v} in cluster {ddg.cid}")
        path.append(int(ddg.verts[cur]))
    path.reverse()
    return path


def _over_target(pairs: int, nb: int, k: int) -> bool:
    """Whether `pairs` edges on `nb` vertices exceed the spanner size target."""
    return pairs > SIZE_COEFF * k * nb ** (1.0 + 1.0 / k)


def build_cluster_spanner(ddg: DenseDistanceGraph, active: np.ndarray, k: int,
                          seed: int = 0) -> SXEdges:
    """(2k-1)-spanner of the DDG restricted to its passive boundary vertices.

    Restrictions under the spanner size target keep all their finite pairs,
    which is trivially a spanner of itself; larger ones run the real
    construction on the pairs renumbered by passive rank.
    """
    passive = ~active[ddg.boundary]
    keep = passive[ddg.pair_i] & passive[ddg.pair_j]
    iu, iv, w = ddg.pair_i[keep], ddg.pair_j[keep], ddg.pair_w[keep]
    nb = int(passive.sum())
    if _over_target(len(iu), nb, k):
        rank = np.cumsum(passive) - 1
        sub = Graph(nb, np.stack([rank[iu], rank[iv]], axis=1), edge_weight=w.tolist())
        sp = build_spanner(sub, k, seed=seed)
        sel = ddg.boundary[passive]
        return sel[sp.edge_u], sel[sp.edge_v], sp.edge_w.astype(np.int64)
    return ddg.boundary[iu], ddg.boundary[iv], w


def cluster_ddg(dyn: _ClusterDyn) -> DenseDistanceGraph:
    """The record's DDG, built on first use."""
    if dyn.ddg is None:
        dyn.ddg = build_ddg(dyn)
    return dyn.ddg


def _cx_mask(st: ActiveState) -> np.ndarray:
    """Membership in the current antichain C_X, indexed by cluster id."""
    mask = np.zeros(len(st.nc.clusters), dtype=bool)
    mask[np.fromiter(st.cx, np.int64, len(st.cx))] = True
    return mask


def assemble_SX(st: ActiveState, pairs: np.ndarray, bnd: np.ndarray, k: int,
                seed: int) -> UnionGraph:
    """Union of the cluster spanners over the current antichain, from the
    layer's table: `pairs` columns (u, v, w, cluster) and `bnd` columns
    (cluster, boundary vertex).

    One mask keeps the pairs of C_X clusters between passive vertices.  A
    cluster whose kept pairs exceed the spanner size target on its passive
    boundary vertices is replaced by `build_cluster_spanner` with seed
    seed + cid; the rest keep all their pairs.
    """
    u, v, w, cid = pairs
    bc, bv = bnd
    in_cx = _cx_mask(st)
    passive = ~st.active
    keep = in_cx[cid] & passive[u] & passive[v]
    bkeep = in_cx[bc] & passive[bv]
    npairs = np.bincount(cid[keep], minlength=len(in_cx))
    nb = np.bincount(bc[bkeep], minlength=len(in_cx))
    # numpy's power may differ from Python's in the last bit, so it only
    # preselects and _over_target decides
    near = np.flatnonzero(npairs > 0.5 * SIZE_COEFF * k * nb ** (1.0 + 1.0 / k))
    big = [c for c in near.tolist() if _over_target(int(npairs[c]), int(nb[c]), k)]
    if big:
        keep &= ~np.isin(cid, big)
    parts = [(u[keep], v[keep], w[keep], cid[keep])]
    for c in big:
        su, sv, sw = build_cluster_spanner(cluster_ddg(st.dyn[c]), st.active, k, seed=seed + c)
        parts.append((su, sv, sw, np.full(len(su), c, dtype=np.int64)))
    eu, ev, ew, ec = (np.concatenate(col) for col in zip(*parts))
    return UnionGraph(vertices=np.unique(bv[bkeep]), edge_u=eu, edge_v=ev, edge_w=ew,
                      edge_cluster=ec)


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
                             slot_of_vertex: np.ndarray) -> dict[int, list[int]]:
    """Per-slot passive boundary vertices whose X-cluster touches the slot's
    active boundary vertices of this cluster (the marked-DFS of the search
    layer, realized through the cached X-cluster partition)."""
    act = st.active[dyn.verts].tolist()
    if True not in act:
        return {}
    xcl = dyn.xcl_of
    marked: set[tuple[int, int]] = set()
    for bl, slot in enumerate(slot_of_vertex[dyn.verts].tolist()):
        if slot < 0 or not act[bl]:
            continue
        for w in dyn.adj[bl]:
            k = xcl[w]
            if k >= 0:
                marked.add((slot, k))
    out: dict[int, set[int]] = {}
    for slot, k in marked:
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
    rep_edges: Optional[dict[int, tuple[int, int]]] = None  # slot -> (tree v, branch v)
    far_pair: Optional[tuple[int, int]] = None


class DdgLayer:
    """Keeps the S_X table and the label sets of the C_X records of an
    ActiveState, and searches the S_X they make up."""

    def __init__(self, st: ActiveState, eps: float, seed: int = 0):
        self.st = st
        self.g = st.nc.g
        self.k = max(1, math.ceil(1.0 / eps))
        self.seed = seed
        self.slot_of_vertex = np.full(self.g.n, -1, dtype=np.int64)
        # the S_X table, one column per row in global ids: finite DDG pairs
        # (u < v, w, cluster) and boundary rows (cluster, vertex)
        self.pairs = np.empty((4, 0), np.int64)
        self.bnd = np.empty((2, 0), np.int64)
        self.tabled: set[int] = set()   # clusters with rows in the table
        self.kept_rows = 0              # table rows left by the last compaction

    def set_branch_vertices(self, slot: int, vertices: np.ndarray) -> None:
        self.slot_of_vertex[vertices] = slot

    def clear_branch(self, vertices: np.ndarray) -> None:
        self.slot_of_vertex[vertices] = -1

    def refresh_all(self) -> None:
        """Rebuild the label sets of every stale C_X record, and table the
        clusters new to C_X."""
        st = self.st
        new: list[int] = []
        for cid in sorted(st.cx):
            dyn = st.dyn[cid]
            if dyn.ai_sets is None:
                dyn.ai_sets = compute_Ai_boundary_sets(dyn, st, self.slot_of_vertex)
                if cid not in self.tabled:
                    new.append(cid)
        if new:
            self._append_rows(new)

    def _append_rows(self, new: list[int]) -> None:
        """Append the pair and boundary rows of the clusters `new`; drop the
        rows of clusters that left C_X whenever the table has doubled."""
        st, g = self.st, self.g
        clusters = [st.nc.cluster(cid) for cid in new]
        # no interior vertex: the finite DDG pairs are the cluster's edges
        flat = [c for c in clusters if len(c.boundary) == len(c.vertices)]
        eids = np.concatenate([c.edges for c in flat] or [np.empty(0, np.int64)])
        fcid = np.repeat(np.asarray([c.id for c in flat], np.int64), [len(c.edges) for c in flat])
        blocks = [self.pairs,
                  np.stack([g.edge_u[eids], g.edge_v[eids], np.ones_like(eids), fcid])]
        for c in clusters:
            if len(c.boundary) < len(c.vertices):
                d = cluster_ddg(st.dyn[c.id])
                blocks.append(np.stack([d.boundary[d.pair_i], d.boundary[d.pair_j], d.pair_w,
                                        np.full(len(d.pair_w), c.id, dtype=np.int64)]))
        bcid = np.repeat(np.asarray(new, np.int64), [len(c.boundary) for c in clusters])
        pairs = np.concatenate(blocks, axis=1)
        bnd = np.concatenate([self.bnd,
                              np.stack([bcid, np.concatenate([c.boundary for c in clusters])])],
                             axis=1)
        self.tabled.update(new)
        if pairs.shape[1] + bnd.shape[1] > 2 * self.kept_rows:
            live = _cx_mask(st)
            pairs, bnd = pairs[:, live[pairs[3]]], bnd[:, live[bnd[0]]]
            self.tabled &= st.cx
            self.kept_rows = pairs.shape[1] + bnd.shape[1]
        self.pairs, self.bnd = pairs, bnd

    def assemble(self) -> UnionGraph:
        self.refresh_all()
        return assemble_SX(self.st, self.pairs, self.bnd, self.k, self.seed)

    def find_tree_or_far_pair(self, s: int, slots: list[int], ell: int,
                              h: int) -> FindResult:
        """Empty index, shallow tree through all label sets, or a far pair."""
        sx = self.assemble()
        tree = sssp_SX(sx, s)
        threshold = math.ceil(8 * ell * ln_ceil(self.g.n)) * (2 * self.k - 1)
        # per slot: label vertex -> lowest-id C_X cluster holding it
        hosts: dict[int, dict[int, int]] = {slot: {} for slot in slots}
        for cid in sorted(self.st.cx):
            ai = self.st.dyn[cid].ai_sets
            for slot, idx in hosts.items():
                for b in ai.get(slot, ()):
                    idx.setdefault(b, cid)
        nearest: dict[int, tuple[int, int]] = {}
        nv = len(tree.vertices)
        for slot in slots:
            cand = np.asarray(sorted(hosts[slot]), dtype=np.int64)
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
                return FindResult(kind="empty", empty_slot=slot)
            nearest[slot] = best
        for slot in slots:
            d, b = nearest[slot]
            if d >= threshold:
                if debugcheck.enabled():
                    self._check_far(s, b, ell)
                return FindResult(kind="far", far_pair=(s, b))
        # build the tree: expand S_X predecessor paths to underlying G paths
        verts: set[int] = {s}
        chain_done: set[int] = {s}
        rep_edges: dict[int, tuple[int, int]] = {}
        for slot in slots:
            _, b = nearest[slot]
            walked = []
            cur = b
            while cur not in chain_done:
                walked.append(cur)
                p, cid = tree.pred_of(cur)
                verts.update(ddg_path(cluster_ddg(self.st.dyn[cid]), p, cur))
                cur = p
            chain_done.update(walked)
        # extend into the X-cluster of the lowest-id cluster holding each rep
        for slot in slots:
            _, b = nearest[slot]
            p_ext, edge = self._extend_into_xcluster(hosts[slot][b], b, slot)
            verts.update(p_ext)
            rep_edges[slot] = edge
        out = FindResult(kind="tree", tree_vertices=np.asarray(sorted(verts), dtype=np.int64),
                         tree_root=s, rep_edges=rep_edges)
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
        # s and t are S_X vertices, so passive; -1 (unreached) counts as far
        d = int(HostSubgraph(self.g, ~self.st.active).bfs(s).levels(np.array([t]))[0])
        need = math.ceil(8 * ell * ln_ceil(self.g.n))
        debugcheck.check("ddg.far-pair", d < 0 or d >= need,
                         f"far pair at true distance {d} < {need}")

    def _check_tree(self, res: FindResult, ell: int, h: int, threshold: int) -> None:
        cap_depth = threshold + self.st.nc.r + 2
        cap_size = h * (threshold + self.st.nc.r) + 2
        debugcheck.check("ddg.tree-size", len(res.tree_vertices) <= cap_size,
                         f"tree size {len(res.tree_vertices)} exceeds {cap_size}")
        sub = MaskedSubgraph(self.g, res.tree_vertices)
        root = int(np.searchsorted(res.tree_vertices, res.tree_root))
        depth = LevelBFS(sub.mat, root).levels(np.arange(len(res.tree_vertices)))
        dmax = int(depth.max()) if (depth >= 0).all() else None
        debugcheck.check("ddg.tree-depth", dmax is not None and dmax <= cap_depth,
                         f"tree depth {dmax} exceeds {cap_depth}")
