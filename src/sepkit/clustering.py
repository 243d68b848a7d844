"""Edge-disjoint clusterings: weak and refined r-clusterings, the nested
hierarchy down to single-edge leaves, and the dynamic active-vertex layer.

A clustering partitions the edge set into connected subgraphs ("clusters");
a vertex shared by two clusters is a boundary vertex of both.  The weak
r-clustering is built by recursive separator splits with a large ell (big
separators found fast), refinement re-splits boundary-heavy clusters under
boundary-uniform weights, and the nested hierarchy re-splits every cluster
under two weightings (vertex-uniform, then boundary-uniform where needed)
so that both cluster sizes and boundary counts decay geometrically.

Children of a cluster are materialized lazily: each cluster carries its own
split seed, so the hierarchy is identical no matter in which order children
are demanded.  materialize_all() forces the whole tree (tests, CLI dumps).

Every split applies one boundary rule (_piece_boundaries): a piece's
boundary is its vertices shared with another piece or inherited from the
split cluster's boundary.  Pieces are labelled by csgraph components on a
cluster-local CSR from graph._build_csr; a cluster's edge ids stay ascending
through every split, so its local edges arrive sorted as that builder needs.
Pieces run from the whole graph down, so they stay on csgraph.  Searches
inside one small cluster (_direct_split's layers, _ClusterDyn.recompute's
X-clusters, the DDG build) run on graph.local_bfs over the sorted neighbor
lists of _adjacency_lists, where a csgraph call would cost more.

The dynamic layer (ActiveState) is the one expansion of C_X: it maintains,
under passive<->active vertex flips, the antichain C_X in which every active
vertex is a boundary vertex, the per-cluster partitions into X-clusters
(components of C minus its active boundary, retaining a passive boundary
vertex) and their exact weights; in debug mode each batch of flips re-checks
the antichain postconditions.
decompose_active_complement reads the decomposition of G minus X into unions
of X-clusters from one component search on the bipartite graph of X-clusters
and their passive boundary vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np
from scipy.sparse import csr_matrix

from . import debugcheck
from .certificates import SepOrMinor, Separator, density_result, lift_minor
from .graph import Graph, _build_csr, local_bfs, symmetric_components
from .shallow import ln_ceil, separator_coeff, shallow_separator, shallow_separator_balanced

DEFAULT_C_R = 4.0          # lower end of the admissible r range: C_r * h^2 * ln n
REFINE_COEFF = 2.0         # c_b in the per-cluster boundary bound c_b * h * sqrt(r * ln n)
SMALL_SPLIT_CUTOFF = 48    # clusters at most this large use the direct splitter
CHILD_BOUNDARY_FRACTION = (3, 4)   # re-split a child under w2 above this share of |dC|


class ClusteringError(ValueError):
    pass


@dataclass
class Cluster:
    """Connected subgraph in an edge-disjoint clustering."""

    id: int
    level: int
    vertices: np.ndarray     # sorted global vertex ids
    boundary: np.ndarray     # sorted global ids; vertices shared with other clusters
    edges: np.ndarray        # indices into the host graph's canonical edge list
    parent: Optional[int] = None
    children: Optional[list[int]] = None   # None = not yet materialized
    seed: int = 0

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def is_leaf(self) -> bool:
        return self.m <= 1


@dataclass
class Clustering:
    """Flat (level-1) clustering of a host graph."""

    g: Graph
    clusters: list[Cluster]
    r: int
    h: int
    eps: float


def _child_seed(seed: int, index: int) -> int:
    return (seed * 1000003 + index * 7919 + 1) % (2**63)


def _local_ends(g: Graph, verts: np.ndarray, eids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the edges `eids` as positions in the sorted `verts`."""
    return np.searchsorted(verts, g.edge_u[eids]), np.searchsorted(verts, g.edge_v[eids])


def _subgraph_from_edges(g: Graph, verts: np.ndarray, eids: np.ndarray,
                         weights: np.ndarray) -> Graph:
    """Graph on `verts` (local ids) with exactly the edges `eids`."""
    lu, lv = _local_ends(g, verts, eids)
    return Graph(len(verts), np.stack([lu, lv], axis=1) if len(eids) else [],
                 vertex_weight=weights.tolist())


def _adjacency_lists(nn: int, lu: np.ndarray, lv: np.ndarray) -> list[list[int]]:
    """Neighbor lists of nn local vertices joined by the edges (lu, lv).

    The edges must come sorted by (lu, lv) with lu < lv, as a cluster's
    ascending edge ids give them; every list then comes out ascending.
    """
    adj: list[list[int]] = [[] for _ in range(nn)]
    for a, b in zip(lu.tolist(), lv.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _verts_of_edges(g: Graph, eids: np.ndarray) -> np.ndarray:
    return np.unique(np.concatenate([g.edge_u[eids], g.edge_v[eids]]))


def _piece_boundaries(n: int, pieces: list[tuple[np.ndarray, np.ndarray]],
                      inherited: Iterable[int] = ()) -> list[np.ndarray]:
    """Each piece's boundary: its vertices that another piece shares or that
    the split cluster's boundary `inherited` already held."""
    mult = np.zeros(n, dtype=np.int64)
    for pv, _ in pieces:
        mult[pv] += 1
    # an inherited vertex counts as shared even when one piece holds it
    mult[np.asarray(inherited, dtype=np.int64)] += 1
    return [pv[mult[pv] > 1] for pv, _ in pieces]


def _edge_components(nn: int, lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """Component label of each of nn local vertices joined by the edges
    (lu, lv), numbered in order of each component's smallest id.

    The edges must come sorted by (lu, lv) with lu < lv, as a cluster's
    ascending edge ids give them.
    """
    indptr, indices = _build_csr(nn, lu, lv)
    # int32 index arrays, csgraph's canonical form: the matrix is not converted
    return symmetric_components(csr_matrix(
        (np.ones(len(indices)), indices.astype(np.int32), indptr.astype(np.int32)),
        shape=(nn, nn)))[1]


def _split_pieces_from_cut(g: Graph, verts: np.ndarray, eids: np.ndarray,
                           cut_local: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition the cluster's edges around a local vertex cut.

    Every edge with an endpoint in some component of C - cut goes to that
    component's piece; cut-internal edges form their own connected pieces.
    Piece vertex sets are the endpoints of their edges, and pieces come in
    the order of their first edge.
    """
    incut = np.zeros(len(verts), dtype=bool)
    incut[cut_local] = True
    lu, lv = _local_ends(g, verts, eids)
    # components of C - cut, where each cut vertex is a component of its own
    both_out = ~incut[lu] & ~incut[lv]
    root = _edge_components(len(verts), lu[both_out], lv[both_out])
    # an edge's anchor is the component of its first endpoint outside the cut
    anchor = np.where(~incut[lu], root[lu], np.where(~incut[lv], root[lv], -1))
    roots, first = np.unique(anchor, return_index=True)
    pieces: list[tuple[np.ndarray, np.ndarray]] = []
    for key in roots[np.argsort(first)]:
        if key >= 0:
            pe = eids[anchor == key]
            pieces.append((_verts_of_edges(g, pe), pe))
    # cut-internal edges: connected groups become their own pieces
    leftover = eids[anchor == -1]
    if len(leftover):
        pieces.extend(_connected_edge_groups(g, leftover))
    return pieces


def _direct_split(g: Graph, verts: np.ndarray, eids: np.ndarray,
                  weights: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic splitter for small clusters; every piece loses a vertex.

    Prefers a BFS layer cut balanced under `weights`; on diameter <= 1
    (clique-like) falls back to excluding the lowest vertex and splitting its
    star if it touches everything.
    """
    nn = len(verts)
    lu, lv = _local_ends(g, verts, eids)
    adj = _adjacency_lists(nn, lu, lv)
    d0 = local_bfs(adj, 0)[1]
    far = max(range(nn), key=lambda i: (d0[i], -i))
    dist = local_bfs(adj, far)[1]
    maxd = max(dist)
    if maxd >= 2:
        wl = weights.tolist()
        wa_pref = [0] * (maxd + 2)   # weight at layers < t
        cnt = [0] * (maxd + 1)
        for i, d in enumerate(dist):
            if d >= 0:
                cnt[d] += 1
                wa_pref[d + 1] += wl[i]
        for t in range(1, maxd + 2):
            wa_pref[t] += wa_pref[t - 1]
        total = wa_pref[maxd + 1]
        best = None
        for t in range(1, maxd):
            wa = wa_pref[t]
            wb = total - wa_pref[t + 1]
            key = (max(wa, wb), cnt[t], t)
            if best is None or key < best[0]:
                best = (key, t)
        cut = np.asarray([i for i, d in enumerate(dist) if d == best[1]], dtype=np.int64)
        return _split_pieces_from_cut(g, verts, eids, cut)
    # diameter <= 1: exclude the lowest-id vertex; split its star if needed
    star_mask = (lu == 0) | (lv == 0)
    rest = eids[~star_mask]
    pieces: list[tuple[np.ndarray, np.ndarray]] = []
    if len(rest):
        pieces.extend(_connected_edge_groups(g, rest))
    star_e = eids[star_mask]
    deg = len(star_e)
    if deg:
        covers_all = len(_verts_of_edges(g, star_e)) == nn
        if covers_all and deg >= 2:
            half = (deg + 1) // 2
            pieces.append((_verts_of_edges(g, star_e[:half]), star_e[:half]))
            pieces.append((_verts_of_edges(g, star_e[half:]), star_e[half:]))
        else:
            pieces.append((_verts_of_edges(g, star_e), star_e))
    return pieces


def _connected_edge_groups(g: Graph, eids: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a nonempty edge set into connected groups, ordered by smallest vertex."""
    verts = _verts_of_edges(g, eids)
    lu, lv = _local_ends(g, verts, eids)
    root = _edge_components(len(verts), lu, lv)[lu]
    order = np.argsort(root, kind="stable")
    groups = np.split(eids[order], np.flatnonzero(np.diff(root[order])) + 1)
    return [(_verts_of_edges(g, pe), pe) for pe in groups]


class MinorFound(Exception):
    """Internal: a separator call returned the minor side; carries the result."""

    def __init__(self, result: SepOrMinor):
        self.result = result


def _separator_split(g: Graph, verts: np.ndarray, eids: np.ndarray,
                     weights: np.ndarray, h: int, eps: float, seed: int,
                     ell: Optional[int] = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a cluster with a separator run under the given weights.

    Falls back to the direct splitter when the separator makes no progress.
    Raises MinorFound if the run returns the minor side.
    """
    if len(eids) <= 1:
        return [(verts, eids)]
    if len(verts) <= SMALL_SPLIT_CUTOFF:
        return _direct_split(g, verts, eids, weights)
    sub = _subgraph_from_edges(g, verts, eids, weights)
    if ell is None:
        out = shallow_separator_balanced(sub, h, eps, seed, complete_witness=False)
    else:
        out = shallow_separator(sub, h, ell, eps, seed, complete_witness=False)
    if not isinstance(out, Separator):
        raise MinorFound(lift_minor(out, verts))
    cut_local = np.asarray(out.C.ids(), dtype=np.int64)
    pieces = _split_pieces_from_cut(g, verts, eids, cut_local)
    if any(len(pv) >= len(verts) for pv, _ in pieces) or len(pieces) <= 1:
        return _direct_split(g, verts, eids, weights)
    return pieces


# -- weak r-clustering -------------------------------------------------------


def _flat_clusters(g: Graph, pieces: list[tuple[np.ndarray, np.ndarray]], seed: int,
                   salt: int) -> list[Cluster]:
    """Level-1 clusters from finished pieces, ordered by smallest vertex."""
    pieces = sorted(pieces, key=lambda p: int(p[0][0]))
    return [Cluster(id=i, level=1, vertices=verts, boundary=boundary, edges=eids,
                    seed=_child_seed(seed, salt + i))
            for i, ((verts, eids), boundary)
            in enumerate(zip(pieces, _piece_boundaries(g.n, pieces)))]


def weak_clustering_ell(nhat: int, r: int, h: int, eps3: float) -> int:
    """Per-level ell for the weak clustering recursion."""
    val = nhat ** (1.0 - eps3) / (h * r ** (0.5 - eps3) * math.sqrt(ln_ceil(nhat)))
    return max(1, min(int(round(val)), max(1, nhat // 2)))


def weak_r_clustering(g: Graph, r: int, h: int, eps: float, seed: int = 0,
                      c_r: float = DEFAULT_C_R) -> Union[Clustering, SepOrMinor]:
    """Clusters of at most r vertices with O~(h n / sqrt r) total boundary.

    Splits recursively with the shallow separator at a large per-level ell;
    a minor-side outcome of any split is forwarded.
    """
    n = g.n
    if r <= c_r * h * h * ln_ceil(n):
        raise ClusteringError(f"r={r} not above C_r h^2 ln n = {c_r * h * h * ln_ceil(n):.1f}")
    dense = density_result(g, h, {"h": h, "r": r, "eps": eps})
    if dense is not None:
        return dense
    eps3 = eps / 3.0
    all_eids = np.arange(g.m, dtype=np.int64)
    stack: list[tuple[np.ndarray, np.ndarray]] = []
    for vs, es in _connected_edge_groups(g, all_eids) if g.m else []:
        stack.append((vs, es))
    done: list[tuple[np.ndarray, np.ndarray]] = []
    step = 0
    while stack:
        verts, eids = stack.pop()
        if len(verts) <= r or len(eids) <= 1:
            done.append((verts, eids))
            continue
        step += 1
        ell = weak_clustering_ell(len(verts), r, h, eps3)
        unit = np.ones(len(verts), dtype=np.int64)
        try:
            pieces = _separator_split(g, verts, eids, unit, h, eps3, _child_seed(seed, step),
                                      ell=ell)
        except MinorFound as mf:
            return mf.result
        stack.extend(pieces)
    return Clustering(g=g, clusters=_flat_clusters(g, done, seed, 10_000_019), r=r, h=h, eps=eps)


def refine_to_r_clustering(weak: Clustering, h: int, eps: float, seed: int = 0,
                           boundary_bound: Optional[int] = None) -> Union[Clustering, SepOrMinor]:
    """Re-split boundary-heavy clusters under boundary-uniform weights until
    every cluster has at most c_b * h * sqrt(r ln n) boundary vertices."""
    g = weak.g
    if boundary_bound is None:
        boundary_bound = math.ceil(REFINE_COEFF * h * math.sqrt(weak.r * ln_ceil(g.n)))
    work = [(c.vertices, c.edges, c.boundary) for c in weak.clusters]
    out: list[tuple[np.ndarray, np.ndarray]] = []
    step = 0
    while work:
        verts, eids, bnd = work.pop()
        if len(bnd) <= boundary_bound or len(eids) <= 1:
            out.append((verts, eids))
            continue
        step += 1
        bmask = np.zeros(g.n, dtype=bool)
        bmask[bnd] = True
        try:
            pieces = _separator_split(g, verts, eids, bmask[verts].astype(np.int64), h,
                                      eps / 2.0, _child_seed(seed, 20_000_003 + step))
        except MinorFound as mf:
            return mf.result
        for (pv, pe), newb in zip(pieces, _piece_boundaries(g.n, pieces, bnd)):
            work.append((pv, pe, newb))
    clusters = _flat_clusters(g, out, seed, 30_000_001)
    refined = Clustering(g=g, clusters=clusters, r=weak.r, h=h, eps=eps)
    debugcheck.check("clustering.refined-bound",
                     all(len(c.boundary) <= boundary_bound for c in clusters),
                     "a refined cluster still exceeds the boundary bound")
    return refined


# -- nested clustering --------------------------------------------------------


class NestedClustering:
    """Hierarchy of clusters down to single-edge leaves (lazily materialized)."""

    def __init__(self, g: Graph, level1: list[Cluster], r: int, h: int, eps: float):
        self.g = g
        self.r = r
        self.h = h
        self.eps = eps
        self.clusters: list[Cluster] = list(level1)
        self.level1 = [c.id for c in level1]

    def cluster(self, cid: int) -> Cluster:
        return self.clusters[cid]

    def children_of(self, cid: int) -> list[int]:
        """Child ids of a cluster, splitting on first demand."""
        c = self.clusters[cid]
        if c.children is not None:
            return c.children
        if c.is_leaf:
            c.children = []
            return c.children
        pieces = split_cluster_two_weights(self.g, c, self.h, self.eps, c.seed)
        boundaries = _piece_boundaries(self.g.n, pieces, c.boundary)
        kids = []
        for j, ((pv, pe), newb) in enumerate(zip(pieces, boundaries)):
            kid = Cluster(id=len(self.clusters), level=c.level + 1, vertices=pv,
                          boundary=newb, edges=pe, parent=cid,
                          seed=_child_seed(c.seed, j))
            self.clusters.append(kid)
            kids.append(kid.id)
        c.children = kids
        self._check_decay(c, kids)
        return kids

    def _check_decay(self, c: Cluster, kids: list[int]) -> None:
        if not debugcheck.enabled():
            return
        lnc = ln_ceil(c.n)
        k_split = 2 * math.ceil(4.0 / self.eps) - 1
        additive = (4 * separator_coeff(k_split) + 4) * self.h * math.sqrt(c.n * lnc) + 2
        num, den = CHILD_BOUNDARY_FRACTION
        for kid_id in kids:
            kid = self.clusters[kid_id]
            debugcheck.check("clustering.decay-size", kid.n < c.n,
                             f"child {kid_id} of {c.id} does not shrink: {kid.n} vs {c.n}")
            debugcheck.check(
                "clustering.decay-boundary",
                len(kid.boundary) <= (num * len(c.boundary)) // den + 1 + additive,
                f"child {kid_id} boundary {len(kid.boundary)} vs parent {len(c.boundary)}")

    def materialize_all(self) -> None:
        queue = list(self.level1)
        while queue:
            cid = queue.pop()
            queue.extend(self.children_of(cid))

    def leaf_count(self) -> int:
        return sum(1 for c in self.clusters if c.is_leaf)

    def to_doc(self) -> dict:
        return {
            "r": self.r, "h": self.h, "eps": self.eps,
            "level1": self.level1,
            "clusters": [
                {"id": c.id, "level": c.level, "parent": c.parent,
                 "children": c.children,
                 "vertices": c.vertices.tolist(), "boundary": c.boundary.tolist(),
                 "edges": c.edges.tolist()}
                for c in self.clusters
            ],
        }


def split_cluster_two_weights(g: Graph, c: Cluster, h: int, eps: float,
                              seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a cluster so children shrink in size and in boundary count.

    First splits under vertex-uniform weights; any child inheriting more than
    3/4 of the parent boundary is re-split under boundary-uniform weights.
    Single-edge clusters are leaves and must not be split.
    """
    if c.m <= 1:
        raise ClusteringError("single-edge clusters are leaves and are never split")
    unit = np.ones(c.n, dtype=np.int64)
    pieces = _separator_split(g, c.vertices, c.edges, unit, h, eps / 2.0,
                              _child_seed(seed, 1))
    bmask = np.zeros(g.n, dtype=bool)
    bmask[c.boundary] = True
    num, den = CHILD_BOUNDARY_FRACTION
    limit = (num * len(c.boundary)) // den + 1
    final: list[tuple[np.ndarray, np.ndarray]] = []
    for j, (pv, pe) in enumerate(pieces):
        inherited = bmask[pv]
        if int(inherited.sum()) > limit and len(pe) > 1:
            final.extend(_separator_split(g, pv, pe, inherited.astype(np.int64), h, eps / 2.0,
                                          _child_seed(seed, 100 + j)))
        else:
            final.append((pv, pe))
    final.sort(key=lambda p: (int(p[0][0]), len(p[1])))
    return final


def nested_r_clustering(g: Graph, r: int, h: int, eps: float, seed: int = 0,
                        c_r: float = DEFAULT_C_R) -> Union[NestedClustering, SepOrMinor]:
    """Refined r-clustering plus recursive two-weight splitting to edge leaves."""
    if g.m == 0:
        return NestedClustering(g, [], r, h, eps)
    if r >= g.n:
        groups = _connected_edge_groups(g, np.arange(g.m, dtype=np.int64))
        level1 = [Cluster(id=i, level=1, vertices=vs, boundary=np.empty(0, np.int64),
                          edges=es, seed=_child_seed(seed, i))
                  for i, (vs, es) in enumerate(groups)]
        return NestedClustering(g, level1, r, h, eps)
    weak = weak_r_clustering(g, r, h, eps, seed, c_r=c_r)
    if not isinstance(weak, Clustering):
        return weak
    refined = refine_to_r_clustering(weak, h, eps, _child_seed(seed, 2))
    if not isinstance(refined, Clustering):
        return refined
    return NestedClustering(g, refined.clusters, r, h, eps)


# -- dynamic layer ------------------------------------------------------------


def _check_cx_postconditions(nc: NestedClustering, roster: set[int], xmask: np.ndarray) -> None:
    """The antichain rules: clusters of `roster` share only boundary vertices,
    and every X vertex is a boundary vertex, or interior to a leaf."""
    mult = np.zeros(nc.g.n, dtype=np.int64)
    bmult = np.zeros(nc.g.n, dtype=np.int64)
    leafint = np.zeros(nc.g.n, dtype=bool)
    for cid in roster:
        c = nc.cluster(cid)
        mult[c.vertices] += 1
        bmult[c.boundary] += 1
        if c.is_leaf:
            leafint[c.vertices] = True
    shared = mult > 1
    debugcheck.check("cx.boundary-sharing", bool(np.all(bmult[shared] == mult[shared])),
                     "clusters of C_X share a non-boundary vertex")
    covered = mult > 0
    # degree-1 vertices can stay interior to an unexpandable single-edge leaf
    bad = xmask & covered & (bmult == 0) & ~leafint
    debugcheck.check("cx.x-on-boundary", not bad.any(),
                     "an X vertex is interior to an expandable C_X cluster")


@dataclass
class XCluster:
    """Component of a cluster minus its active boundary, with its cached weight."""

    vertices: np.ndarray
    weight: int
    passive_boundary: np.ndarray


class _ClusterDyn:
    """The one record of a C_X cluster: local neighbor lists and boundary
    mask, X-cluster partition and the DDG layer's state.  `ddg` is built
    once; `recompute` resets `sx_edges` and `ai_sets`, which depend on the
    partition, to None (stale)."""

    __slots__ = ("cid", "verts", "adj", "is_bnd", "xcl_of", "xclusters",
                 "ddg", "sx_edges", "ai_sets")

    def __init__(self, g: Graph, c: Cluster):
        self.cid = c.id
        self.verts = c.vertices
        # local id = position in the sorted c.vertices
        self.adj = _adjacency_lists(c.n, *_local_ends(g, c.vertices, c.edges))
        self.is_bnd = np.zeros(c.n, dtype=bool)
        self.is_bnd[np.searchsorted(c.vertices, c.boundary)] = True
        self.xcl_of: Optional[np.ndarray] = None
        self.xclusters: list[XCluster] = []
        self.ddg = None         # ddg.DenseDistanceGraph, built once by the DDG layer
        self.sx_edges = None    # the cluster's S_X edges (u, v, w); None while stale
        self.ai_sets = None     # slot -> passive boundary label set; None while stale

    def recompute(self, g: Graph, active: np.ndarray) -> None:
        """Partition into components of C minus its active vertices; O(|C| + |E(C)|).

        After C_X expansion active vertices are boundary vertices, except for
        degree-1 vertices stuck inside single-edge leaves; blocking every
        active vertex covers both cases.
        """
        blocked = active[self.verts].tolist()
        xcl = np.full(len(self.verts), -1, dtype=np.int64)
        parts: list[XCluster] = []
        for s in range(len(self.verts)):
            if blocked[s] or xcl[s] >= 0:
                continue
            marr = np.sort(np.asarray(local_bfs(self.adj, s, blocked)[0], dtype=np.int64))
            xcl[marr] = len(parts)
            gverts = self.verts[marr]
            parts.append(XCluster(vertices=gverts, weight=int(g.vertex_weight[gverts].sum()),
                                  passive_boundary=self.verts[marr[self.is_bnd[marr]]]))
        self.xcl_of = xcl
        self.xclusters = parts
        self.sx_edges = self.ai_sets = None

    def xcluster_of_vertex(self, v: int) -> Optional[int]:
        li = int(np.searchsorted(self.verts, v))
        if li >= len(self.verts) or self.verts[li] != v or self.xcl_of is None:
            return None
        x = int(self.xcl_of[li])
        return x if x >= 0 else None


class ActiveState:
    """Active-vertex bookkeeping over a nested clustering.

    Each vertex flips passive->active and active->passive at most once; the
    active-set size never exceeds x_cap when one is given.  Cluster-local
    recomputation and C_X expansion run on every flip.  `dyn` holds one
    `_ClusterDyn` record per cluster of C_X; a record leaves with its
    cluster, and clusters never re-enter C_X.
    """

    def __init__(self, nc: NestedClustering, x_cap: Optional[int] = None):
        self.nc = nc
        g = nc.g
        self.active = np.zeros(g.n, dtype=bool)
        self.up_used = np.zeros(g.n, dtype=bool)
        self.down_used = np.zeros(g.n, dtype=bool)
        self.x_cap = x_cap
        self.cx: set[int] = set(nc.level1)
        self.dyn: dict[int, _ClusterDyn] = {}
        self.interior_of = np.full(g.n, -1, dtype=np.int64)
        self.boundary_clusters: dict[int, set[int]] = {}
        for cid in nc.level1:
            self._enter(cid)

    # -- cluster roster maintenance ------------------------------------------

    def _enter(self, cid: int) -> None:
        c = self.nc.cluster(cid)
        bset = set(c.boundary.tolist())
        for v in c.vertices.tolist():
            if v in bset:
                self.boundary_clusters.setdefault(v, set()).add(cid)
            else:
                self.interior_of[v] = cid
        dyn = _ClusterDyn(self.nc.g, c)
        dyn.recompute(self.nc.g, self.active)
        self.dyn[cid] = dyn

    def _leave(self, cid: int) -> None:
        c = self.nc.cluster(cid)
        bset = set(c.boundary.tolist())
        for v in c.vertices.tolist():
            if v in bset:
                s = self.boundary_clusters.get(v)
                if s is not None:
                    s.discard(cid)
            elif self.interior_of[v] == cid:
                self.interior_of[v] = -1
        self.dyn.pop(cid, None)

    def _expand(self, cid: int) -> list[int]:
        kids = self.nc.children_of(cid)
        self.cx.discard(cid)
        self._leave(cid)
        self.cx.update(kids)
        for k in kids:
            self._enter(k)
        return kids

    # -- flips -----------------------------------------------------------------

    def _flip(self, v: int, to: str) -> set[int]:
        """Apply one flip; returns the cluster ids whose partitions changed."""
        if to == "active":
            if self.active[v]:
                return set()
            if self.up_used[v]:
                raise ValueError(f"vertex {v} already used its passive->active flip")
            if self.x_cap is not None and int(self.active.sum()) + 1 > self.x_cap:
                raise ValueError("active-set cap exceeded")
            self.up_used[v] = True
            self.active[v] = True
            # expand until v is a boundary vertex wherever it appears; a
            # degree-1 vertex stays interior to its single-edge leaf, which
            # is unexpandable (the partition blocks it regardless)
            while self.interior_of[v] >= 0:
                cid = int(self.interior_of[v])
                if self.nc.cluster(cid).is_leaf:
                    break
                self._expand(cid)
        elif to == "passive":
            if not self.active[v]:
                return set()
            if self.down_used[v]:
                raise ValueError(f"vertex {v} already used its active->passive flip")
            self.down_used[v] = True
            self.active[v] = False
        else:
            raise ValueError(f"unknown state {to!r}")
        return set(self.boundary_clusters.get(v, ()))

    def set_vertex_state(self, v: int, to: str) -> None:
        self.set_many([v], to)

    def set_many(self, vs: Iterable[int], to: str) -> None:
        """Batch flips: each affected cluster is recomputed once at the end.

        In debug mode the C_X postconditions are checked after the batch.
        """
        touched: set[int] = set()
        for v in vs:
            touched |= self._flip(int(v), to)
        touched &= set(self.dyn)  # expanded-away clusters no longer exist
        for cid in sorted(touched):
            self.dyn[cid].recompute(self.nc.g, self.active)
        if debugcheck.enabled():
            _check_cx_postconditions(self.nc, self.cx, self.active)

    def activate_many(self, vs: Iterable[int]) -> None:
        self.set_many(vs, "active")


def decompose_active_complement(st: ActiveState) -> list[tuple[list[tuple[int, int]], int, int]]:
    """Components of G - X that contain a passive boundary vertex of C_X.

    Returns one entry per component: (X-cluster ids as sorted (cluster, index)
    pairs, exact weight, exact vertex count), ordered by first member.  Weights
    correct for vertices shared by several X-clusters.

    One component search runs on the bipartite graph of X-clusters and their
    passive boundary vertices.  The X-clusters take the ids 0..k-1 in member
    order, so the components come out numbered by their first member.
    """
    keys: list[tuple[int, int]] = []
    nodes: list[XCluster] = []
    for cid in sorted(st.cx):
        for i, xc in enumerate(st.dyn[cid].xclusters):
            if len(xc.passive_boundary):
                keys.append((cid, i))
                nodes.append(xc)
    k = len(nodes)
    if k == 0:
        return []
    sizes = [len(xc.passive_boundary) for xc in nodes]
    bverts, slot, incidence = np.unique(np.concatenate([xc.passive_boundary for xc in nodes]),
                                        return_inverse=True, return_counts=True)
    rows = np.repeat(np.arange(k), sizes)
    cols = k + slot
    size = k + len(bverts)
    ncomp, label = symmetric_components(csr_matrix(
        (np.ones(2 * len(rows)), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(size, size)))
    # int64 sums may wrap before the correction; the corrected totals fit
    weight = np.zeros(ncomp, dtype=np.int64)
    count = np.zeros(ncomp, dtype=np.int64)
    np.add.at(weight, label[:k], [xc.weight for xc in nodes])
    np.add.at(count, label[:k], [len(xc.vertices) for xc in nodes])
    # a boundary vertex in c X-clusters was summed c times
    np.subtract.at(weight, label[k:], (incidence - 1) * st.nc.g.vertex_weight[bverts])
    np.subtract.at(count, label[k:], incidence - 1)
    members: list[list[tuple[int, int]]] = [[] for _ in range(ncomp)]
    for key, comp in zip(keys, label[:k].tolist()):
        members[comp].append(key)
    return [(members[i], int(weight[i]), int(count[i])) for i in range(ncomp)]
