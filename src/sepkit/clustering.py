"""Edge-disjoint clusterings: weak and refined r-clusterings, the nested
hierarchy down to single-edge leaves, and the dynamic active-vertex layer.

A clustering partitions the edge set into connected subgraphs ("clusters");
a vertex shared by two clusters is a boundary vertex of both.  The weak
r-clustering is built by recursive separator splits with a large ell (big
separators found fast), refinement re-splits boundary-heavy clusters under
boundary-uniform weights, and the nested hierarchy re-splits every cluster
under two weightings (vertex-uniform, then boundary-uniform where needed)
so that both cluster sizes and boundary counts decay geometrically.

Children of a cluster are materialized lazily.  Every split is
deterministic, a function of the cluster alone, so the hierarchy is identical
no matter in which order children are demanded.  materialize_all() forces the
whole tree (tests, CLI dumps).

Every split applies one boundary rule (_piece_boundaries) and one piece
rule (_pieces_around_cut).  A cluster's edge ids stay ascending through
every split, so its local edges arrive sorted by (u, v) and _adjacency_lists
gives sorted neighbor lists.  _pieces_around_cut takes those lists and a
local cut: an edge goes to the component of C - cut that holds its first end
outside the cut, cut-internal edges are grouped by the components of G[cut],
and pieces come in first-edge order, the cut-internal ones last.  The empty
cut gives the connected edge groups that the weak clustering starts from.
SMALL_SPLIT_CUTOFF picks where the cut comes from, which changes the pieces:
- a cluster of at most SMALL_SPLIT_CUTOFF vertices takes _direct_split, a
  balanced BFS layer cut; on diameter <= 1 its star rule builds the pieces.
  These are most splits of a bootstrapped run (1,035 of 1,226 in a bootstrap
  perfbench pass at seed 1, median 8 vertices), where one csgraph call
  (about 120 us with its CSR) costs more than the search;
- a larger cluster is cut by a separator run.
The lists cost more than csgraph labelling on the largest pieces, which run
from the whole graph down: on grid 256 (r = 164, h = 5, c_r = 0.05) the
nested build takes 2.4 s, against 1.9 s when csgraph labelled the pieces
above the cutoff (best of 3, one Xeon core, Python 3.11, scipy 1.17).
_ClusterDyn.recompute's X-clusters come from one graph.local_labels pass,
and the DDG build runs on graph.local_bfs, both over a record's neighbor
lists.

The dynamic layer (ActiveState) is the one expansion of C_X: it maintains,
under passive<->active vertex flips, the antichain C_X in which every active
vertex is a boundary vertex, an edge index naming the C_X cluster of each
edge, the per-cluster partitions into X-clusters (components of C minus its
active vertices, retaining a passive boundary vertex) and their exact
weights; in debug mode each batch of flips re-checks the antichain
postconditions.
decompose_active_complement reads the decomposition of G minus X into unions
of X-clusters from one component search on the bipartite graph of X-clusters
and their passive boundary vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, KeysView, Optional, Union

import numpy as np
from scipy.sparse import csr_matrix

from . import debugcheck
from .certificates import SepOrMinor, Separator, density_result, lift_minor
from .graph import Graph, local_bfs, local_labels, symmetric_components
from .shallow import ln_ceil, separator_coeff, shallow_separator, shallow_separator_balanced

DEFAULT_C_R = 4.0          # lower end of the admissible r range: C_r * h^2 * ln n
REFINE_COEFF = 2.0         # c_b in the per-cluster boundary bound c_b * h * sqrt(r * ln n)
SMALL_SPLIT_CUTOFF = 48    # clusters at most this large use the direct splitter
CHILD_BOUNDARY_FRACTION = (3, 4)   # re-split a child under w2 above this share of |dC|


class ClusteringError(ValueError):
    pass


def check_eps_c_r(eps: float, c_r: float) -> None:
    """Reject an eps outside the solvers' range (0, 1], and a C_r that is not
    a finite number >= 0 (NaN would admit every r)."""
    if not (0 < eps <= 1):
        raise ValueError("eps must be in (0, 1]")
    if not (math.isfinite(c_r) and c_r >= 0):
        raise ValueError(f"c_r must be finite and >= 0, got {c_r}")


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


def _local_ends(g: Graph, verts: np.ndarray, eids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the edges `eids` as positions in the sorted `verts`."""
    return np.searchsorted(verts, g.edge_u[eids]), np.searchsorted(verts, g.edge_v[eids])


def _subgraph_from_edges(nn: int, lu: np.ndarray, lv: np.ndarray, weights: np.ndarray) -> Graph:
    """Graph on nn local vertices with exactly the edges (lu, lv)."""
    return Graph(nn, np.stack([lu, lv], axis=1) if len(lu) else [],
                 vertex_weight=weights.tolist())


def _adjacency_lists(nn: int, lu: list[int], lv: list[int]) -> list[list[int]]:
    """Neighbor lists of nn local vertices joined by the edges (lu, lv).

    The edges must come sorted by (lu, lv) with lu < lv, as a cluster's
    ascending edge ids give them; every list then comes out ascending.
    """
    adj: list[list[int]] = [[] for _ in range(nn)]
    for a, b in zip(lu, lv):
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


def _grouped(label: list[int], lu: list[int], pos: Iterable[int]) -> list[list[int]]:
    """The edge positions `pos` grouped by the label of their first end, in
    label order."""
    by: dict[int, list[int]] = {}
    for k in pos:
        by.setdefault(label[lu[k]], []).append(k)
    return [by[key] for key in sorted(by)]


def _pieces_of_groups(verts: np.ndarray, eids: np.ndarray, lu: list[int], lv: list[int],
                      groups: Iterable[list[int]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """One piece per group of edge positions; its vertices are its edges' ends."""
    return [(verts[sorted({lu[k] for k in pos}.union(lv[k] for k in pos))], eids[pos])
            for pos in groups]


def _pieces_around_cut(verts: np.ndarray, eids: np.ndarray, lu: list[int], lv: list[int],
                       adj: list[list[int]],
                       incut: list[bool]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition a cluster's edges around a local vertex cut: the one piece rule.

    `adj` holds the sorted neighbor lists of the local edges (lu, lv).  An
    edge goes to the piece of the component of C - cut that holds its first
    end outside the cut; these pieces come in the order of their first edge.
    Cut-internal edges follow, grouped by the components of G[cut].  With an
    empty cut the pieces are the connected edge groups, in order of smallest
    vertex.
    """
    root = local_labels(adj, incut)
    anchored: dict[int, list[int]] = {}
    inner: list[int] = []
    for k, (a, b) in enumerate(zip(lu, lv)):
        key = root[a] if root[a] >= 0 else root[b]
        if key >= 0:
            anchored.setdefault(key, []).append(k)
        else:
            inner.append(k)
    groups = list(anchored.values())
    if inner:
        groups += _grouped(local_labels(adj, [not c for c in incut]), lu, inner)
    return _pieces_of_groups(verts, eids, lu, lv, groups)


def _direct_split(g: Graph, verts: np.ndarray, eids: np.ndarray,
                  weights: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic splitter for small clusters; every piece loses a vertex.

    Prefers a BFS layer cut balanced under `weights`, split by
    _pieces_around_cut; on diameter <= 1 (clique-like) falls back to
    excluding the lowest vertex and splitting its star if it touches
    everything.
    """
    nn = len(verts)
    lu, lv = (ends.tolist() for ends in _local_ends(g, verts, eids))
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
        return _pieces_around_cut(verts, eids, lu, lv, adj, [d == best[1] for d in dist])
    # diameter <= 1: exclude the lowest-id vertex; split its star if needed.
    # Sorted by (lu, lv), the star's edges come first.
    deg = len(adj[0])
    groups = _grouped(local_labels(adj, [True] + [False] * (nn - 1)), lu, range(deg, len(lu)))
    if deg == nn - 1 and deg >= 2:
        half = (deg + 1) // 2
        groups += [list(range(half)), list(range(half, deg))]
    elif deg:
        groups.append(list(range(deg)))
    return _pieces_of_groups(verts, eids, lu, lv, groups)


def _connected_edge_groups(g: Graph) -> list[tuple[np.ndarray, np.ndarray]]:
    """The connected groups of g's edges, ordered by smallest vertex."""
    eids = np.arange(g.m, dtype=np.int64)
    verts = _verts_of_edges(g, eids)
    lu, lv = (ends.tolist() for ends in _local_ends(g, verts, eids))
    return _pieces_around_cut(verts, eids, lu, lv, _adjacency_lists(len(verts), lu, lv),
                              [False] * len(verts))


class MinorFound(Exception):
    """Internal: a separator call returned the minor side; carries the result."""

    def __init__(self, result: SepOrMinor):
        self.result = result


def _separator_split(g: Graph, verts: np.ndarray, eids: np.ndarray,
                     weights: np.ndarray, h: int, eps: float,
                     ell: Optional[int] = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a cluster with a separator run under the given weights.

    Falls back to the direct splitter when the separator makes no progress.
    Raises MinorFound if the run returns the minor side.
    """
    nn = len(verts)
    if len(eids) <= 1:
        return [(verts, eids)]
    if nn <= SMALL_SPLIT_CUTOFF:
        return _direct_split(g, verts, eids, weights)
    lu, lv = _local_ends(g, verts, eids)
    sub = _subgraph_from_edges(nn, lu, lv, weights)
    if ell is None:
        out = shallow_separator_balanced(sub, h, eps, complete_witness=False)
    else:
        out = shallow_separator(sub, h, ell, eps, complete_witness=False)
    if not isinstance(out, Separator):
        raise MinorFound(lift_minor(out, verts))
    incut = np.zeros(nn, dtype=bool)
    incut[out.C] = True
    lu, lv = lu.tolist(), lv.tolist()
    pieces = _pieces_around_cut(verts, eids, lu, lv, _adjacency_lists(nn, lu, lv),
                                incut.tolist())
    if any(len(pv) >= nn for pv, _ in pieces) or len(pieces) <= 1:
        return _direct_split(g, verts, eids, weights)
    return pieces


# -- weak r-clustering -------------------------------------------------------


def _flat_clusters(g: Graph, pieces: list[tuple[np.ndarray, np.ndarray]]) -> list[Cluster]:
    """Level-1 clusters from finished pieces, ordered by smallest vertex."""
    pieces = sorted(pieces, key=lambda p: int(p[0][0]))
    return [Cluster(id=i, level=1, vertices=verts, boundary=boundary, edges=eids)
            for i, ((verts, eids), boundary)
            in enumerate(zip(pieces, _piece_boundaries(g.n, pieces)))]


def weak_clustering_ell(nhat: int, r: int, h: int, eps3: float) -> int:
    """Per-level ell for the weak clustering recursion."""
    val = nhat ** (1.0 - eps3) / (h * r ** (0.5 - eps3) * math.sqrt(ln_ceil(nhat)))
    return max(1, min(int(round(val)), max(1, nhat // 2)))


def weak_r_clustering(g: Graph, r: int, h: int, eps: float,
                      c_r: float = DEFAULT_C_R) -> Union[Clustering, SepOrMinor]:
    """Clusters of at most r vertices with O~(h n / sqrt r) total boundary.

    Splits recursively with the shallow separator at a large per-level ell;
    a minor-side outcome of any split is forwarded.
    """
    check_eps_c_r(eps, c_r)
    n = g.n
    if r <= c_r * h * h * ln_ceil(n):
        raise ClusteringError(f"r={r} not above C_r h^2 ln n = {c_r * h * h * ln_ceil(n):.1f}")
    dense = density_result(g, h, {"h": h, "r": r, "eps": eps})
    if dense is not None:
        return dense
    eps3 = eps / 3.0
    stack = _connected_edge_groups(g)
    done: list[tuple[np.ndarray, np.ndarray]] = []
    while stack:
        verts, eids = stack.pop()
        if len(verts) <= r or len(eids) <= 1:
            done.append((verts, eids))
            continue
        ell = weak_clustering_ell(len(verts), r, h, eps3)
        unit = np.ones(len(verts), dtype=np.int64)
        try:
            pieces = _separator_split(g, verts, eids, unit, h, eps3, ell=ell)
        except MinorFound as mf:
            return mf.result
        stack.extend(pieces)
    return Clustering(g=g, clusters=_flat_clusters(g, done), r=r)


def refine_to_r_clustering(weak: Clustering, h: int, eps: float,
                           boundary_bound: Optional[int] = None) -> Union[Clustering, SepOrMinor]:
    """Re-split boundary-heavy clusters under boundary-uniform weights until
    every cluster has at most c_b * h * sqrt(r ln n) boundary vertices."""
    g = weak.g
    if boundary_bound is None:
        boundary_bound = math.ceil(REFINE_COEFF * h * math.sqrt(weak.r * ln_ceil(g.n)))
    work = [(c.vertices, c.edges, c.boundary) for c in weak.clusters]
    out: list[tuple[np.ndarray, np.ndarray]] = []
    while work:
        verts, eids, bnd = work.pop()
        if len(bnd) <= boundary_bound or len(eids) <= 1:
            out.append((verts, eids))
            continue
        bmask = np.zeros(g.n, dtype=bool)
        bmask[bnd] = True
        try:
            pieces = _separator_split(g, verts, eids, bmask[verts].astype(np.int64), h,
                                      eps / 2.0)
        except MinorFound as mf:
            return mf.result
        for (pv, pe), newb in zip(pieces, _piece_boundaries(g.n, pieces, bnd)):
            work.append((pv, pe, newb))
    clusters = _flat_clusters(g, out)
    refined = Clustering(g=g, clusters=clusters, r=weak.r)
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
        pieces = split_cluster_two_weights(self.g, c, self.h, self.eps)
        boundaries = _piece_boundaries(self.g.n, pieces, c.boundary)
        kids = []
        for (pv, pe), newb in zip(pieces, boundaries):
            kid = Cluster(id=len(self.clusters), level=c.level + 1, vertices=pv,
                          boundary=newb, edges=pe, parent=cid)
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

    def materialize_all(self) -> Optional[SepOrMinor]:
        """Split every cluster down to its leaves; returns the minor-side
        result a split found (the tree is then left partial), else None."""
        queue = list(self.level1)
        while queue:
            try:
                queue.extend(self.children_of(queue.pop()))
            except MinorFound as mf:
                return mf.result
        return None

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


def split_cluster_two_weights(g: Graph, c: Cluster, h: int,
                              eps: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a cluster so children shrink in size and in boundary count.

    First splits under vertex-uniform weights; any child inheriting more than
    3/4 of the parent boundary is re-split under boundary-uniform weights.
    Single-edge clusters are leaves and must not be split.
    """
    if c.m <= 1:
        raise ClusteringError("single-edge clusters are leaves and are never split")
    unit = np.ones(c.n, dtype=np.int64)
    pieces = _separator_split(g, c.vertices, c.edges, unit, h, eps / 2.0)
    bmask = np.zeros(g.n, dtype=bool)
    bmask[c.boundary] = True
    num, den = CHILD_BOUNDARY_FRACTION
    limit = (num * len(c.boundary)) // den + 1
    final: list[tuple[np.ndarray, np.ndarray]] = []
    for pv, pe in pieces:
        inherited = bmask[pv]
        if int(inherited.sum()) > limit and len(pe) > 1:
            final.extend(_separator_split(g, pv, pe, inherited.astype(np.int64), h, eps / 2.0))
        else:
            final.append((pv, pe))
    final.sort(key=lambda p: (int(p[0][0]), len(p[1])))
    return final


def nested_r_clustering(g: Graph, r: int, h: int, eps: float,
                        c_r: float = DEFAULT_C_R) -> Union[NestedClustering, SepOrMinor]:
    """Refined r-clustering plus recursive two-weight splitting to edge leaves."""
    check_eps_c_r(eps, c_r)
    if g.m == 0:
        return NestedClustering(g, [], r, h, eps)
    if r >= g.n:
        return NestedClustering(g, _flat_clusters(g, _connected_edge_groups(g)), r, h, eps)
    weak = weak_r_clustering(g, r, h, eps, c_r=c_r)
    if not isinstance(weak, Clustering):
        return weak
    refined = refine_to_r_clustering(weak, h, eps)
    if not isinstance(refined, Clustering):
        return refined
    return NestedClustering(g, refined.clusters, r, h, eps)


# -- dynamic layer ------------------------------------------------------------


def _check_cx_postconditions(st: ActiveState) -> None:
    """The antichain rules: C_X clusters share only boundary vertices, every
    X vertex is a boundary vertex, or interior to a leaf, and the edge index
    maps each C_X cluster's edges, and only those, to it; and each C_X
    record's X-cluster partition is that of a fresh record, O(sum of |C|)."""
    nc, xmask = st.nc, st.active
    mult = np.zeros(nc.g.n, dtype=np.int64)
    bmult = np.zeros(nc.g.n, dtype=np.int64)
    leafint = np.zeros(nc.g.n, dtype=bool)
    indexed = True
    for cid in st.cx:
        c = nc.cluster(cid)
        fresh = _ClusterDyn(nc.g, c)
        fresh.recompute(xmask)
        debugcheck.check("cx.partition", st.dyn[cid].xcl_of == fresh.xcl_of,
                         f"C_X cluster {cid}'s X-cluster partition is stale")
        mult[c.vertices] += 1
        bmult[c.boundary] += 1
        if c.is_leaf:
            leafint[c.vertices] = True
        indexed = indexed and bool((st.edge_cx[c.edges] == cid).all())
    debugcheck.check("cx.edge-index",
                     indexed and bool(np.isin(st.edge_cx, list(st.cx)).all()),
                     "the edge index disagrees with C_X")
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
    mask, X-cluster partition and the cluster's DDG.  `ddg` is built at most
    once, and never for a cluster without interior vertices unless a tree
    path through it is expanded; the cluster's S_X rows live in the DDG
    layer's table, and the label sets are derived from the partition on
    each find."""

    __slots__ = ("cid", "verts", "wts", "adj", "is_bnd", "xcl_of", "xclusters", "ddg")

    def __init__(self, g: Graph, c: Cluster):
        self.cid = c.id
        self.verts = c.vertices
        self.wts = g.vertex_weight[c.vertices].tolist()
        # local id = position in the sorted c.vertices
        lu, lv = _local_ends(g, c.vertices, c.edges)
        self.adj = _adjacency_lists(c.n, lu.tolist(), lv.tolist())
        self.is_bnd = np.zeros(c.n, dtype=bool)
        self.is_bnd[np.searchsorted(c.vertices, c.boundary)] = True
        self.xcl_of: Optional[list[int]] = None
        self.xclusters: list[XCluster] = []
        self.ddg = None         # ddg.DenseDistanceGraph, built on first use by the DDG layer

    def recompute(self, active: np.ndarray) -> None:
        """Partition into components of C minus its active vertices; O(|C| + |E(C)|).

        After C_X expansion active vertices are boundary vertices, except for
        degree-1 vertices inside single-edge leaves; blocking every active
        vertex covers both cases.  One `local_labels` pass numbers the
        X-clusters by smallest member; each one's members, weight and passive
        boundary come from grouping the vertices by label, with one array
        index per X-cluster.
        """
        self.xcl_of = local_labels(self.adj, active[self.verts].tolist())
        groups: list[list[int]] = []
        for i, k in enumerate(self.xcl_of):
            if k == len(groups):
                groups.append([i])
            elif k >= 0:
                groups[k].append(i)
        bnd = self.is_bnd.tolist()
        self.xclusters = []
        for members in groups:
            passive = [i for i in members if bnd[i]]
            both = self.verts[members + passive]
            self.xclusters.append(XCluster(vertices=both[:len(members)],
                                           weight=sum(self.wts[i] for i in members),
                                           passive_boundary=both[len(members):]))

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
    `_ClusterDyn` record per C_X cluster, and its keys are C_X (`cx`);
    `edge_cx[e]` is the C_X cluster holding edge e, which an expanded
    cluster's children overwrite.  Clusters never re-enter C_X.

    By the piece rule, v is a boundary vertex of a C_X cluster exactly when
    v has an edge in another one, so the clusters holding v, and whether v
    is interior, are read off the edges at v.
    """

    def __init__(self, nc: NestedClustering, x_cap: Optional[int] = None):
        self.nc = nc
        g = nc.g
        self.active = np.zeros(g.n, dtype=bool)
        self.n_active = 0       # active.sum(), kept by _flip for the x_cap test
        self.up_used = np.zeros(g.n, dtype=bool)
        self.down_used = np.zeros(g.n, dtype=bool)
        self.x_cap = x_cap
        self.dyn: dict[int, _ClusterDyn] = {}
        self.edge_cx = np.full(g.m, -1, dtype=np.int64)
        for cid in nc.level1:
            self._enter(cid)

    @property
    def cx(self) -> KeysView[int]:
        """The cluster ids of C_X."""
        return self.dyn.keys()

    def clusters_at(self, v: int) -> set[int]:
        """The C_X clusters holding an edge at v."""
        g = self.nc.g
        return set(self.edge_cx[g.slot_edges()[g.indptr[v]:g.indptr[v + 1]]].tolist())

    def _enter(self, cid: int) -> None:
        c = self.nc.cluster(cid)
        self.edge_cx[c.edges] = cid
        dyn = _ClusterDyn(self.nc.g, c)
        dyn.recompute(self.active)
        self.dyn[cid] = dyn

    def _expand(self, cid: int) -> None:
        kids = self.nc.children_of(cid)
        del self.dyn[cid]
        for k in kids:
            self._enter(k)

    # -- flips -----------------------------------------------------------------

    def _flip(self, v: int, to: str) -> set[int]:
        """Apply one flip; returns the ids of the C_X clusters holding v."""
        if to == "active":
            if self.active[v]:
                return set()
            if self.up_used[v]:
                raise ValueError(f"vertex {v} already used its passive->active flip")
            if self.x_cap is not None and self.n_active + 1 > self.x_cap:
                raise ValueError("active-set cap exceeded")
            self.up_used[v] = True
            self.active[v] = True
            self.n_active += 1
            # expand while v's edges lie in one non-leaf cluster, which holds
            # v as an interior vertex; a degree-1 vertex stays interior to its
            # single-edge leaf, whose partition the caller recomputes
            cids = self.clusters_at(v)
            while len(cids) == 1 and not self.nc.cluster(min(cids)).is_leaf:
                self._expand(min(cids))
                cids = self.clusters_at(v)
        elif to == "passive":
            if not self.active[v]:
                return set()
            if self.down_used[v]:
                raise ValueError(f"vertex {v} already used its active->passive flip")
            self.down_used[v] = True
            self.active[v] = False
            self.n_active -= 1
            cids = self.clusters_at(v)
        else:
            raise ValueError(f"unknown state {to!r}")
        return cids

    def set_vertex_state(self, v: int, to: str) -> None:
        self.set_many([v], to)

    def set_many(self, vs: Iterable[int], to: str) -> None:
        """Batch flips: each affected cluster is recomputed once at the end.

        In debug mode the C_X postconditions are checked after the batch.
        """
        touched: set[int] = set()
        for v in vs:
            touched |= self._flip(int(v), to)
        touched &= self.cx  # expanded-away clusters no longer exist
        for cid in sorted(touched):
            self.dyn[cid].recompute(self.active)
        if debugcheck.enabled():
            _check_cx_postconditions(self)


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
