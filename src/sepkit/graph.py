"""Core graph representation: CSR adjacency, neighborhoods, components, weights, I/O.

Vertices are dense ids 0..n-1.  Graphs are simple and undirected: no
self-loops, no parallel edges, symmetric adjacency.  Vertex weights are
nonnegative 64-bit integers; balance arithmetic elsewhere in the package is
exact (cross-multiplied integers), never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph


class GraphFormatError(ValueError):
    """Raised on malformed input streams (carries a line number when known)."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class VertexSet:
    """Immutable set of vertex ids with O(1) membership and sorted iteration."""

    __slots__ = ("_members", "_sorted")

    def __init__(self, ids: Iterable[int] = ()):
        self._members = frozenset(int(v) for v in ids)
        self._sorted: Optional[tuple[int, ...]] = None

    def ids(self) -> tuple[int, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self._members))
        return self._sorted

    def __contains__(self, v: int) -> bool:
        return v in self._members

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids())

    def __len__(self) -> int:
        return len(self._members)

    def __eq__(self, other) -> bool:
        if isinstance(other, VertexSet):
            return self._members == other._members
        if isinstance(other, (set, frozenset)):
            return self._members == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._members)

    def __repr__(self) -> str:
        shown = list(self.ids()[:8])
        more = "..." if len(self) > 8 else ""
        return f"VertexSet({shown}{more}, size={len(self)})"

    def to_mask(self, n: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        if self._members:
            mask[np.fromiter(self._members, dtype=np.int64)] = True
        return mask

    @staticmethod
    def from_mask(mask: np.ndarray) -> "VertexSet":
        return VertexSet(np.flatnonzero(mask).tolist())

    def union(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self._members | other._members)

    def intersection(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self._members & other._members)

    def difference(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self._members - other._members)

    def isdisjoint(self, other: "VertexSet") -> bool:
        return self._members.isdisjoint(other._members)

    def issubset(self, other: "VertexSet") -> bool:
        return self._members <= other._members


@dataclass(frozen=True)
class DensityCertificate:
    """Edge-count evidence that a graph is too dense to exclude a K_h minor.

    ``mader-proven`` certificates are sound proofs (average degree >= 2^(h-2)
    forces a K_h minor).  ``thomason-soft`` certificates only witness that the
    graph exceeds the extremal-style control-flow threshold used by the
    algorithms; they are not by themselves proofs of minor existence.
    """

    n: int
    m: int
    h: int
    threshold: int
    policy: str  # "thomason-soft" | "mader-proven"

    def recheck(self) -> bool:
        return self.threshold == density_threshold(self.policy, self.h, self.n) and self.m > self.threshold


# Soft-guard constant: the true extremal constant for K_h-minor-free graphs is
# unspecified in the source analysis, so it is exposed as configuration.
THOMASON_SOFT_COEFF = 4.0


def density_threshold(policy: str, h: int, n: int, coeff: float = THOMASON_SOFT_COEFF) -> int:
    """Edge-count threshold above which the guard fires.  Deterministic."""
    if h < 2:
        raise ValueError("h must be >= 2")
    if policy == "mader-proven":
        # m > 2^(h-2) * n / 2  <=>  average degree > 2^(h-2).
        return (2 ** (h - 2)) * n // 2
    if policy == "thomason-soft":
        import math

        return int(math.floor(coeff * h * math.sqrt(max(1.0, math.log(h))) * n))
    raise ValueError(f"unknown density policy: {policy}")


class Graph:
    """Simple undirected graph with integer vertex weights and optional edge weights.

    Immutable after construction.  Adjacency is stored CSR-style (indptr,
    indices) with neighbor lists sorted, plus a canonical edge list with
    u < v.  Edge weights default to 1 and align with the canonical edge list.
    """

    def __init__(
        self,
        n: int,
        edges: Sequence[tuple[int, int]] | np.ndarray,
        vertex_weight: Optional[Sequence[int]] = None,
        edge_weight: Optional[Sequence[int]] = None,
    ):
        self.n = int(n)
        eu, ev, ew = _canonical_edges(self.n, edges, edge_weight)
        self.edge_u = eu
        self.edge_v = ev
        self.edge_w = ew  # None means all edges have weight 1
        self.m = len(eu)
        self.indptr, self.indices, self._csr_edge_id = _build_csr(self.n, eu, ev)
        if vertex_weight is None:
            self.vertex_weight = np.ones(self.n, dtype=np.int64)
        else:
            w = np.asarray(list(vertex_weight), dtype=np.int64)
            if w.shape != (self.n,):
                raise ValueError("vertex_weight length must equal n")
            if np.any(w < 0):
                raise ValueError("vertex weights must be nonnegative")
            self.vertex_weight = w
        total = int(self.vertex_weight.sum(dtype=object)) if self.n else 0
        if total >= 2**63:
            raise ValueError("sum of vertex weights exceeds 64-bit range")
        self.total_vertex_weight = total

    # -- basic accessors ---------------------------------------------------

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return i < len(row) and row[i] == v

    def edge_list(self) -> list[tuple[int, int]]:
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist()))

    def edge_weights(self) -> np.ndarray:
        if self.edge_w is None:
            return np.ones(self.m, dtype=np.int64)
        return self.edge_w

    def is_unit_weighted_edges(self) -> bool:
        return self.edge_w is None or bool(np.all(self.edge_w == 1))

    def csr(self, weights: Optional[np.ndarray] = None) -> csr_matrix:
        """Adjacency as a scipy CSR matrix (symmetric, given data or ones)."""
        if weights is None:
            data = np.ones(len(self.indices), dtype=np.int64)
        else:
            data = weights[self._csr_edge_id]
        return csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def csr_edge_ids(self) -> np.ndarray:
        """For each CSR slot, the id of the undirected edge it belongs to."""
        return self._csr_edge_id

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _canonical_edges(n, edges, edge_weight):
    if isinstance(edges, np.ndarray) and edges.size:
        arr = edges.astype(np.int64).reshape(-1, 2)
    else:
        arr = np.asarray([(int(u), int(v)) for u, v in edges], dtype=np.int64).reshape(-1, 2)
    if arr.size == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                None if edge_weight is None else np.empty(0, np.int64))
    if np.any(arr < 0) or np.any(arr >= n):
        raise ValueError("edge endpoint out of range")
    if np.any(arr[:, 0] == arr[:, 1]):
        raise ValueError("self-loops are not allowed")
    u = np.minimum(arr[:, 0], arr[:, 1])
    v = np.maximum(arr[:, 0], arr[:, 1])
    if edge_weight is not None:
        w = np.asarray(list(edge_weight), dtype=np.int64)
        if len(w) != len(u):
            raise ValueError("edge_weight length mismatch")
        if np.any(w < 0):
            raise ValueError("edge weights must be nonnegative")
    else:
        w = None
    key = u * np.int64(n) + v
    order = np.argsort(key, kind="stable")
    key = key[order]
    keep = np.ones(len(key), dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    if w is not None:
        # duplicate edges collapse to the minimum weight
        w_sorted = w[order]
        group = np.cumsum(keep) - 1
        w_min = np.full(int(group[-1]) + 1, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(w_min, group, w_sorted)
        w = w_min
    u, v = u[order][keep], v[order][keep]
    if w is not None and np.all(w == 1):
        w = None
    return u, v, w


def _build_csr(n, eu, ev):
    both_u = np.concatenate([eu, ev])
    both_v = np.concatenate([ev, eu])
    eid = np.concatenate([np.arange(len(eu)), np.arange(len(eu))]).astype(np.int64)
    order = np.lexsort((both_v, both_u))
    both_u, both_v, eid = both_u[order], both_v[order], eid[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, both_u + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, both_v.astype(np.int64), eid


# -- spec operations -------------------------------------------------------


def load_graph(source, fmt: str = "edge-list") -> Graph:
    """Parse a graph from a byte or text stream.

    Edge-list format: UTF-8 lines, ``u v`` declares an edge, ``w u c`` sets the
    weight of vertex u to c, ``#`` starts a comment.  DIMACS format accepts
    ``c`` comments, ``p edge n m`` and ``e u v`` lines (1-based ids).
    Vertices never assigned a weight get weight 1; duplicate edges collapse.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = source
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    edges: list[tuple[int, int]] = []
    weights: dict[int, int] = {}
    max_id = -1
    declared_n = None
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if fmt == "edge-list":
            if line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "w":
                if len(parts) != 3:
                    raise GraphFormatError("weight line must be 'w u c'", lineno)
                try:
                    u, c = int(parts[1]), int(parts[2])
                except ValueError:
                    raise GraphFormatError("weight line has non-integer field", lineno)
                if c < 0:
                    raise GraphFormatError("negative vertex weight", lineno)
                if u < 0:
                    raise GraphFormatError("negative vertex id", lineno)
                weights[u] = c
                max_id = max(max_id, u)
            else:
                if len(parts) != 2:
                    raise GraphFormatError("edge line must be 'u v'", lineno)
                try:
                    u, v = int(parts[0]), int(parts[1])
                except ValueError:
                    raise GraphFormatError("edge line has non-integer field", lineno)
                if u < 0 or v < 0:
                    raise GraphFormatError("negative vertex id", lineno)
                if u == v:
                    raise GraphFormatError("self-loop rejected", lineno)
                edges.append((u, v))
                max_id = max(max_id, u, v)
        elif fmt == "dimacs":
            tag = line.split(maxsplit=1)[0]
            if tag == "c":
                continue
            if tag == "p":
                parts = line.split()
                if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                    raise GraphFormatError("bad problem line", lineno)
                declared_n = int(parts[2])
            elif tag == "e":
                parts = line.split()
                if len(parts) != 3:
                    raise GraphFormatError("edge line must be 'e u v'", lineno)
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
                if u < 0 or v < 0:
                    raise GraphFormatError("vertex id below 1", lineno)
                if u == v:
                    raise GraphFormatError("self-loop rejected", lineno)
                edges.append((u, v))
                max_id = max(max_id, u, v)
            else:
                raise GraphFormatError(f"unknown line tag {tag!r}", lineno)
        else:
            raise ValueError(f"unknown format {fmt!r}")
    n = max_id + 1
    if declared_n is not None:
        if max_id >= declared_n:
            raise GraphFormatError(f"edge mentions vertex {max_id + 1} > declared n={declared_n}")
        n = declared_n
    wvec = [weights.get(v, 1) for v in range(n)]
    return Graph(n, edges, vertex_weight=wvec)


def dump_graph(g: Graph, fmt: str = "edge-list") -> str:
    """Serialize a graph in one of the accepted input formats."""
    lines: list[str] = []
    if fmt == "edge-list":
        lines.append(f"# n={g.n} m={g.m}")
        for v in range(g.n):
            if g.vertex_weight[v] != 1:
                lines.append(f"w {v} {int(g.vertex_weight[v])}")
        for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
            lines.append(f"{u} {v}")
        if g.n and g.m == 0:
            # retain isolated-vertex count for round-tripping
            lines.append(f"w {g.n - 1} {int(g.vertex_weight[g.n - 1])}")
    elif fmt == "dimacs":
        lines.append(f"p edge {g.n} {g.m}")
        for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
            lines.append(f"e {u + 1} {v + 1}")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"


def neighborhood(g: Graph, xs: VertexSet, delta: int = 1) -> VertexSet:
    """N^delta(X): all vertices within distance delta of X (X included)."""
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if len(xs) == 0:
        return VertexSet()
    mask = xs.to_mask(g.n)
    frontier = np.flatnonzero(mask)
    for _ in range(delta):
        if len(frontier) == 0:
            break
        nbrs = gather_neighbors(g.indptr, g.indices, frontier)
        new = nbrs[~mask[nbrs]]
        if len(new) == 0:
            break
        new = np.unique(new)
        mask[new] = True
        frontier = new
    return VertexSet.from_mask(mask)


def gather_neighbors(indptr: np.ndarray, indices: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of `verts` (with multiplicity), vectorized."""
    starts = indptr[verts]
    counts = indptr[verts + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    offsets = np.repeat(starts, counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    return indices[offsets + within]


def grow_within(g: Graph, allowed: np.ndarray, seed_vertices: np.ndarray, target: int,
                radius_cap: int) -> np.ndarray:
    """Grow a connected superset of the seed vertices by BFS through `allowed`.

    Adds whole layers until the target size is met, trimming the final layer
    (lowest ids first) so the result has exactly min(target, reachable) size,
    and stops after radius_cap layers.  Returns the sorted vertex ids.
    """
    mask = np.zeros(g.n, dtype=bool)
    mask[seed_vertices] = True
    count = len(seed_vertices)
    frontier = seed_vertices
    layers = 0
    while count < target and len(frontier) and layers < radius_cap:
        nbrs = gather_neighbors(g.indptr, g.indices, frontier)
        nbrs = nbrs[allowed[nbrs] & ~mask[nbrs]]
        if len(nbrs) == 0:
            break
        new = np.unique(nbrs)
        if count + len(new) > target:
            new = new[: target - count]
        mask[new] = True
        count += len(new)
        frontier = new
        layers += 1
    return np.flatnonzero(mask)


# Most distance entries one shortest_path call in `MaskedSubgraph.diameter`
# may hold: 2^20 float64 entries, 8 MiB.
DIAMETER_BLOCK_ENTRIES = 1 << 20


class MaskedSubgraph:
    """G[mask] as a 0/1 CSR matrix over local ids, built once for csgraph queries.

    `ids` holds the global id of each local id.  Local ids follow global id
    order, so csgraph's tie-breaking (component numbering, BFS predecessors)
    is by global id as well.
    """

    __slots__ = ("n", "ids", "mat")

    def __init__(self, g: Graph, mask: np.ndarray):
        ids = np.flatnonzero(mask)
        local = np.full(g.n, -1, dtype=np.int64)
        local[ids] = np.arange(len(ids))
        keep = mask[g.edge_u] & mask[g.edge_v]
        lu, lv = local[g.edge_u[keep]], local[g.edge_v[keep]]
        nn = len(ids)
        self.n = g.n
        self.ids = ids
        self.mat = csr_matrix((np.ones(2 * len(lu), dtype=np.int8),
                               (np.concatenate([lu, lv]), np.concatenate([lv, lu]))),
                              shape=(nn, nn))

    def components(self) -> tuple[int, np.ndarray]:
        """Component count and the label per local id, numbered in order of
        each component's smallest vertex id."""
        return csgraph.connected_components(self.mat, directed=False)

    def bfs(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Hop distances and BFS-tree predecessors from global id `start`.

        Both arrays are indexed by global vertex id; vertices off start's
        component get distance inf, and those and `start` get predecessor -1.
        """
        ids = self.ids
        dist_l, pred_l = csgraph.dijkstra(self.mat, directed=False, unweighted=True,
                                          indices=int(np.searchsorted(ids, start)),
                                          return_predecessors=True)
        dist = np.full(self.n, np.inf)
        dist[ids] = dist_l
        pred = np.full(self.n, -1, dtype=np.int64)
        has = pred_l >= 0
        pred[ids[has]] = ids[pred_l[has]]
        return dist, pred

    def diameter(self) -> Optional[int]:
        """Hop diameter; None when disconnected, 0 for at most one vertex.

        All-pairs BFS in blocks of sources, each holding at most
        DIAMETER_BLOCK_ENTRIES distances.
        """
        nn = len(self.ids)
        if nn <= 1:
            return 0
        if self.components()[0] > 1:
            return None
        rows = max(1, DIAMETER_BLOCK_ENTRIES // nn)
        best = 0
        for lo in range(0, nn, rows):
            dist = csgraph.shortest_path(self.mat, method="D", directed=False, unweighted=True,
                                         indices=np.arange(lo, min(nn, lo + rows)))
            best = max(best, int(dist.max()))
        return best


def masked_components(g: Graph, mask: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Components of G[mask]: (ids of mask, component count, label per id)."""
    sub = MaskedSubgraph(g, mask)
    ncomp, labels = sub.components()
    return sub.ids, ncomp, labels


def masked_bfs(g: Graph, mask: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """`MaskedSubgraph.bfs` from `start` inside G[mask]."""
    return MaskedSubgraph(g, mask).bfs(start)


def masked_diameter(g: Graph, ids: np.ndarray) -> Optional[int]:
    """Hop diameter of G[ids]; None when G[ids] is disconnected.

    `ids` must lie in 0..n-1: callers that take ids from outside check the
    range first, since a negative id would index from the end.
    """
    mask = np.zeros(g.n, dtype=bool)
    mask[ids] = True
    return MaskedSubgraph(g, mask).diameter()


def any_edge_between(g: Graph, a: np.ndarray, b: np.ndarray) -> bool:
    """Whether some edge of g joins a vertex of `a` to a vertex of `b`."""
    if len(a) > len(b):
        a, b = b, a
    return bool(np.isin(gather_neighbors(g.indptr, g.indices, a), b).any())


def induced_subgraph(g: Graph, xs: VertexSet) -> tuple[Graph, dict[int, int]]:
    """G[X] with weights carried over, plus the old-id -> new-id bijection."""
    old_ids = np.asarray(xs.ids(), dtype=np.int64)
    if np.any(old_ids >= g.n) or np.any(old_ids < 0):
        raise ValueError("X contains ids outside the host graph")
    mask = np.zeros(g.n, dtype=bool)
    mask[old_ids] = True
    new_of_old = np.full(g.n, -1, dtype=np.int64)
    new_of_old[old_ids] = np.arange(len(old_ids))
    keep = mask[g.edge_u] & mask[g.edge_v]
    eu = new_of_old[g.edge_u[keep]]
    ev = new_of_old[g.edge_v[keep]]
    ew = None if g.edge_w is None else g.edge_w[keep]
    sub = Graph(len(old_ids), np.stack([eu, ev], axis=1) if len(eu) else [],
                vertex_weight=g.vertex_weight[old_ids].tolist(),
                edge_weight=None if ew is None else ew.tolist())
    mapping = {int(o): int(new_of_old[o]) for o in old_ids}
    return sub, mapping


def connected_components(g: Graph) -> list[VertexSet]:
    """Maximal connected vertex sets, ordered by smallest contained id."""
    if g.n == 0:
        return []
    ncomp, labels = csgraph.connected_components(g.csr(), directed=False)
    out: list[list[int]] = [[] for _ in range(ncomp)]
    for v, lab in enumerate(labels.tolist()):
        out[lab].append(v)
    out.sort(key=lambda vs: vs[0])
    return [VertexSet(vs) for vs in out]


def component_labels(g: Graph) -> tuple[int, np.ndarray]:
    if g.n == 0:
        return 0, np.empty(0, dtype=np.int64)
    ncomp, labels = csgraph.connected_components(g.csr(), directed=False)
    return ncomp, labels


def total_weight(g: Graph, xs: VertexSet) -> int:
    """Exact integer sum of vertex weights over X."""
    if len(xs) == 0:
        return 0
    ids = np.asarray(xs.ids(), dtype=np.int64)
    if np.any(ids >= g.n):
        raise ValueError("X contains ids outside the host graph")
    return int(g.vertex_weight[ids].sum())


DENSITY_POLICIES = ("mader-proven", "thomason-soft")   # guard order: the sound proof first


def sparsity_guard(g: Graph, h: int, policy: str = "mader-proven") -> Optional[DensityCertificate]:
    """None (pass) iff m <= threshold_fn(policy, h, n); else a certificate."""
    thr = density_threshold(policy, h, g.n)
    if g.m > thr:
        return DensityCertificate(n=g.n, m=g.m, h=h, threshold=thr, policy=policy)
    return None
