"""Contraction-based trade-off separator and the near-linear-time instantiation.

High-degree vertices (degree above h * n^(1-delta)) are removed first; if that
alone balances the graph it is the separator.  Otherwise a spanning tree of
the heavy component is partitioned into small subtrees, the components they
induce are contracted into a weighted quotient graph, and the bootstrapped
balanced separator runs on the quotient.  Quotient separator components lift
back to their original vertex sets; the high-degree set joins the separator
outright.  A minor witness found on the quotient lifts through the
contraction mapping (a minor of a minor is a minor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix

from . import debugcheck
from .certificates import (
    MinorReport,
    MinorWitness,
    SepOrMinor,
    Separator,
    density_result,
    minor_witness,
    separator_from_cut_mask,
    trim_separator_mask,
)
from .graph import (
    Graph,
    HostSubgraph,
    LevelBFS,
    VertexSet,
    masked_components,
)
from .minorfree import balanced_separator
from .shallow import ln_ceil

SUBTREE_COUNT_COEFF = 4  # c_F in the subtree-count bound c_F * h^4 * n^(1-eps')


@dataclass
class TreePartition:
    """Vertex-disjoint connected subtrees of a spanning tree."""

    parent: np.ndarray          # tree parent per vertex (-1 at roots)
    subtree_of: np.ndarray      # subtree index per vertex
    count: int


@dataclass
class QuotientGraph:
    """Contraction of tree-partition classes with summed vertex weights."""

    graph: Graph
    label: np.ndarray           # quotient vertex per original vertex (-1 outside live)

    @property
    def members(self) -> list[np.ndarray]:
        """Original vertex ids per quotient vertex, ascending."""
        ids = np.flatnonzero(self.label >= 0)
        ids = ids[np.argsort(self.label[ids], kind="stable")]
        ends = np.cumsum(np.bincount(self.label[ids], minlength=self.graph.n))
        return np.split(ids, ends[:-1]) if self.graph.n else []

    def lift(self, qids) -> np.ndarray:
        """Mask of the original vertices in the classes qids."""
        # one entry past the quotient vertices stays False: label -1 reads it
        sel = np.zeros(self.graph.n + 1, dtype=bool)
        sel[np.fromiter(qids, dtype=np.int64)] = True
        return sel[self.label]


def partition_spanning_tree(parent: np.ndarray, order: np.ndarray, target: int,
                            degree_cap: int) -> TreePartition:
    """Linear-time bottom-up tree partition into connected classes of at most
    `target` vertices.

    A subtree is carved whenever its residual size reaches the internal
    threshold z = ceil(target / degree_cap); with maximum degree at most
    degree_cap a carved class has between z and 1 + degree_cap*(z-1) <= target
    vertices, so the class count is at most n/z plus one leftover per root.
    `order` must list parents before children (the BFS visit order); vertices
    not in it belong to no class (-1).

    The residuals are carved level by level, deepest first, with depths from
    `parent` by pointer doubling.  The classes are numbered in `order`: a
    carved vertex or a root opens the next class, and every other vertex
    joins its parent's, level by level from the top.
    """
    n = len(parent)
    if degree_cap < 1:
        raise ValueError("degree_cap must be >= 1")
    z = max(1, math.ceil(target / degree_cap))
    order = np.asarray(order, dtype=np.int64)
    depth = _tree_depths(parent)[order]
    by_depth = order[np.argsort(depth, kind="stable")]
    up = parent[by_depth]
    ends = np.cumsum(np.bincount(depth)).tolist()
    spans = list(zip([0] + ends[:-1], ends))[1:]  # (lo, hi) in by_depth per depth >= 1
    # residual[v] is final once the level below v is done; a carved
    # subtree passes nothing up
    residual = np.ones(n, dtype=np.int64)
    for lo, hi in reversed(spans):
        r = residual[by_depth[lo:hi]]
        r[r >= z] = 0
        np.add.at(residual, up[lo:hi], r)
    opens = (residual[order] >= z) | (parent[order] < 0)
    count = int(opens.sum())
    sub = np.full(n, -1, dtype=np.int64)
    sub[order[opens]] = np.arange(count)
    for lo, hi in spans:
        vs = by_depth[lo:hi]
        own = sub[vs]
        sub[vs] = np.where(own >= 0, own, sub[up[lo:hi]])
    return TreePartition(parent=parent, subtree_of=sub, count=count)


def _tree_depths(parent: np.ndarray) -> np.ndarray:
    """The number of ancestors of each vertex of a forest, by pointer doubling."""
    n = len(parent)
    # depth[v] counts the steps from v to up[v]; a root points to itself
    up = np.where(parent >= 0, parent, np.arange(n)).astype(np.int32)
    depth = (parent >= 0).astype(np.int32)
    while True:
        depth += depth[up]
        nxt = up[up]
        if np.array_equal(nxt, up):
            return depth
        up = nxt


def tree_partition(g: Graph, live_ids: np.ndarray, target: int,
                   degree_cap: int) -> TreePartition:
    """Spanning-tree partition of the subgraph induced by live_ids (ascending).

    The spanning forest is breadth-first from the smallest id of each
    component: the parent of a vertex is its smallest-id neighbor one level
    up, and the visit order runs component by component (by smallest id),
    level by level, and by id within a level.  Raises if a live vertex
    exceeds the degree cap (the caller removes high-degree vertices first).
    """
    degs = (g.indptr[live_ids + 1] - g.indptr[live_ids])
    if len(degs) and int(degs.max()) > degree_cap:
        raise ValueError("degree cap violated inside tree_partition")
    parent = np.full(g.n, -1, dtype=np.int64)
    order = np.empty(0, dtype=np.int64)
    if len(live_ids):
        mask = np.zeros(g.n, dtype=bool)
        mask[live_ids] = True
        lv_live, comp = _forest_levels(g, mask, live_ids)
        order = live_ids[np.lexsort((lv_live, comp))]
        lv = np.full(g.n, -1, dtype=np.int32)
        lv[live_ids] = lv_live
        # the slots of the host CSR that lead one level up; rows come in
        # order and sorted within, so a row's first is its smallest id
        row_lv = np.repeat(lv, g.degrees())
        up = (lv[g.indices] == row_lv - 1) & (row_lv > 0)
        rows = np.repeat(np.arange(g.n, dtype=np.int32), g.degrees())[up]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        parent[rows[first]] = g.indices[up][first]
    tp = partition_spanning_tree(parent, order, target, degree_cap)
    if debugcheck.enabled():
        sizes = np.bincount(tp.subtree_of[live_ids], minlength=tp.count)
        debugcheck.check("tradeoff.piece-size",
                         int(sizes.max(initial=1)) <= target + degree_cap,
                         f"a subtree exceeds target+cap = {target}+{degree_cap}")
    return tp


def _forest_levels(g: Graph, mask: np.ndarray,
                   live_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The BFS level of each live id from the smallest id of its component,
    and its component's label (numbered in order of smallest id), in one
    search: from that id when G[mask] is connected, else from a virtual
    vertex n joined to the smallest id of every component."""
    sub = HostSubgraph(g, mask)
    bfs = sub.bfs(int(live_ids[0]))
    if len(bfs.order) == len(live_ids):
        return bfs.levels(live_ids), np.zeros(len(live_ids), dtype=np.int64)
    _, labels = sub.components()
    comp = labels[live_ids]
    roots = live_ids[np.unique(comp, return_index=True)[1]].astype(np.int32)
    mat = sub.mat
    indptr = np.append(mat.indptr, mat.nnz + len(roots)).astype(np.int32)
    sup = csr_matrix((np.ones(mat.nnz + len(roots)), np.concatenate([mat.indices, roots]),
                      indptr), shape=(g.n + 1, g.n + 1))
    return LevelBFS(sup, g.n).levels(live_ids) - 1, comp


def contract_by_partition(g: Graph, live_ids: np.ndarray, tp: TreePartition) -> QuotientGraph:
    """Quotient of G[live] by the subtree classes (simple graph, summed weights)."""
    label = np.full(g.n, -1, dtype=np.int64)
    label[live_ids] = tp.subtree_of[live_ids]
    keep = (label[g.edge_u] >= 0) & (label[g.edge_v] >= 0)
    qu = label[g.edge_u[keep]]
    qv = label[g.edge_v[keep]]
    inter = qu != qv
    qu, qv = qu[inter], qv[inter]
    weights = np.zeros(tp.count, dtype=np.int64)
    np.add.at(weights, label[live_ids], g.vertex_weight[live_ids])
    quotient = Graph(tp.count, np.stack([qu, qv], axis=1) if len(qu) else [],
                     vertex_weight=weights)
    return QuotientGraph(graph=quotient, label=label)


def tradeoff_separator(g: Graph, h: int, delta: Fraction | float, eps: float,
                       seed: int = 0, stats: Optional[dict] = None) -> SepOrMinor:
    """Separator of size O~(n^delta) for 3/4 <= delta < 1, or minor evidence."""
    dval = float(delta)
    if not (0.75 <= dval < 1.0):
        raise ValueError("delta must lie in [3/4, 1)")
    if h < 2:
        raise ValueError("h must be >= 2")
    n = g.n
    params = {"h": h, "delta": dval, "eps": eps, "seed": seed, "algorithm": "tradeoff"}
    if n == 0:
        return Separator(VertexSet(), VertexSet(), VertexSet(), claimed_bound=0, params=params)
    dense = density_result(g, h, params)
    if dense is not None:
        return dense
    wtotal = g.total_vertex_weight
    lnn = ln_ceil(n)
    cap = max(1, math.ceil(h * n ** (1.0 - dval)))
    degs = g.degrees()
    smask = degs > cap
    s_ids = np.flatnonzero(smask)
    params["high_degree_removed"] = int(len(s_ids))

    # is S alone already a separator?
    rest = ~smask
    rest_ids, ncomp, rest_labels = masked_components(g, rest)
    labels = np.full(n, -1, dtype=np.int64)
    labels[rest_ids] = rest_labels
    comp_w = np.zeros(max(ncomp, 1), dtype=np.int64)
    np.add.at(comp_w, rest_labels, g.vertex_weight[rest_ids])
    heavy = int(np.argmax(comp_w)) if ncomp else -1
    if ncomp == 0 or 3 * int(comp_w[heavy]) <= 2 * wtotal:
        claimed = _tradeoff_claimed(n, dval, lnn, len(s_ids))
        params["path"] = "high-degree-only"
        return separator_from_cut_mask(g, smask, claimed_bound=claimed, params=params)

    live_ids = np.flatnonzero(rest & (labels == heavy))
    eps_prime = 4 * dval - 3
    target = max(1, math.ceil(n ** (eps_prime + 1.0 - dval) / h ** 3))
    tp = tree_partition(g, live_ids, target, cap)
    if debugcheck.enabled():
        bound = SUBTREE_COUNT_COEFF * h ** 4 * n ** (1.0 - eps_prime) + 1
        debugcheck.check("tradeoff.subtree-count", tp.count <= bound,
                         f"{tp.count} subtrees exceed c_F h^4 n^(1-eps') = {bound:.0f}")
    quo = contract_by_partition(g, live_ids, tp)
    params["quotient_n"] = quo.graph.n
    params["quotient_m"] = quo.graph.m
    inner = balanced_separator(quo.graph, h, eps, seed, stats=stats)
    if isinstance(inner, Separator):
        cmask = smask | quo.lift(inner.C)
        amask = quo.lift(inner.A)
        bmask = quo.lift(inner.B)
        # other components of G - S pack greedily alongside the lifted sides
        placed = cmask | amask | bmask
        leftovers = np.flatnonzero(~placed)
        if len(leftovers):
            lab_left = labels[leftovers]
            wa = int(g.vertex_weight[amask].sum())
            wb = int(g.vertex_weight[bmask].sum())
            for comp in np.unique(lab_left).tolist():
                vids = leftovers[lab_left == comp]
                wc = int(g.vertex_weight[vids].sum())
                if wa <= wb:
                    amask[vids] = True
                    wa += wc
                else:
                    bmask[vids] = True
                    wb += wc
        claimed = _tradeoff_claimed(n, dval, lnn, len(s_ids))
        cmask, amask, bmask = trim_separator_mask(g, cmask, amask, bmask)
        sep = Separator(C=VertexSet.from_mask(cmask), A=VertexSet.from_mask(amask),
                        B=VertexSet.from_mask(bmask), claimed_bound=claimed, params=params)
        return sep
    if isinstance(inner, MinorWitness):
        # expand each quotient branch set to its original vertex set
        return minor_witness(g, [np.flatnonzero(quo.lift(bs)) for bs in inner.branch_sets],
                             params=params)
    if isinstance(inner, MinorReport):
        inner.params = {**inner.params, **params, "on": "quotient"}
        return inner


def _tradeoff_claimed(n: int, dval: float, lnn: float, s_count: int) -> int:
    # lifted separator <= quotient bound * contraction class size + |S|
    return min(n, math.ceil(600 * n ** dval * lnn) + s_count + 2)


def linear_time_separator(g: Graph, h: int, eps: float, seed: int = 0,
                          stats: Optional[dict] = None) -> SepOrMinor:
    """Trade-off instantiation at delta = 4/5 + eps (clamped below 1)."""
    dval = min(0.8 + eps, 0.99)
    out = tradeoff_separator(g, h, dval, eps, seed, stats=stats)
    if isinstance(out, Separator):
        out.params["algorithm"] = "linear-time"
    return out
