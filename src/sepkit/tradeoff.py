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

from . import debugcheck
from .certificates import (
    MinorReport,
    MinorWitness,
    SepOrMinor,
    Separator,
    density_result,
    find_connecting_edge,
)
from .graph import Graph, VertexSet, gather_neighbors, masked_components
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
    members: list[np.ndarray]   # original vertex ids per quotient vertex


def partition_spanning_tree(parent: np.ndarray, order: np.ndarray, target: int,
                            degree_cap: int) -> TreePartition:
    """Linear-time bottom-up tree partition into connected classes of at most
    `target` vertices.

    A subtree is carved whenever its residual size reaches the internal
    threshold z = ceil(target / degree_cap); with maximum degree at most
    degree_cap a carved class has between z and 1 + degree_cap*(z-1) <= target
    vertices, so the class count is at most n/z plus one leftover per root.
    `order` must list parents before children (the BFS visit order).
    """
    n = len(parent)
    if degree_cap < 1:
        raise ValueError("degree_cap must be >= 1")
    z = max(1, math.ceil(target / degree_cap))
    residual = np.ones(n, dtype=np.int64)
    carve = np.zeros(n, dtype=bool)
    for v in order[::-1].tolist():
        if residual[v] >= z:
            carve[v] = True
            residual[v] = 0
        p = parent[v]
        if p >= 0:
            residual[p] += residual[v]
    # top-down labeling: each vertex joins its parent's class unless carved
    sub = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in order.tolist():
        p = parent[v]
        if carve[v] or p < 0 or sub[p] < 0:
            sub[v] = next_id
            next_id += 1
        else:
            sub[v] = sub[p]
    return TreePartition(parent=parent, subtree_of=sub, count=next_id)


def tree_partition(g: Graph, live_ids: np.ndarray, target: int,
                   degree_cap: int) -> TreePartition:
    """Spanning-tree partition of the subgraph induced by live_ids.

    Raises if a live vertex exceeds the degree cap (the caller removes
    high-degree vertices first).
    """
    mask = np.zeros(g.n, dtype=bool)
    mask[live_ids] = True
    parent = np.full(g.n, -1, dtype=np.int64)
    seenq: list[int] = []
    seen = np.zeros(g.n, dtype=bool)
    for root in live_ids.tolist():
        if seen[root]:
            continue
        seen[root] = True
        frontier = np.asarray([root], dtype=np.int64)
        seenq.append(root)
        while len(frontier):
            nbrs = gather_neighbors(g.indptr, g.indices, frontier)
            src = np.repeat(frontier, g.indptr[frontier + 1] - g.indptr[frontier])
            keep = mask[nbrs] & ~seen[nbrs]
            nbrs, src = nbrs[keep], src[keep]
            if len(nbrs) == 0:
                break
            uniq, first = np.unique(nbrs, return_index=True)
            parent[uniq] = src[first]
            seen[uniq] = True
            seenq.extend(uniq.tolist())
            frontier = uniq
    order = np.asarray(seenq, dtype=np.int64)
    degs = (g.indptr[live_ids + 1] - g.indptr[live_ids])
    if len(degs) and int(degs.max()) > degree_cap:
        raise ValueError("degree cap violated inside tree_partition")
    tp = partition_spanning_tree(parent, order, target, degree_cap)
    if debugcheck.enabled():
        sizes = np.bincount(tp.subtree_of[live_ids], minlength=tp.count)
        debugcheck.check("tradeoff.piece-size",
                         int(sizes.max(initial=1)) <= target + degree_cap,
                         f"a subtree exceeds target+cap = {target}+{degree_cap}")
    return tp


def contract_by_partition(g: Graph, live_ids: np.ndarray, tp: TreePartition) -> QuotientGraph:
    """Quotient of G[live] by the subtree classes (simple graph, summed weights)."""
    label = np.full(g.n, -1, dtype=np.int64)
    label[live_ids] = tp.subtree_of[live_ids]
    keep = (label[g.edge_u] >= 0) & (label[g.edge_v] >= 0)
    qu = label[g.edge_u[keep]]
    qv = label[g.edge_v[keep]]
    inter = qu != qv
    qu, qv = qu[inter], qv[inter]
    nq = tp.count
    weights = np.zeros(nq, dtype=np.int64)
    np.add.at(weights, label[live_ids], g.vertex_weight[live_ids])
    quotient = Graph(nq, np.stack([qu, qv], axis=1) if len(qu) else [],
                     vertex_weight=weights.tolist())
    members: list[np.ndarray] = [np.empty(0, np.int64)] * nq
    orderv = np.argsort(label[live_ids], kind="stable")
    sorted_ids = live_ids[orderv]
    sorted_lab = label[sorted_ids]
    starts = np.searchsorted(sorted_lab, np.arange(nq))
    ends = np.searchsorted(sorted_lab, np.arange(nq), side="right")
    for q in range(nq):
        members[q] = sorted_ids[starts[q]:ends[q]]
    return QuotientGraph(graph=quotient, members=members)


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
        from .certificates import separator_from_cut_mask

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
        cmask = smask.copy()
        amask = np.zeros(n, dtype=bool)
        bmask = np.zeros(n, dtype=bool)
        for q in inner.C:
            cmask[quo.members[q]] = True
        for q in inner.A:
            amask[quo.members[q]] = True
        for q in inner.B:
            bmask[quo.members[q]] = True
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
        from .certificates import trim_separator_mask

        cmask, amask, bmask = trim_separator_mask(g, cmask, amask, bmask)
        sep = Separator(C=VertexSet.from_mask(cmask), A=VertexSet.from_mask(amask),
                        B=VertexSet.from_mask(bmask), claimed_bound=claimed, params=params)
        return sep
    if isinstance(inner, MinorWitness):
        lifted = _lift_witness(g, quo, inner)
        lifted.params = params
        return lifted
    if isinstance(inner, MinorReport):
        inner.params = {**inner.params, **params, "on": "quotient"}
        return inner
    return inner


def _tradeoff_claimed(n: int, dval: float, lnn: float, s_count: int) -> int:
    # lifted separator <= quotient bound * contraction class size + |S|
    return min(n, math.ceil(600 * n ** dval * lnn) + s_count + 2)


def _lift_witness(g: Graph, quo: QuotientGraph, wtn: MinorWitness) -> MinorWitness:
    """Expand quotient branch sets to their original vertex sets."""
    sets = []
    for bs in wtn.branch_sets:
        ids = np.concatenate([quo.members[q] for q in bs]) if len(bs) else np.empty(0, np.int64)
        sets.append(VertexSet(np.unique(ids).tolist()))
    out = MinorWitness(branch_sets=sets, depth_bound=None)
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            e = find_connecting_edge(g, sets[i], sets[j])
            if e is not None:
                out.connecting_edges[(i, j)] = e
    return out


def linear_time_separator(g: Graph, h: int, eps: float, seed: int = 0,
                          stats: Optional[dict] = None) -> SepOrMinor:
    """Trade-off instantiation at delta = 4/5 + eps (clamped below 1)."""
    dval = min(0.8 + eps, 0.99)
    out = tradeoff_separator(g, h, dval, eps, seed, stats=stats)
    if isinstance(out, Separator):
        out.params["algorithm"] = "linear-time"
    return out
