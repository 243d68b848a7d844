"""Largest-clique-minor approximation by recursive separator application.

For a candidate h the balanced shallow separator either certifies a K_h minor
(witness recorded, candidate raised) or yields a separator, in which case the
search recurses on the components of G - C; K3 and K4 are decided exactly.
The candidate h is driven by doubling followed by binary search, and the
largest verified witness wins.  The approximation factor of the underlying
reduction is inherited, not re-derived; the result records the factor
formula instance for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .certificates import MinorWitness, Separator, lift_minor, minor_witness
from .graph import Graph, induced_subgraph, masked_components, split_by_label
from .shallow import ln_ceil, shallow_separator_balanced
from .small_minors import find_k3_witness, find_k4_witness


@dataclass
class ApproxMinorResult:
    witness: MinorWitness
    h_found: int
    ratio_claim: dict = field(default_factory=dict)


def _attempt(g: Graph, h: int, eps: float, seed: int, depth: int = 0) -> Optional[MinorWitness]:
    """Find a K_h witness in g (h >= 3, unit weights) or give up (None).

    K3 and K4 are decided exactly (cycle / series-parallel reduction); larger
    candidates run the balanced shallow separator and, on a separator, search
    each component of G - C that can hold h branch sets.  A graph with fewer
    than h(h-1)/2 edges, one per pair of branch sets, has no K_h minor and
    is skipped; a component of G - C is counted before it is built.
    """
    if g.n < h or g.m < h * (h - 1) // 2 or depth > 64:
        return None
    if h == 3:
        return find_k3_witness(g)
    if h == 4:
        return find_k4_witness(g)
    out = shallow_separator_balanced(g, h, eps, seed)
    if isinstance(out, MinorWitness):
        return out
    if not isinstance(out, Separator) or len(out.C) >= g.n:
        return None
    # pieces in order of smallest id, each piece's host ids ascending
    rest = np.ones(g.n, dtype=bool)
    rest[out.C] = False
    ids, ncomp, labels = masked_components(g, rest)
    # each piece's edge count from the labels, so sparse pieces are never built
    label_of = np.full(g.n, -1, dtype=np.int64)
    label_of[ids] = labels
    lu, lv = label_of[g.edge_u], label_of[g.edge_v]
    piece_m = np.bincount(lu[(lu >= 0) & (lv >= 0)], minlength=ncomp).tolist()
    for verts, m in zip(split_by_label(ids, labels, ncomp), piece_m):
        if not h <= len(verts) < g.n or m < h * (h - 1) // 2:
            continue
        piece, _ = induced_subgraph(g, verts)
        got = _attempt(piece, h, eps, seed, depth + 1)
        if got is not None:
            return replace(lift_minor(got, verts), params={})
    return None


def approx_largest_clique_minor(g: Graph, eps: float = 0.5, seed: int = 0) -> ApproxMinorResult:
    """Largest verified clique minor found by doubling plus binary search."""
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    if g.m == 0:
        wtn = minor_witness(g, [[0]], depth_bound=0)
        return ApproxMinorResult(witness=wtn, h_found=1, ratio_claim=_ratio(g.n))
    # h = 2 always: any edge
    best = minor_witness(g, [[int(g.edge_u[0])], [int(g.edge_v[0])]], depth_bound=0)
    best_h = 2
    # no attempt reads a weight: all of them run on one unit-weight copy
    unit = Graph(g.n, np.stack([g.edge_u, g.edge_v], axis=1))
    h = 4
    last_fail = None
    while h <= g.n:
        got = _attempt(unit, h, eps, seed)
        if got is None:
            last_fail = h
            break
        best, best_h = got, h
        h *= 2
    if last_fail is None:
        last_fail = h  # exceeded n
    lo, hi = best_h, last_fail
    while hi - lo > 1:
        mid = (lo + hi) // 2
        got = _attempt(unit, mid, eps, seed)
        if got is None:
            hi = mid
        else:
            best, best_h, lo = got, mid, mid
    return ApproxMinorResult(witness=best, h_found=best_h, ratio_claim=_ratio(g.n))


def _ratio(n: int) -> dict:
    lnn = ln_ceil(n)
    return {"formula": "sqrt(n) * (ln n)^(3/2)",
            "value": math.sqrt(n) * lnn ** 1.5}
