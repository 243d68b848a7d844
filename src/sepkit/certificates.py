"""Certificates for algorithm outputs, their verifiers, and exact small-case oracles.

Every algorithm in this package returns a SepOrMinor whose payload can be
re-checked against the input graph without trusting the producer:

* Separator      -- (A, B, C) partition with no A-B edge and exact balance.
* MinorWitness   -- h disjoint connected branch sets with all pairwise edges.
* MinorReport    -- existence claim backed by a density certificate only.

The brute-force oracles define ground truth on small instances and are
guarded: exceeding the size guard is a hard error, never a silent truncation.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Union

import numpy as np

from .graph import (
    DENSITY_POLICIES,
    DensityCertificate,
    Graph,
    MaskedSubgraph,
    gather_neighbors,
    masked_components,
    sparsity_guard,
)


# Each side of a separator weighs at most this share of w(V).
BALANCE_C = Fraction(2, 3)


def exceeds_balance(w: int, total: int) -> bool:
    """Whether weight w is more than BALANCE_C of total, in exact integers."""
    return w * BALANCE_C.denominator > BALANCE_C.numerator * total


def _no_ids() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


# Every vertex set below is an int64 array of ids, ascending and without
# repeats; a parsed certificate may break that, and its verifier reports it.
@dataclass(eq=False)
class Separator:
    """Balanced vertex separator certificate: C splits the rest into A and B.

    The defaults give the separator of the empty graph.
    """

    C: np.ndarray = field(default_factory=_no_ids)
    A: np.ndarray = field(default_factory=_no_ids)
    B: np.ndarray = field(default_factory=_no_ids)
    balance_c: Fraction = BALANCE_C
    claimed_bound: Optional[int] = None
    params: dict = field(default_factory=dict)


@dataclass(eq=False)
class MinorWitness:
    """K_h-minor witness: disjoint connected branch sets, pairwise joined."""

    branch_sets: list[np.ndarray]
    depth_bound: Optional[int] = None
    connecting_edges: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    @property
    def h(self) -> int:
        return len(self.branch_sets)


@dataclass
class MinorReport:
    """Existence claim without branch sets, carrying the density certificate."""

    certificate: DensityCertificate
    params: dict = field(default_factory=dict)


SepOrMinor = Union[Separator, MinorWitness, MinorReport]


@dataclass
class VerifyReport:
    ok: bool
    violations: list[tuple[str, str]] = field(default_factory=list)

    @staticmethod
    def from_violations(violations: list[tuple[str, str]]) -> "VerifyReport":
        return VerifyReport(ok=not violations, violations=violations)


class OracleGuardError(ValueError):
    """An oracle was invoked outside its guarded instance-size range."""


# -- separator verification --------------------------------------------------


def verify_separator(g: Graph, s: Separator) -> VerifyReport:
    """Check the Separator invariants, each side at most BALANCE_C of w(V),
    and |C| <= claimed_bound.  Pure."""
    v: list[tuple[str, str]] = []
    n = g.n
    # range first: out-of-range ids are reported and then left out of the
    # partition count (where a repeated id fails), the masks and the weights
    sides = []
    for part in (s.A, s.B, s.C):
        ids = np.asarray(part, dtype=np.int64)
        out = (ids < 0) | (ids >= n)
        for x in np.sort(ids[out]).tolist():
            v.append(("sep.range", f"vertex {x} outside 0..{n - 1}"))
        sides.append(ids[~out])
    a_ids, b_ids, _ = sides
    counts = np.bincount(np.concatenate(sides), minlength=n)
    if np.any(counts != 1):
        bad = np.flatnonzero(counts != 1)[:5].tolist()
        v.append(("sep.partition", f"A,B,C do not partition V (e.g. vertices {bad})"))
    amask = np.zeros(n, dtype=bool)
    amask[a_ids] = True
    bmask = np.zeros(n, dtype=bool)
    bmask[b_ids] = True
    cross = amask[g.edge_u] & bmask[g.edge_v] | bmask[g.edge_u] & amask[g.edge_v]
    if np.any(cross):
        i = int(np.flatnonzero(cross)[0])
        v.append(("sep.crossing-edge", f"edge ({int(g.edge_u[i])},{int(g.edge_v[i])}) joins A and B"))
    # the balance is the fixed 2/3, not the one the certificate states
    if s.balance_c != BALANCE_C:
        v.append(("sep.balance-c", f"balance_c={s.balance_c}, expected {BALANCE_C}"))
    wv = int(g.total_vertex_weight)
    # a side is weighed as a set: a repeated id is a partition fault only
    for name, mask in (("A", amask), ("B", bmask)):
        wpart = int(g.vertex_weight[mask].sum())
        if exceeds_balance(wpart, wv):
            v.append(("sep.balance", f"w({name})={wpart} exceeds {BALANCE_C} of w(V)={wv}"))
    if s.claimed_bound is not None and len(s.C) > s.claimed_bound:
        v.append(("sep.bound", f"|C|={len(s.C)} exceeds claimed bound {s.claimed_bound}"))
    return VerifyReport.from_violations(v)


def verify_minor_witness(g: Graph, wtn: MinorWitness, h: Optional[int] = None) -> VerifyReport:
    """Check disjointness, connectivity, pairwise edges, optional diameter bound.

    Each branch set's diameter search is capped at depth_bound: it stops once
    the set is shown to be no deeper, and a set that is deeper is reported
    with its exact diameter."""
    v: list[tuple[str, str]] = []
    if h is not None and wtn.h != h:
        v.append(("minor.count", f"witness has {wtn.h} branch sets, expected {h}"))
    sets = [np.asarray(bs, dtype=np.int64) for bs in wtn.branch_sets]
    # range first, before any id indexes an array
    for ids in sets:
        bad = ids[(ids < 0) | (ids >= g.n)]
        if len(bad):
            v.append(("minor.range", f"vertex {int(bad.min())} outside graph"))
            return VerifyReport.from_violations(v)
    # every occurrence of a vertex past its first is a reuse, whether in a
    # later set or repeated within one
    cat = np.concatenate(sets) if sets else _no_ids()
    owner = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    reused = np.ones(len(cat), dtype=bool)
    reused[np.unique(cat, return_index=True)[1]] = False
    for i in np.unique(owner[reused]).tolist():
        dup = np.unique(cat[reused & (owner == i)])[:5].tolist()
        v.append(("minor.disjoint", f"branch set {i} reuses vertices {dup}"))
    # the sets as sets (sorted, distinct) for connectivity and the pair edges
    sets = [np.unique(ids) for ids in sets]
    for i, ids in enumerate(sets):
        if len(ids) == 0:
            v.append(("minor.empty", f"branch set {i} is empty"))
            continue
        # capped at the bound, the search names the exact diameter of a set
        # past it; with no bound, cap |S| makes it a connectivity check
        cap = len(ids) if wtn.depth_bound is None else wtn.depth_bound
        diam = MaskedSubgraph(g, ids).diameter(cap)
        if diam is None:
            v.append(("minor.connected", f"branch set {i} is not connected"))
        elif wtn.depth_bound is not None and diam > wtn.depth_bound:
            v.append(("minor.depth", f"branch set {i} has diameter {diam} > bound {wtn.depth_bound}"))
    members = [set(ids.tolist()) for ids in sets]
    for i, j in combinations(range(wtn.h), 2):
        edge = wtn.connecting_edges.get((i, j)) or wtn.connecting_edges.get((j, i))
        if edge is None:
            if find_connecting_edge(g, sets[i], sets[j]) is None:
                v.append(("minor.pair", f"no edge joins branch sets {i} and {j}"))
            continue
        a, b = edge
        if not (0 <= a < g.n and 0 <= b < g.n and g.has_edge(a, b)):
            v.append(("minor.pair-edge", f"recorded edge ({a},{b}) for pair ({i},{j}) not in G"))
            continue
        if not ((a in members[i] and b in members[j]) or (b in members[i] and a in members[j])):
            v.append(("minor.pair-edge", f"edge ({a},{b}) does not join branch sets {i} and {j}"))
    return VerifyReport.from_violations(v)


def verify_minor_report(g: Graph, rep: MinorReport) -> VerifyReport:
    """Re-check the density certificate's arithmetic and its size against g.

    The certificate may describe a derived graph (a subgraph or contraction
    of g), which can be neither larger nor denser than g; a certificate with
    g's own n must carry g's own m.
    """
    cert = rep.certificate
    v: list[tuple[str, str]] = []
    # the threshold (2^(h-2) n / 2 for mader-proven) costs time exponential
    # in h, so it is recomputed only for h <= n <= g.n: no graph on n
    # vertices has a K_h minor for h > n, and neither policy fires there
    if cert.n > g.n:
        v.append(("report.n", f"certificate n={cert.n} but graph has n={g.n}"))
    elif cert.h > cert.n:
        v.append(("report.h", f"certificate h={cert.h} exceeds its n={cert.n}"))
    elif not cert.recheck():
        v.append(("report.threshold", "certificate threshold does not recompute"))
    if cert.m > g.m or (cert.n == g.n and cert.m != g.m):
        v.append(("report.m", f"certificate m={cert.m} but graph has m={g.m}"))
    elif cert.m > cert.n * (cert.n - 1) // 2:
        v.append(("report.m", f"certificate m={cert.m} exceeds n(n-1)/2 for n={cert.n}"))
    return VerifyReport.from_violations(v)


def verify_output(g: Graph, result: SepOrMinor) -> VerifyReport:
    """Dispatch to the matching verifier for any SepOrMinor variant."""
    if isinstance(result, Separator):
        return verify_separator(g, result)
    if isinstance(result, MinorWitness):
        return verify_minor_witness(g, result)
    if isinstance(result, MinorReport):
        return verify_minor_report(g, result)
    raise TypeError(f"not a SepOrMinor: {result!r}")


def find_connecting_edge(g: Graph, a: np.ndarray, b: np.ndarray) -> Optional[tuple[int, int]]:
    """The first edge (u, w) with u in `a` and w in `b`, or None.

    Both sets are sorted id arrays.  The smaller set (`a` on a tie) is
    scanned in ascending order, each vertex's neighbors in ascending order,
    and each neighbor is looked up in the other set by binary search.
    """
    small, other = (a, b) if len(a) <= len(b) else (b, a)
    if len(other) == 0:
        return None
    nbrs = gather_neighbors(g.indptr, g.indices, small)
    at = np.minimum(np.searchsorted(other, nbrs), len(other) - 1)
    hits = np.flatnonzero(other[at] == nbrs)
    if len(hits) == 0:
        return None
    slot = int(hits[0])
    ends = np.cumsum(g.indptr[small + 1] - g.indptr[small])
    u, w = int(small[np.searchsorted(ends, slot, side="right")]), int(nbrs[slot])
    return (u, w) if small is a else (w, u)


# -- minor-side results -------------------------------------------------------


def density_result(g: Graph, h: int, params: dict) -> Optional[SepOrMinor]:
    """Run the density guard and report: None when g passes every policy.

    The first policy that fires decides the result: real branch sets when the
    exact small-instance oracle applies (n <= 10, h <= 4) and finds them,
    else a MinorReport carrying the certificate.
    """
    for policy in DENSITY_POLICIES:
        cert = sparsity_guard(g, h, policy)
        if cert is None:
            continue
        if g.n <= 10 and h <= 4:
            wtn = brute_force_minor_detect(g, h)
            if wtn is not None:
                wtn.params = dict(params)
                return wtn
        return MinorReport(certificate=cert, params=params)
    return None


def minor_witness(g: Graph, sets: list, edges: Optional[dict[tuple[int, int], tuple[int, int]]] = None,
                  depth_bound: Optional[int] = None, params: Optional[dict] = None) -> MinorWitness:
    """The K_h-minor witness on branch sets `sets` (host ids, each sorted).

    Each pair (i, j), i < j, keeps its edge in `edges` or gets the first
    connecting edge found; a pair with none is left for the verifier.
    """
    bsets = [np.asarray(ids, dtype=np.int64) for ids in sets]
    edges = dict(edges or {})
    for i, j in combinations(range(len(bsets)), 2):
        if (i, j) not in edges:
            e = find_connecting_edge(g, bsets[i], bsets[j])
            if e is not None:
                edges[(i, j)] = e
    return MinorWitness(branch_sets=bsets, depth_bound=depth_bound, connecting_edges=edges,
                        params={} if params is None else params)


def lift_minor(result: SepOrMinor, verts: np.ndarray) -> SepOrMinor:
    """A result on G[verts] (local id i is host id verts[i]) in host ids.

    Witnesses are translated; reports carry no vertex ids and pass through.
    """
    if isinstance(result, MinorWitness):
        return MinorWitness(
            branch_sets=[verts[bs] for bs in result.branch_sets],
            depth_bound=result.depth_bound,
            connecting_edges={k: (int(verts[a]), int(verts[b]))
                              for k, (a, b) in result.connecting_edges.items()},
            params=result.params)
    return result


# -- A/B packing -------------------------------------------------------------


def pack_components(g: Graph, cmask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partition the components of G - C into sides A, B with exact balance.

    Greedy largest-first packing; succeeds whenever every component weighs at
    most BALANCE_C * w(V), which the calling algorithms guarantee.  Returns
    the sides as n-entry masks (amask, bmask).
    """
    n = g.n
    amask = np.zeros(n, dtype=bool)
    bmask = np.zeros(n, dtype=bool)
    sub_ids, ncomp, labels = masked_components(g, ~cmask)
    if len(sub_ids) == 0:
        return amask, bmask
    wloc = g.vertex_weight[sub_ids]
    comp_w = np.zeros(ncomp, dtype=np.int64)
    np.add.at(comp_w, labels, wloc)
    order = np.argsort(-comp_w, kind="stable")
    wv = int(g.total_vertex_weight)
    side = np.zeros(ncomp, dtype=np.int8)
    wa = wb = 0
    for c in order.tolist():
        if wa <= wb:
            side[c] = 0
            wa += int(comp_w[c])
        else:
            side[c] = 1
            wb += int(comp_w[c])
    if exceeds_balance(wa, wv) or exceeds_balance(wb, wv):
        raise ValueError("component packing failed: a residual component is too heavy")
    asel = side[labels] == 0
    amask[sub_ids[asel]] = True
    bmask[sub_ids[~asel]] = True
    return amask, bmask


def trim_separator_mask(g: Graph, cmask: np.ndarray, amask: np.ndarray, bmask: np.ndarray):
    """Greedily move separator vertices into a side they exclusively touch.

    Walking C once in ascending id order, a vertex with no neighbor in B
    joins A (and symmetrically) when the exact balance budget allows.  One
    pass reaches the fixpoint: A, B and their weights only grow, so a vertex
    refused once would be refused again.  The result is a valid separator
    with the same or smaller C.
    """
    wv = int(g.total_vertex_weight)
    wa = int(g.vertex_weight[amask].sum())
    wb = int(g.vertex_weight[bmask].sum())
    cmask = cmask.copy()
    amask = amask.copy()
    bmask = bmask.copy()
    cids = np.flatnonzero(cmask)
    k = len(cids)
    nbrs = gather_neighbors(g.indptr, g.indices, cids)
    row = np.repeat(np.arange(k), g.indptr[cids + 1] - g.indptr[cids])
    touch_a = np.zeros(k, dtype=bool)
    touch_a[row[amask[nbrs]]] = True
    touch_b = np.zeros(k, dtype=bool)
    touch_b[row[bmask[nbrs]]] = True
    # each C vertex's neighbors in C, as positions in cids
    inc = cmask[nbrs]
    cn = np.searchsorted(cids, nbrs[inc]).tolist()
    ptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(row[inc], minlength=k), out=ptr[1:])
    ptr = ptr.tolist()
    ta, tb = touch_a.tolist(), touch_b.tolist()
    to_a, to_b = [], []
    for i, w in enumerate(g.vertex_weight[cids].tolist()):
        if not tb[i] and not exceeds_balance(wa + w, wv):
            wa += w
            to_a.append(i)
            touched = ta
        elif not ta[i] and not exceeds_balance(wb + w, wv):
            wb += w
            to_b.append(i)
            touched = tb
        else:
            continue
        for j in cn[ptr[i]:ptr[i + 1]]:
            touched[j] = True
    moved_a, moved_b = cids[to_a], cids[to_b]
    cmask[moved_a] = False
    cmask[moved_b] = False
    amask[moved_a] = True
    bmask[moved_b] = True
    return cmask, amask, bmask


def separator_from_cut_mask(g: Graph, cmask: np.ndarray, claimed_bound: Optional[int] = None,
                            params: Optional[dict] = None) -> Separator:
    """The separator of a cut: G - C packed into two sides, then trimmed."""
    am, bm = pack_components(g, cmask)
    cmask, am, bm = trim_separator_mask(g, cmask, am, bm)
    return Separator(C=np.flatnonzero(cmask), A=np.flatnonzero(am), B=np.flatnonzero(bm),
                     claimed_bound=claimed_bound, params=params or {})


# -- brute-force oracles ------------------------------------------------------


def brute_force_min_separator(g: Graph) -> Optional[Separator]:
    """Exact minimum balanced separator by subset enumeration (n <= 16)."""
    n = g.n
    if n > 16:
        raise OracleGuardError(f"brute_force_min_separator guarded to n <= 16, got {n}")
    if n == 0:
        return Separator(claimed_bound=0)
    wv = int(g.total_vertex_weight)
    verts = list(range(n))
    adj = [set(g.neighbors(v).tolist()) for v in verts]
    wt = g.vertex_weight.tolist()

    def try_cut(cset: tuple[int, ...]) -> Optional[Separator]:
        inc = [v for v in verts if v not in cset]
        comp_of = {}
        comps: list[list[int]] = []
        for v in inc:
            if v in comp_of:
                continue
            comp = [v]
            comp_of[v] = len(comps)
            stack = [v]
            while stack:
                u = stack.pop()
                for x in adj[u]:
                    if x not in cset and x not in comp_of:
                        comp_of[x] = len(comps)
                        comp.append(x)
                        stack.append(x)
            comps.append(comp)
        weights = [sum(wt[v] for v in c) for c in comps]
        if any(exceeds_balance(w, wv) for w in weights):
            return None
        # pack: try all 2^k splits (k <= n), smallest-first keeps it quick
        k = len(comps)
        order = sorted(range(k), key=lambda i: -weights[i])
        assign = [0] * k

        def place(i: int, wa: int, wb: int) -> bool:
            if i == k:
                return True
            c = order[i]
            for s, w_side in ((0, wa), (1, wb)):
                neww = w_side + weights[c]
                if not exceeds_balance(neww, wv):
                    assign[c] = s
                    if place(i + 1, neww if s == 0 else wa, neww if s == 1 else wb):
                        return True
            return False

        if not place(0, 0, 0):
            return None
        a = [v for v in inc if assign[comp_of[v]] == 0]
        b = [v for v in inc if assign[comp_of[v]] == 1]
        return Separator(np.array(cset, dtype=np.int64), np.array(a, dtype=np.int64),
                         np.array(b, dtype=np.int64), BALANCE_C, len(cset))

    for size in range(0, n + 1):
        for cset in combinations(verts, size):
            sep = try_cut(cset)
            if sep is not None:
                return sep
    return None


def _connected_masks(adj_mask: list[int], n: int) -> list[int]:
    """All vertex subsets (as bitmasks) inducing a connected subgraph."""
    out = []
    for m in range(1, 1 << n):
        low = m & -m
        seen = low
        frontier = low
        while frontier:
            nxt = 0
            mm = frontier
            while mm:
                b = mm & -mm
                mm ^= b
                nxt |= adj_mask[b.bit_length() - 1]
            nxt &= m & ~seen
            seen |= nxt
            frontier = nxt
        if seen == m:
            out.append(m)
    return out


def brute_force_minor_detect(g: Graph, h: int) -> Optional[MinorWitness]:
    """Exhaustive K_h-minor search over connected branch-set candidates.

    Guarded to n <= 10 and h <= 4.  Returns a witness iff one exists.
    """
    n = g.n
    if n > 10 or h > 4:
        raise OracleGuardError(f"brute_force_minor_detect guarded to n <= 10, h <= 4 (got n={n}, h={h})")
    if h < 1 or n == 0:
        return None
    adj_mask = [0] * n
    for u in range(n):
        for v in g.neighbors(u).tolist():
            adj_mask[u] |= 1 << v
    cands = _connected_masks(adj_mask, n)
    nbr_of_mask: dict[int, int] = {}

    def nbrs(m: int) -> int:
        got = nbr_of_mask.get(m)
        if got is None:
            acc = 0
            mm = m
            while mm:
                b = mm & -mm
                mm ^= b
                acc |= adj_mask[b.bit_length() - 1]
            got = acc & ~m
            nbr_of_mask[m] = got
        return got

    chosen: list[int] = []

    def rec(start_idx: int, used: int) -> bool:
        if len(chosen) == h:
            return True
        for idx in range(start_idx, len(cands)):
            m = cands[idx]
            if m & used:
                continue
            if any(not (nbrs(m) & c) for c in chosen):
                continue
            chosen.append(m)
            # canonical form: branch sets enumerated in increasing mask order
            if rec(idx + 1, used | m):
                return True
            chosen.pop()
        return False

    if not rec(0, 0):
        return None
    wtn = minor_witness(g, [[i for i in range(n) if m >> i & 1] for m in chosen])
    assert len(wtn.connecting_edges) == h * (h - 1) // 2
    return wtn


# -- serialization -------------------------------------------------------------


def certificate_to_json(result: SepOrMinor) -> str:
    """Canonical JSON for any SepOrMinor (sorted keys, sets as sorted arrays)."""

    def frac(f: Fraction) -> list[int]:
        return [f.numerator, f.denominator]

    if isinstance(result, Separator):
        doc = {
            "kind": "separator",
            "C": result.C.tolist(),
            "A": result.A.tolist(),
            "B": result.B.tolist(),
            "balance_c": frac(result.balance_c),
            "claimed_bound": result.claimed_bound,
            "params": result.params,
        }
    elif isinstance(result, MinorWitness):
        doc = {
            "kind": "minor_witness",
            "h": result.h,
            "branch_sets": [bs.tolist() for bs in result.branch_sets],
            "depth_bound": result.depth_bound,
            "connecting_edges": {f"{i},{j}": [a, b] for (i, j), (a, b) in sorted(result.connecting_edges.items())},
            "params": result.params,
        }
    elif isinstance(result, MinorReport):
        doc = {
            "kind": "minor_report",
            "certificate": asdict(result.certificate),
            "params": result.params,
        }
    else:
        raise TypeError(f"not a SepOrMinor: {result!r}")
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


_INT64 = np.iinfo(np.int64)


def _json_ids(value, where: str) -> list[int]:
    """A certificate's list of vertex ids, each a JSON integer (not a bool)
    within the int64 range."""
    if not isinstance(value, list):
        raise ValueError(f"certificate field {where} is not a list of vertex ids")
    for x in value:
        if type(x) is not int:
            raise ValueError(f"certificate field {where} holds {json.dumps(x)}, not an integer vertex id")
        if not _INT64.min <= x <= _INT64.max:
            raise ValueError(f"certificate field {where} holds {x}, outside the 64-bit id range")
    return value


def _json_int(value, where: str) -> int:
    """A certificate's integer field: a JSON integer, not a bool."""
    if type(value) is not int:
        raise ValueError(f"certificate field {where} holds {json.dumps(value)}, not an integer")
    return value


def _json_bound(doc: dict, key: str) -> Optional[int]:
    """An optional bound: a JSON integer, or null or absent for none."""
    value = doc.get(key)
    return None if value is None else _json_int(value, key)


def _json_set(value, where: str) -> np.ndarray:
    """A certificate's vertex set: its ids sorted, repeats kept for the verifier."""
    return np.sort(np.array(_json_ids(value, where), dtype=np.int64))


def _json_field(doc, key: str, where: str = ""):
    """doc[key] of a certificate object; ValueError naming the field when doc
    is not an object or lacks it."""
    name = f"{where}.{key}" if where else key
    if not isinstance(doc, dict):
        raise ValueError(f"certificate {where or 'document'} is not a JSON object")
    if key not in doc:
        raise ValueError(f"certificate field {name} is missing")
    return doc[key]


_EDGE_KEY = re.compile(r"(-?[0-9]+),(-?[0-9]+)")


def _json_edges(value) -> dict[tuple[int, int], tuple[int, int]]:
    """A witness's connecting edges: an object mapping "i,j" integer pairs to
    [a, b] pairs of vertex ids."""
    if not isinstance(value, dict):
        raise ValueError("certificate field connecting_edges is not a JSON object")
    edges = {}
    for key, pair in value.items():
        ij = _EDGE_KEY.fullmatch(key)
        if ij is None:
            raise ValueError(f"certificate field connecting_edges has key {key!r}, "
                             "not an \"i,j\" integer pair")
        where = f"connecting_edges[{key!r}]"
        if len(_json_ids(pair, where)) != 2:
            raise ValueError(f"certificate field {where} is not a pair of vertex ids")
        edges[(int(ij[1]), int(ij[2]))] = tuple(pair)
    return edges


def certificate_from_json(text: str) -> SepOrMinor:
    """Parse a certificate; a document that is not an object, a missing
    field, a vertex id, bound or report count that is not a JSON integer, or
    connecting edges that are not "i,j" keys on id pairs raise ValueError
    naming the field."""
    doc = json.loads(text)
    kind = _json_field(doc, "kind")
    if kind == "separator":
        bc = _json_field(doc, "balance_c")
        if not (isinstance(bc, list) and len(bc) == 2 and all(type(x) is int for x in bc)
                and bc[1] != 0):
            raise ValueError("certificate field balance_c is not a [num, den] integer pair")
        return Separator(
            C=_json_set(_json_field(doc, "C"), "C"), A=_json_set(_json_field(doc, "A"), "A"),
            B=_json_set(_json_field(doc, "B"), "B"),
            balance_c=Fraction(*bc), claimed_bound=_json_bound(doc, "claimed_bound"),
            params=doc.get("params", {}),
        )
    if kind == "minor_witness":
        return MinorWitness(
            branch_sets=[_json_set(bs, f"branch_sets[{i}]")
                         for i, bs in enumerate(_json_field(doc, "branch_sets"))],
            depth_bound=_json_bound(doc, "depth_bound"),
            connecting_edges=_json_edges(doc.get("connecting_edges", {})),
            params=doc.get("params", {}),
        )
    if kind == "minor_report":
        c = _json_field(doc, "certificate")
        counts = {f: _json_int(_json_field(c, f, "certificate"), f"certificate.{f}")
                  for f in ("n", "m", "h", "threshold")}
        return MinorReport(certificate=DensityCertificate(
            **counts, policy=_json_field(c, "policy", "certificate")), params=doc.get("params", {}))
    raise ValueError(f"unknown certificate kind {kind!r}")
