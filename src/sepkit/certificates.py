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
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Union

import numpy as np

from .graph import (
    DENSITY_POLICIES,
    DensityCertificate,
    Graph,
    MaskedSubgraph,
    VertexSet,
    any_edge_between,
    masked_components,
    masked_diameter,
    sparsity_guard,
)


# Each side of a separator weighs at most this share of w(V).
BALANCE_C = Fraction(2, 3)


@dataclass
class Separator:
    """Balanced vertex separator certificate: C splits the rest into A and B."""

    C: VertexSet
    A: VertexSet
    B: VertexSet
    balance_c: Fraction = BALANCE_C
    claimed_bound: Optional[int] = None
    params: dict = field(default_factory=dict)


@dataclass
class MinorWitness:
    """K_h-minor witness: disjoint connected branch sets, pairwise joined."""

    branch_sets: list[VertexSet]
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


SepOrMinor = Union[Separator, MinorWitness, MinorReport, DensityCertificate]


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
    # range first, on each side's sorted ids: out-of-range ids are reported
    # and then left out of the partition count, the masks and the weights
    sides = []
    for part in (s.A, s.B, s.C):
        ids = part.ids()
        lo, hi = bisect_left(ids, 0), bisect_left(ids, n)
        for x in ids[:lo] + ids[hi:]:
            v.append(("sep.range", f"vertex {x} outside 0..{n - 1}"))
        sides.append(np.array(ids[lo:hi], dtype=np.int64))
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
    num, den = BALANCE_C.numerator, BALANCE_C.denominator
    for name, ids in (("A", a_ids), ("B", b_ids)):
        wpart = int(g.vertex_weight[ids].sum())
        if wpart * den > num * wv:
            v.append(("sep.balance", f"w({name})={wpart} exceeds {BALANCE_C} of w(V)={wv}"))
    if s.claimed_bound is not None and len(s.C) > s.claimed_bound:
        v.append(("sep.bound", f"|C|={len(s.C)} exceeds claimed bound {s.claimed_bound}"))
    return VerifyReport.from_violations(v)


def verify_minor_witness(g: Graph, wtn: MinorWitness, h: Optional[int] = None) -> VerifyReport:
    """Check disjointness, connectivity, pairwise edges, optional diameter bound."""
    v: list[tuple[str, str]] = []
    if h is not None and wtn.h != h:
        v.append(("minor.count", f"witness has {wtn.h} branch sets, expected {h}"))
    # range first, on the sorted ids, before any of them indexes an array
    for bs in wtn.branch_sets:
        ids = bs.ids()
        if ids and (ids[0] < 0 or ids[-1] >= g.n):
            x = ids[0] if ids[0] < 0 else ids[bisect_left(ids, g.n)]
            v.append(("minor.range", f"vertex {x} outside graph"))
            return VerifyReport.from_violations(v)
    sets = [np.asarray(bs.ids(), dtype=np.int64) for bs in wtn.branch_sets]
    # a vertex is reused where it sits in a later set than its first one
    cat = np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
    owner = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    first = np.full(g.n, -1, dtype=np.int64)
    uniq, at = np.unique(cat, return_index=True)
    first[uniq] = owner[at]
    reused = first[cat] != owner
    for i in np.unique(owner[reused]).tolist():
        dup = np.sort(cat[reused & (owner == i)])[:5].tolist()
        v.append(("minor.disjoint", f"branch set {i} reuses vertices {dup}"))
    for i, ids in enumerate(sets):
        if len(ids) == 0:
            v.append(("minor.empty", f"branch set {i} is empty"))
            continue
        if wtn.depth_bound is None:  # no bound to check: connectivity only
            diam = 0 if MaskedSubgraph(g, ids).components()[0] == 1 else None
        else:
            diam = masked_diameter(g, ids)
        if diam is None:
            v.append(("minor.connected", f"branch set {i} is not connected"))
        elif wtn.depth_bound is not None and diam > wtn.depth_bound:
            v.append(("minor.depth", f"branch set {i} has diameter {diam} > bound {wtn.depth_bound}"))
    for i, j in combinations(range(wtn.h), 2):
        edge = wtn.connecting_edges.get((i, j)) or wtn.connecting_edges.get((j, i))
        if edge is None:
            if not any_edge_between(g, sets[i], sets[j]):
                v.append(("minor.pair", f"no edge joins branch sets {i} and {j}"))
            continue
        a, b = edge
        if not (0 <= a < g.n and 0 <= b < g.n and g.has_edge(a, b)):
            v.append(("minor.pair-edge", f"recorded edge ({a},{b}) for pair ({i},{j}) not in G"))
            continue
        if not ((a in wtn.branch_sets[i] and b in wtn.branch_sets[j])
                or (b in wtn.branch_sets[i] and a in wtn.branch_sets[j])):
            v.append(("minor.pair-edge", f"edge ({a},{b}) does not join branch sets {i} and {j}"))
    return VerifyReport.from_violations(v)


def _density_violations(g: Graph, cert: DensityCertificate, rule: str) -> list[tuple[str, str]]:
    """Re-check a density certificate's arithmetic and its size against g.

    The certificate may describe a derived graph (a subgraph or contraction
    of g), which can be neither larger nor denser than g; a certificate with
    g's own n must carry g's own m.
    """
    v: list[tuple[str, str]] = []
    if not cert.recheck():
        v.append((f"{rule}.threshold", "certificate threshold does not recompute"))
    if cert.n > g.n:
        v.append((f"{rule}.n", f"certificate n={cert.n} but graph has n={g.n}"))
    if cert.m > g.m or (cert.n == g.n and cert.m != g.m):
        v.append((f"{rule}.m", f"certificate m={cert.m} but graph has m={g.m}"))
    elif cert.m > cert.n * (cert.n - 1) // 2:
        v.append((f"{rule}.m", f"certificate m={cert.m} exceeds n(n-1)/2 for n={cert.n}"))
    return v


def verify_minor_report(g: Graph, rep: MinorReport) -> VerifyReport:
    """Re-check the density certificate against the graph it names."""
    return VerifyReport.from_violations(_density_violations(g, rep.certificate, "report"))


def verify_output(g: Graph, result: SepOrMinor) -> VerifyReport:
    """Dispatch to the matching verifier for any SepOrMinor variant."""
    if isinstance(result, Separator):
        return verify_separator(g, result)
    if isinstance(result, MinorWitness):
        return verify_minor_witness(g, result)
    if isinstance(result, MinorReport):
        return verify_minor_report(g, result)
    if isinstance(result, DensityCertificate):
        return VerifyReport.from_violations(_density_violations(g, result, "density"))
    raise TypeError(f"not a SepOrMinor: {result!r}")


def find_connecting_edge(g: Graph, a: VertexSet, b: VertexSet) -> Optional[tuple[int, int]]:
    small, other = (a, b) if len(a) <= len(b) else (b, a)
    for u in small:
        for w in g.neighbors(u).tolist():
            if w in other:
                return (u, w) if small is a else (w, u)
    return None


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
    bsets = [VertexSet(np.asarray(ids).tolist()) for ids in sets]
    edges = dict(edges or {})
    for i, j in combinations(range(len(bsets)), 2):
        if (i, j) not in edges:
            e = find_connecting_edge(g, bsets[i], bsets[j])
            if e is not None:
                edges[(i, j)] = e
    return MinorWitness(branch_sets=bsets, depth_bound=depth_bound, connecting_edges=edges,
                        params={} if params is None else params)


def witness_from_slots(g: Graph, branch_slots: list[Optional[np.ndarray]],
                       pair_edges: dict[tuple[int, int], tuple[int, int]],
                       params: dict) -> MinorWitness:
    """The clique-minor witness held by a separator loop's branch-set slots.

    Retired slots (None) are skipped and the rest renumbered in slot order.
    Each pair keeps its recorded edge (pair_edges is keyed by slot pair);
    depth_bound is the largest branch-set diameter.
    """
    slots = [si for si, bs in enumerate(branch_slots) if bs is not None]
    remap = {si: i for i, si in enumerate(slots)}
    edges = {tuple(sorted((remap[a], remap[b]))): e
             for (a, b), e in pair_edges.items() if a in remap and b in remap}
    depth = max((masked_diameter(g, branch_slots[si]) or 0 for si in slots), default=0)
    return minor_witness(g, [branch_slots[si] for si in slots], edges, depth, params)


def lift_minor(result: SepOrMinor, verts: np.ndarray) -> SepOrMinor:
    """A result on G[verts] (local id i is host id verts[i]) in host ids.

    Witnesses are translated; reports carry no vertex ids and pass through.
    """
    if isinstance(result, MinorWitness):
        return MinorWitness(
            branch_sets=[VertexSet(verts[np.asarray(bs.ids(), dtype=np.int64)].tolist())
                         for bs in result.branch_sets],
            depth_bound=result.depth_bound,
            connecting_edges={k: (int(verts[a]), int(verts[b]))
                              for k, (a, b) in result.connecting_edges.items()},
            params=result.params)
    return result


# -- A/B packing -------------------------------------------------------------


def pack_components(g: Graph, cmask: np.ndarray) -> tuple[VertexSet, VertexSet]:
    """Partition the components of G - C into sides A, B with exact balance.

    Greedy largest-first packing; succeeds whenever every component weighs at
    most BALANCE_C * w(V), which the calling algorithms guarantee.
    """
    n = g.n
    sub_ids, ncomp, labels = masked_components(g, ~cmask)
    if len(sub_ids) == 0:
        return VertexSet(), VertexSet()
    wloc = g.vertex_weight[sub_ids]
    comp_w = np.zeros(ncomp, dtype=np.int64)
    np.add.at(comp_w, labels, wloc)
    order = np.argsort(-comp_w, kind="stable")
    wv = int(g.total_vertex_weight)
    num, den = BALANCE_C.numerator, BALANCE_C.denominator
    side = np.zeros(ncomp, dtype=np.int8)
    wa = wb = 0
    for c in order.tolist():
        if wa <= wb:
            side[c] = 0
            wa += int(comp_w[c])
        else:
            side[c] = 1
            wb += int(comp_w[c])
    if wa * den > num * wv or wb * den > num * wv:
        raise ValueError("component packing failed: a residual component is too heavy")
    amask = np.zeros(n, dtype=bool)
    bmask = np.zeros(n, dtype=bool)
    asel = side[labels] == 0
    amask[sub_ids[asel]] = True
    bmask[sub_ids[~asel]] = True
    return VertexSet.from_mask(amask), VertexSet.from_mask(bmask)


def trim_separator_mask(g: Graph, cmask: np.ndarray, amask: np.ndarray, bmask: np.ndarray):
    """Greedily move separator vertices into a side they exclusively touch.

    A vertex of C with no neighbor in B may join A (and symmetrically) when
    the exact balance budget allows; repeated passes run to a fixpoint.  The
    result is a valid separator with the same or smaller C.
    """
    num, den = BALANCE_C.numerator, BALANCE_C.denominator
    wv = int(g.total_vertex_weight)
    wa = int(g.vertex_weight[amask].sum())
    wb = int(g.vertex_weight[bmask].sum())
    cmask = cmask.copy()
    amask = amask.copy()
    bmask = bmask.copy()
    changed = True
    while changed:
        changed = False
        for v in np.flatnonzero(cmask).tolist():
            nb = g.neighbors(v)
            touches_a = bool(amask[nb].any())
            touches_b = bool(bmask[nb].any())
            w = int(g.vertex_weight[v])
            if not touches_b and (wa + w) * den <= num * wv:
                cmask[v] = False
                amask[v] = True
                wa += w
                changed = True
            elif not touches_a and (wb + w) * den <= num * wv:
                cmask[v] = False
                bmask[v] = True
                wb += w
                changed = True
    return cmask, amask, bmask


def separator_from_cut_mask(g: Graph, cmask: np.ndarray, claimed_bound: Optional[int] = None,
                            params: Optional[dict] = None) -> Separator:
    """The separator of a cut: G - C packed into two sides, then trimmed."""
    a, b = pack_components(g, cmask)
    am, bm = a.to_mask(g.n), b.to_mask(g.n)
    del a, b  # freed before the trimmed sides are built: they hold every vertex
    cmask, am, bm = trim_separator_mask(g, cmask, am, bm)
    return Separator(C=VertexSet.from_mask(cmask), A=VertexSet.from_mask(am),
                     B=VertexSet.from_mask(bm), claimed_bound=claimed_bound,
                     params=params or {})


# -- brute-force oracles ------------------------------------------------------


def brute_force_min_separator(g: Graph) -> Optional[Separator]:
    """Exact minimum balanced separator by subset enumeration (n <= 16)."""
    n = g.n
    if n > 16:
        raise OracleGuardError(f"brute_force_min_separator guarded to n <= 16, got {n}")
    if n == 0:
        return Separator(VertexSet(), VertexSet(), VertexSet(), BALANCE_C, 0)
    wv = int(g.total_vertex_weight)
    num, den = BALANCE_C.numerator, BALANCE_C.denominator
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
        if any(w * den > num * wv for w in weights):
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
                if neww * den <= num * wv:
                    assign[c] = s
                    if place(i + 1, neww if s == 0 else wa, neww if s == 1 else wb):
                        return True
            return False

        if not place(0, 0, 0):
            return None
        a = [v for v in inc if assign[comp_of[v]] == 0]
        b = [v for v in inc if assign[comp_of[v]] == 1]
        return Separator(VertexSet(cset), VertexSet(a), VertexSet(b), BALANCE_C, len(cset))

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
            "C": list(result.C.ids()),
            "A": list(result.A.ids()),
            "B": list(result.B.ids()),
            "balance_c": frac(result.balance_c),
            "claimed_bound": result.claimed_bound,
            "params": result.params,
        }
    elif isinstance(result, MinorWitness):
        doc = {
            "kind": "minor_witness",
            "h": result.h,
            "branch_sets": [list(bs.ids()) for bs in result.branch_sets],
            "depth_bound": result.depth_bound,
            "connecting_edges": {f"{i},{j}": [a, b] for (i, j), (a, b) in sorted(result.connecting_edges.items())},
            "params": result.params,
        }
    elif isinstance(result, MinorReport):
        doc = {
            "kind": "minor_report",
            "certificate": _density_doc(result.certificate),
            "params": result.params,
        }
    elif isinstance(result, DensityCertificate):
        doc = {"kind": "density", **_density_doc(result)}
    else:
        raise TypeError(f"not a SepOrMinor: {result!r}")
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _density_doc(cert: DensityCertificate) -> dict:
    return {"n": cert.n, "m": cert.m, "h": cert.h, "threshold": cert.threshold, "policy": cert.policy}


def certificate_from_json(text: str) -> SepOrMinor:
    doc = json.loads(text)
    kind = doc["kind"]
    if kind == "separator":
        num, den = doc["balance_c"]
        return Separator(
            C=VertexSet(doc["C"]), A=VertexSet(doc["A"]), B=VertexSet(doc["B"]),
            balance_c=Fraction(num, den), claimed_bound=doc.get("claimed_bound"),
            params=doc.get("params", {}),
        )
    if kind == "minor_witness":
        edges = {}
        for key, (a, b) in doc.get("connecting_edges", {}).items():
            i, j = key.split(",")
            edges[(int(i), int(j))] = (a, b)
        return MinorWitness(
            branch_sets=[VertexSet(bs) for bs in doc["branch_sets"]],
            depth_bound=doc.get("depth_bound"),
            connecting_edges=edges,
            params=doc.get("params", {}),
        )
    if kind == "minor_report":
        c = doc["certificate"]
        return MinorReport(certificate=DensityCertificate(
            n=c["n"], m=c["m"], h=c["h"], threshold=c["threshold"], policy=c["policy"]),
            params=doc.get("params", {}))
    if kind == "density":
        return DensityCertificate(n=doc["n"], m=doc["m"], h=doc["h"],
                                  threshold=doc["threshold"], policy=doc["policy"])
    raise ValueError(f"unknown certificate kind {kind!r}")
