"""Iterative shallow-minor separator: tree-or-cut primitive and the main loop.

The loop maintains a four-way partition (V_r, M, B, V') of the vertex set.
M is spanned by p <= h branch sets forming a K_p minor of bounded depth; each
iteration either grows p (a shallow tree is adopted), retires a branch set
whose neighborhood left the working component, or moves a low-expansion chunk
S' from V' to V_r with its boundary B' into B.  The working component G' is
the heaviest component of G[live].  Ball growth runs on G[live] itself, so a
cut's boundary B' = N(S') - S' lies at distance 1 from S'.

The source analysis grows balls in a decremental (2k-1)-spanner of G' so
that they cost n^(1+1/k) rather than m.  Here the loop runs only after the
density guard, which leaves m <= 4 h sqrt(ln h) n, and the spanner's size
target 4 k n^(1+1/k) then admits every edge unless h sqrt(ln h) > k n^(1/k);
so the loop skips the spanner (Baswana-Sen, JACM 2007, for that regime).

Each iteration searches G[live] once.  G[live] is built once per call over
host ids, and at the top of each iteration `HostSubgraph.restrict` edits out
the vertices that left live since the last one, at the degree of those
vertices: every step that takes ids out of live (an adopted set, S' and
B', the parked components) records them in `PartitionState.dropped`.  One
breadth-first search (`LevelBFS`) runs from the least live neighbor of the
first branch set, or else the first live vertex.  When it reaches every
live vertex, or more than half the live weight, its component is G' and
that vertex is where tree-or-cut starts, so the same search grows the
balls.  Only otherwise are the components labelled, and a second search
runs if that vertex was parked.  In BFS order the vertices come level by
level, so ball(d), the number of vertices within distance d, is the start
of level d + 1, found on demand by one array read per level.  For exact-BFS
balls N^delta(ball(x)) = ball(x + delta), so the growth and stall conditions
are comparisons of level starts and the cut S is a prefix of the BFS order.
A tree follows predecessors from each representative back to the start; the
predecessor of v is its largest-id live neighbor one level closer, found
only for the vertices on those paths.  So an iteration pays for its one
`breadth_first_order` call and for the queries it makes: the search's
position index is built only when a level is asked for, and the parking
step reads the live weight off its running total when the search reached
every live vertex.

The branch sets, an n-entry `owner` array (the slot of each vertex of M, -1
elsewhere; it makes M's mask for the separator) and the pair edges are one
`BranchLedger`, the same one the bootstrapped loop and its DDG layer use.
Each step that concerns the branch sets runs once over all p of them, with
a fixed number of numpy calls whatever p is.  The A_i (the live neighbors of each branch set) come
from one gather of the rows of every held set, deduplicated as one sorted
array of (set, vertex) keys, before parking: the least vertex of A_1 is
where the search for G' starts, and the vertices parked are then dropped
from the keys.  The first set left with no key is the one retired.
The representative of each A_i, its vertex nearest to the start with ties
to the lowest id, comes from one `levels` call on the concatenated sets.
When a tree is adopted, each representative's pair edge is its least
neighbor that `owner` puts in its branch set, from one gather of the
representatives' rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np
# perfbench's trace-uninstall test reads this module attribute
from scipy.sparse import csr_matrix  # noqa: F401

from . import debugcheck
from .certificates import (
    MinorWitness,
    SepOrMinor,
    Separator,
    density_result,
    exceeds_balance,
    find_connecting_edge,
    lift_minor,
    minor_witness,
    separator_from_cut_mask,
)
from .graph import (
    DENSITY_POLICIES,
    Graph,
    HostSubgraph,
    LevelBFS,
    MaskedSubgraph,
    density_threshold,
    gather_neighbors,
    gather_rows,
    grow_within,
    induced_subgraph,
)

# Invariant constants, all functions of delta = 2*ceil(2/eps) - 1.  A raw
# tree-or-cut tree has depth <= 4*delta*ell*ln n and at most p paths of that
# length; the extension adds <= ell*h*ln n vertices within the same radius.
ITER_COEFF = 16           # c_it: iterations <= c_it * n / ell + 8h + 8


def branch_size_cap(delta: int, ell: int, h: int, lnn: float) -> int:
    """c_A * ell * h * ln n with c_A = 4*delta + 2 (raw tree plus extension)."""
    return int((4 * delta + 2) * ell * h * lnn) + 2


def branch_diam_cap(delta: int, ell: int, lnn: float) -> int:
    """c_D * ell * ln n with c_D = 16*delta + 4 (two radii of tree + extension)."""
    return int((16 * delta + 4) * ell * lnn) + 2


def separator_coeff(delta: int) -> int:
    """c_S in the claimed bound n/ell + c_S * ell h^2 ln n."""
    return 4 * delta + 3


def ln_ceil(n: int) -> float:
    """max(1, ln n); every logarithmic bound in this package rounds this way."""
    return max(1.0, math.log(max(n, 2)))


@dataclass
class TreeOrCutResult:
    """Tagged outcome of the ball-growing primitive."""

    kind: str                                 # "tree" | "cut"
    tree_vertices: Optional[np.ndarray] = None
    reps: Optional[list[int]] = None          # chosen representative per A_i
    cut_S: Optional[np.ndarray] = None


def tree_or_cut(h_graph: Graph, a_sets: Sequence[np.ndarray], ell: int, delta: int,
                start: int) -> TreeOrCutResult:
    """Grow a ball around `start` in steps of 2*delta until it stalls or spans.

    Returns a shallow tree hitting one representative per A_i (when the ball
    swallows start's component) or a cut S = N^delta(R) with low expansion on
    both sides.  Deterministic; ties route to the lexicographically smallest
    representative.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    for i, a in enumerate(a_sets):
        if len(a) == 0:
            raise ValueError(f"A_{i + 1} is empty; caller must filter empty sets")
    n = h_graph.n
    bfs = HostSubgraph(h_graph, np.ones(n, dtype=bool)).bfs(start)
    sizes = np.array([len(a) for a in a_sets], dtype=np.int64)
    a_ids = np.concatenate([np.empty(0, dtype=np.int64), *a_sets])
    return _tree_or_cut_from_bfs(bfs, a_ids, np.cumsum(sizes) - sizes, ell, delta, start, n)


def _tree_or_cut_from_bfs(bfs: LevelBFS, a_ids: np.ndarray, a_starts: np.ndarray, ell: int,
                          delta: int, start: int, n: int) -> TreeOrCutResult:
    """tree_or_cut from the level BFS of `start` (over host ids), with the A_i
    concatenated in a_ids, A_i starting at a_starts[i]; n is the number of
    vertices the BFS searched, which sets the logarithmic bounds."""
    comp_size = len(bfs.order)
    ball = bfs.ball  # ball(d) = |{v : dist(v) <= d}|
    rad, inner = 0, ball(0)  # inner = ball(rad)
    rounds = 0
    max_rounds = int(2 * ell * ln_ceil(n)) + 2
    while inner < comp_size:
        r2 = rad + 2 * delta
        outer = ball(r2)
        grew = ell * outer >= (ell + 1) * inner
        shrunk = (ell + 1) * (comp_size - outer) <= ell * (comp_size - inner)
        if not (grew or shrunk):
            break  # stall: cut case
        rad, inner = r2, outer
        rounds += 1
        debugcheck.check("treeorcut.rounds", rounds <= max_rounds,
                         f"{rounds} rounds exceeds 2*ell*ln(n)={max_rounds}")

    if inner == comp_size:
        # the ball spans the component: a BFS tree, pruned to one
        # representative per A_i, the nearest with ties to the lowest id
        reps = _representatives(bfs, a_ids, a_starts)
        tree: set[int] = {start}
        for v in reps:
            while v not in tree:
                tree.add(v)
                v = bfs.parent(v)
        tree_ids = np.array(sorted(tree), dtype=np.int64)
        if debugcheck.enabled():
            depth_bound = int(4 * delta * ell * ln_ceil(n)) + 1
            depth = int(bfs.levels(tree_ids).max())
            debugcheck.check("treeorcut.depth", depth <= depth_bound,
                             "tree deeper than 4*delta*ell*ln n")
        size_bound = int(4 * delta * ell * max(1, len(a_starts)) * ln_ceil(n)) + 1
        debugcheck.check("treeorcut.size", len(tree) <= size_bound,
                         f"tree size {len(tree)} exceeds {size_bound}")
        return TreeOrCutResult(kind="tree", tree_vertices=tree_ids, reps=reps)

    s_count = ball(rad + delta)  # S = N^delta(ball(rad)) = ball(rad + delta)
    if debugcheck.enabled():
        # exact condition 2a: for exact-BFS balls N^d(ball(x)) = ball(x+d)
        out_shell = ball(rad + 2 * delta) - s_count
        mn = min(s_count, comp_size - s_count)
        debugcheck.check("treeorcut.outer-expansion", ell * out_shell < mn,
                         f"|N^d(S) \\ S| = {out_shell} !< min/ell = {mn}/{ell}")
        in_shell = s_count - inner
        debugcheck.check("treeorcut.inner-expansion", ell * in_shell < mn,
                         f"|N^d(V-S) ^ S| <= {in_shell} !< min/ell = {mn}/{ell}")
    return TreeOrCutResult(kind="cut", cut_S=np.sort(bfs.order[:s_count]).astype(np.int64))


_UNREACHED = np.iinfo(np.int64).max  # the key of a vertex the search did not reach


def _representatives(bfs: LevelBFS, a_ids: np.ndarray, a_starts: np.ndarray) -> list[int]:
    """The vertex of each A_i nearest to the BFS start, ties to the lowest id.

    One `levels` call over all the sets; each vertex is keyed level * N + id
    (N the host vertex count) and the least key of each set wins.  Raises
    ValueError when some A_i has no vertex the search reached.
    """
    if len(a_starts) == 0:
        return []
    big = bfs.mat.shape[0]
    lv = bfs.levels(a_ids)
    key = np.where(lv >= 0, lv * big + a_ids, _UNREACHED)
    best = np.minimum.reduceat(key, a_starts)
    if (best == _UNREACHED).any():
        raise ValueError("an A_i set has no vertex in start's component")
    return (best % big).tolist()


def _attachments(g: Graph, sets: Sequence[np.ndarray], live: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """A_i = N(sets[i]) ^ live for every i at once, by one gather of all the
    sets' rows: parallel arrays (i, vertex) of the distinct pairs, sorted by
    i, then by vertex."""
    if len(sets) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    verts = np.concatenate(sets)
    nbrs, deg = gather_rows(g.indptr, g.indices, verts)
    rank = np.repeat(np.repeat(np.arange(len(sets)), [len(s) for s in sets]), deg)
    keep = live[nbrs]
    return np.divmod(np.unique(rank[keep] * g.n + nbrs[keep]), g.n)


def _pair_edges(g: Graph, owner: np.ndarray, reps: Sequence[int], slots: Sequence[int]
                ) -> list[tuple[int, int]]:
    """(rep, w) for each rep, with w its least neighbor that the matching
    slot owns: find_connecting_edge(g, [rep], that branch set), for all reps
    by one gather of their rows."""
    if len(reps) == 0:
        return []
    nbrs, deg = gather_rows(g.indptr, g.indices, np.asarray(reps, dtype=np.int64))
    hit = np.flatnonzero(owner[nbrs] == np.repeat(slots, deg))
    # every rep's row holds a hit, as rep lies in A_i: its first hit is the
    # first at or after the row's start
    first = hit[np.searchsorted(hit, np.cumsum(deg) - deg)]
    return list(zip(reps, nbrs[first].tolist()))


class BranchLedger:
    """The branch sets of a separator loop, kept once for the loop and the
    DDG layer: slots[i] is the i-th adopted set (sorted host ids), None once
    retired, and slots are never reused; owner[v] is the slot holding v, -1
    off every held set; pair_edges[(i, j)], i < j, is the edge between slots
    i and j recorded when j was adopted.  Only `adopt` and `retire` write
    owner."""

    def __init__(self, n: int):
        self.slots: list[Optional[np.ndarray]] = []
        self.owner = np.full(n, -1, dtype=np.int64)
        self.pair_edges: dict[tuple[int, int], tuple[int, int]] = {}

    @property
    def held(self) -> list[int]:
        """The slots not retired, ascending."""
        return [si for si, bs in enumerate(self.slots) if bs is not None]

    @property
    def p(self) -> int:
        return len(self.held)

    def adopt(self, new_set: np.ndarray, edges: Iterable[tuple[int, tuple[int, int]]]) -> int:
        """Hold new_set in a new slot, returned, with its (slot, edge) pairs."""
        slot = len(self.slots)
        for si, (a, b) in edges:
            self.pair_edges[(si, slot)] = (int(a), int(b))
        self.owner[new_set] = slot
        self.slots.append(new_set)
        return slot

    def retire(self, si: int) -> np.ndarray:
        """Drop slot si; returns its vertices."""
        bs = self.slots[si]
        self.owner[bs] = -1
        self.slots[si] = None
        return bs

    def witness(self, g: Graph, params: dict) -> MinorWitness:
        """The held slots' clique-minor witness, renumbered in slot order with
        their recorded pair edges; depth_bound is the largest diameter.

        Each set's search is capped at the largest diameter found before
        it, so a set no deeper than that stops on a bound while a deeper
        one returns its exact diameter, the new maximum."""
        held = self.held
        remap = {si: i for i, si in enumerate(held)}
        edges = {tuple(sorted((remap[a], remap[b]))): e
                 for (a, b), e in self.pair_edges.items() if a in remap and b in remap}
        depth = 0
        for si in held:
            depth = max(depth, MaskedSubgraph(g, self.slots[si]).diameter(depth) or 0)
        return minor_witness(g, [self.slots[si] for si in held], edges, depth, params)

    def check(self, g: Graph, rule: str, h: int, cap: Optional[int] = None) -> list[int]:
        """Assert, as rules `rule`.*, that at most h sets are held, that owner
        agrees with them, and that each is connected and each pair joined by
        an edge; returns each set's diameter searched with `cap`, the bound
        the caller's rule compares it with: exact above cap, else a bound of
        at most cap ([] outside debug mode).  Without cap a rule reads only
        connectivity, and each set S is searched with cap |S|: one BFS."""
        if not debugcheck.enabled():
            return []
        held = self.held
        sets = [self.slots[si] for si in held]
        debugcheck.check(f"{rule}.branch-count", len(sets) <= h, f"p={len(sets)} > h={h}")
        debugcheck.check(f"{rule}.owner",
                         int(np.count_nonzero(self.owner >= 0)) == sum(map(len, sets))
                         and all((self.owner[s] == si).all() for si, s in zip(held, sets)),
                         "owner disagrees with the branch sets")
        diams = [MaskedSubgraph(g, s).diameter(len(s) if cap is None else cap) for s in sets]
        for i, diam in enumerate(diams):
            debugcheck.check(f"{rule}.branch-connected", diam is not None,
                             f"branch set {i} disconnected")
        for i, j in combinations(range(len(sets)), 2):
            debugcheck.check(f"{rule}.branch-pair",
                             find_connecting_edge(g, sets[i], sets[j]) is not None,
                             f"no edge between branch sets {i} and {j}")
        return diams


def check_progress(g: Graph, rule: str, ell: int, in_vr: np.ndarray, in_b: np.ndarray) -> None:
    """Assert, as rules `rule`.*, that |B| <= |V_R| / ell and that V_R weighs
    at most BALANCE_C of the total."""
    debugcheck.check(f"{rule}.boundary-ratio", ell * int(in_b.sum()) <= int(in_vr.sum()),
                     f"boundary {int(in_b.sum())} exceeds processed/ell = {int(in_vr.sum())}/{ell}")
    wvr = int(g.vertex_weight[in_vr].sum())
    debugcheck.check(f"{rule}.processed-weight", not exceeds_balance(wvr, g.total_vertex_weight),
                     f"processed weight {wvr} exceeds 2/3 of total")


@dataclass
class PartitionState:
    """Four-way partition (V_r, M, B, V'), the branch sets over M in a ledger."""

    h: int
    ell: int
    delta: int
    in_vr: np.ndarray
    in_b: np.ndarray
    ledger: BranchLedger
    live: np.ndarray          # working component of G[V']
    live_n: int               # |live| and w(live), kept as running totals
    live_w: int
    # the ids taken out of live since G[live] was last restricted to it
    dropped: list[np.ndarray] = field(default_factory=list)

    def drop_live(self, g: Graph, ids: np.ndarray) -> None:
        """Take the distinct live vertices `ids` out of live."""
        self.live[ids] = False
        self.live_n -= len(ids)
        self.live_w -= int(g.vertex_weight[ids].sum())
        self.dropped.append(ids)

    def restrict_live_graph(self, g: Graph, live_g: HostSubgraph) -> None:
        """Edit live_g, G[live] as of the last call, down to G[live]."""
        live_g.restrict(np.concatenate([np.empty(0, dtype=np.int64), *self.dropped]))
        self.dropped.clear()
        if debugcheck.enabled():
            live_m = int(np.count_nonzero(self.live[g.edge_u] & self.live[g.edge_v]))
            debugcheck.check("shallow.live-mask",
                             np.array_equal(live_g.mask, self.live) and live_g.m == live_m,
                             "G[live] was not restricted to the live set")

    def check_invariants(self, g: Graph) -> None:
        """Assert the loop invariants: the ledger's, branch-set sizes and
        diameters, the boundary/processed ratio, the weight cap, and the
        partition and live totals."""
        if not debugcheck.enabled():
            return
        lnn = ln_ceil(len(self.live))
        size_cap = branch_size_cap(self.delta, self.ell, self.h, lnn)
        diam_cap = branch_diam_cap(self.delta, self.ell, lnn)
        diams = self.ledger.check(g, "shallow", self.h, diam_cap)
        for i, si in enumerate(self.ledger.held):
            size = len(self.ledger.slots[si])
            debugcheck.check("shallow.branch-size", size <= size_cap,
                             f"branch set {i}: {size} > {size_cap}")
            debugcheck.check("shallow.branch-diameter", diams[i] <= diam_cap,
                             f"branch set {i}: diameter {diams[i]} > {diam_cap}")
        check_progress(g, "shallow", self.ell, self.in_vr, self.in_b)
        overlap = (self.in_vr & self.in_b) | (self.in_vr & self.live) | (self.in_b & self.live)
        debugcheck.check("shallow.partition", not overlap.any(), "partition classes overlap")
        debugcheck.check("shallow.live-totals",
                         (self.live_n, self.live_w)
                         == (int(self.live.sum()), int(g.vertex_weight[self.live].sum())),
                         "running live count or weight drifted")


def shallow_separator(g: Graph, h: int, ell: int, eps: float, seed: int = 0,
                      stats: Optional[dict] = None, complete_witness: bool = True) -> SepOrMinor:
    """Depth-bounded K_h-minor witness or a separator of size O(n/ell + ell h^2 ln n).

    With complete_witness (the default), tree adoptions continue after the
    separator has become valid, chasing a full K_h witness; clustering-internal
    calls disable this to keep separators lean.
    """
    if h < 2:
        raise ValueError("h must be >= 2")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if not (0 < eps <= 1):
        raise ValueError("eps must be in (0, 1]")
    n = g.n
    if n == 0:
        return Separator(claimed_bound=0, params={"h": h, "ell": ell, "eps": eps, "algorithm": "shallow"})
    k = math.ceil(2 / eps)
    delta = 2 * k - 1
    lnn = ln_ceil(n)
    wtotal = g.total_vertex_weight
    params = {"h": h, "ell": ell, "eps": eps, "k": k, "delta": delta, "seed": seed,
              "algorithm": "shallow"}

    dense = density_result(g, h, params)
    if dense is not None:
        return dense

    st = PartitionState(
        h=h, ell=ell, delta=delta,
        in_vr=np.zeros(n, dtype=bool), in_b=np.zeros(n, dtype=bool),
        ledger=BranchLedger(n), live=np.ones(n, dtype=bool), live_n=n, live_w=int(wtotal),
    )
    ext_target = max(1, math.ceil(h * ell * lnn))
    ext_radius = max(1, math.ceil(4 * delta * ell * lnn))
    iters = 0
    iter_cap = ITER_COEFF * max(1, n // ell) + 8 * h + 8
    live_g = HostSubgraph(g, st.live)

    while True:
        iters += 1
        if iters > iter_cap:
            raise RuntimeError(f"shallow loop exceeded {iter_cap} iterations; this is a bug")

        # G[live], edited down to the current live set: the density recheck
        # counts its edges and every search of the iteration runs on it
        st.restrict_live_graph(g, live_g)
        live_n = st.live_n
        if live_n and any(live_g.m > density_threshold(p, h, live_n) for p in DENSITY_POLICIES):
            if stats is not None:
                stats["iterations"] = iters
            live_ids = np.flatnonzero(st.live)
            sub, _ = induced_subgraph(g, live_ids)
            return lift_minor(density_result(sub, h, params), live_ids)

        if st.ledger.p == h:
            if stats is not None:
                stats["iterations"] = iters
            wtn = st.ledger.witness(g, params)
            debugcheck.check("shallow.witness-depth",
                             wtn.depth_bound <= branch_diam_cap(delta, ell, lnn),
                             f"witness depth {wtn.depth_bound} exceeds bound")
            return wtn

        # A_i for every held slot at once; G' (the heaviest live component)
        # is searched for from the least vertex of A_1, else the first live
        # vertex, and the other components are parked
        held = st.ledger.held
        a_rank, a_ids = _attachments(g, [st.ledger.slots[si] for si in held], st.live)
        s0 = int(a_ids[0]) if len(a_ids) and a_rank[0] == 0 else int(np.argmax(st.live))
        gprime_w = _park_light_components(g, st, live_g, s0)
        if st.live_n < live_n:
            # parking took some A_i vertices out of live
            keep = st.live[a_ids]
            a_rank, a_ids = a_rank[keep], a_ids[keep]
        live_n = st.live_n

        # Once no live component is heavy, M u B is already a valid separator.
        # Branch sets may still complete to a K_h witness, so tree adoptions
        # (which only enlarge the separator side) continue in terminal mode;
        # cut moves and branch-set retirements need the heavy-component weight
        # argument and stop here.
        terminal = not exceeds_balance(gprime_w, wtotal)
        if terminal and (not held or gprime_w == 0 or not complete_witness):
            break

        st.check_invariants(g)

        # retire the first branch set cut off from G'
        a_sizes = np.bincount(a_rank, minlength=len(held))
        if held and not a_sizes.all():
            if terminal:
                break
            st.in_vr[st.ledger.retire(held[int(np.argmin(a_sizes))])] = True
            continue
        if held:
            start = int(a_ids[0])  # the least vertex of A_1
        else:
            start = int(np.argmax(st.live))  # the first live vertex

        # start lies in G', a whole component of the G[live] built before
        # parking, so a search of it from start stays in G'; it is the search
        # that found G' unless that one ran from a parked vertex
        result = _tree_or_cut_from_bfs(live_g.bfs(start), a_ids, np.cumsum(a_sizes) - a_sizes,
                                       ell, delta, start, live_n)

        if result.kind == "cut" and terminal:
            break

        if result.kind == "tree":
            tree_ids = result.tree_vertices
            room = max(1, live_n // (2 * (h - len(held))))
            target = min(ext_target, max(room, len(tree_ids)))
            new_set = grow_within(g, st.live, tree_ids, target, ext_radius)
            # each rep neighbors its branch set: its least neighbor there
            st.ledger.adopt(new_set, zip(held, _pair_edges(g, st.ledger.owner, result.reps, held)))
            st.drop_live(g, new_set)
        else:
            s_ids = result.cut_S
            w_s = int(g.vertex_weight[s_ids].sum())
            w_rest = gprime_w - w_s
            cnt_s = len(s_ids)
            cnt_rest = live_n - cnt_s
            take_s = (w_s, cnt_s, int(s_ids[0]) if cnt_s else -1) <= \
                     (w_rest, cnt_rest, _lowest_outside(st.live, s_ids))
            if take_s:
                sprime = s_ids
            else:
                smask = np.zeros(n, dtype=bool)
                smask[s_ids] = True
                sprime = np.flatnonzero(st.live & ~smask)
            spmask = np.zeros(n, dtype=bool)
            spmask[sprime] = True
            nbrs = gather_neighbors(g.indptr, g.indices, sprime)
            nbrs = nbrs[st.live[nbrs] & ~spmask[nbrs]]
            bprime = np.unique(nbrs)
            debugcheck.check("shallow.cut-boundary",
                             ell * len(bprime) < max(1, min(cnt_s, cnt_rest)),
                             f"|B'|={len(bprime)} !< min(|S|,|rest|)/ell")
            st.in_vr[sprime] = True
            st.in_b[bprime] = True
            st.drop_live(g, sprime)
            st.drop_live(g, bprime)

    st.check_invariants(g)
    if stats is not None:
        stats["iterations"] = iters
    cmask = (st.ledger.owner >= 0) | st.in_b
    claimed = min(n, math.ceil(n / ell + separator_coeff(delta) * ell * h * h * lnn) + 1)
    return separator_from_cut_mask(g, cmask, claimed_bound=claimed, params=params)


def _park_light_components(g: Graph, st: PartitionState, live_g: HostSubgraph,
                           s0: int) -> int:
    """Keep the heaviest component G' of G[live] live, park the others, and
    return w(G') (0 when nothing is live).

    G' is found by one BFS when possible: from s0, the live vertex that
    tree-or-cut will start from if it lies in G' (the least live neighbor
    of the first branch set, else the first live vertex).  A search that
    reaches every live vertex finds G' with the running live weight and
    reads only the search's order; a component holding more than half the
    live weight is the heaviest.  Otherwise (a light component there, zero
    live weight, or a tie) the components are labelled and the heaviest
    wins, ties to the one with the smallest vertex id.  The parked vertices
    leave live through `drop_live`, so the next restrict of G[live] sees
    them; only parking or labelling scans all n vertices.
    """
    if st.live_n == 0:
        return 0
    order = live_g.bfs(s0).order
    if len(order) == st.live_n:
        return st.live_w
    reach_w = int(g.vertex_weight[order].sum())
    if 2 * reach_w > st.live_w:
        reached = np.zeros(g.n, dtype=bool)
        reached[order] = True
        parked = np.flatnonzero(st.live & ~reached)
    else:
        live_ids = np.flatnonzero(st.live)
        _, labels = live_g.components()
        _, labels = np.unique(labels[live_ids], return_inverse=True)
        compw = np.zeros(int(labels.max()) + 1, dtype=np.int64)
        np.add.at(compw, labels, g.vertex_weight[live_ids])
        best = int(np.argmax(compw))  # ties: lowest label = lowest min-id
        parked = live_ids[labels != best]
    st.drop_live(g, parked)
    return st.live_w


def _lowest_outside(live: np.ndarray, s_ids: np.ndarray) -> int:
    mask = live.copy()
    mask[s_ids] = False
    out = np.flatnonzero(mask)
    return int(out[0]) if len(out) else -1


def shallow_separator_balanced(g: Graph, h: int, eps: float, seed: int = 0,
                               stats: Optional[dict] = None,
                               complete_witness: bool = True) -> SepOrMinor:
    """Balanced instantiation: ell chosen so n/ell and ell h^2 ln n match."""
    n = g.n
    if n == 0:
        return shallow_separator(g, h, 1, eps, seed, stats=stats)
    lnn = ln_ceil(n)
    ell = max(1, round(math.sqrt(n / lnn) / h))
    out = shallow_separator(g, h, ell, eps, seed, stats=stats,
                            complete_witness=complete_witness)
    if isinstance(out, Separator):
        c_s = separator_coeff(2 * math.ceil(2 / eps) - 1)
        out.claimed_bound = min(out.claimed_bound if out.claimed_bound is not None else n, n,
                                math.ceil(4 * c_s * h * math.sqrt(n * lnn)) + 1)
        out.params["algorithm"] = "shallow-balanced"
    return out
