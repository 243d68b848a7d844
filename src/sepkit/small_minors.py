"""Exact witnesses for K3 and K4 minors at any instance size.

K3: any cycle, split into three arcs.  K4: a graph has a K4 minor iff the
series-parallel reduction (delete degree <= 1, suppress degree 2, drop loops
and parallel duplicates) leaves a nonempty graph, whatever order it runs in.
To extract branch sets, the reduced core is shrunk one edge at a time in edge
id order, preferring contractions and falling back to deletions; since the
only minor-minimal graph containing a K4 minor is K4 itself, the process
always reaches an exact K4.  Each candidate edit is tested locally: it is
applied to a copy-on-write overlay of the core, and the reduction runs only
from the vertices whose degree the edit lowered, since every other vertex of
a reduced core has degree >= 3.  The chosen edit is then reduced in place,
seeded with the same vertices in ascending id order, which is the queue a
full scan would build.  Contractions and suppressions carry their underlying
paths so the final branch sets and connecting edges refer to original
vertices.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .certificates import MinorWitness
from .graph import Graph, VertexSet


def find_k3_witness(g: Graph) -> Optional[MinorWitness]:
    """Cycle-based K3 witness (three consecutive arcs), or None on forests."""
    uf = list(range(g.n))

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        ru, rv = find(u), find(v)
        if ru == rv:
            # this edge closes a cycle; recover it as path + closing edge
            cyc = _cycle_through_edge(g, u, v)
            if cyc is not None and len(cyc) >= 3:
                return _k3_from_cycle(g, cyc)
        else:
            uf[max(ru, rv)] = min(ru, rv)
    return None


def _cycle_through_edge(g: Graph, u: int, v: int) -> Optional[list[int]]:
    """Shortest u-v path avoiding the edge (u, v), closed into a cycle."""
    prev = {u: None}
    dq = deque([u])
    while dq:
        x = dq.popleft()
        for w in g.neighbors(x).tolist():
            if x == u and w == v:
                continue
            if w not in prev:
                prev[w] = x
                if w == v:
                    path = [v]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return path
                dq.append(w)
    return None


def _k3_from_cycle(g: Graph, cyc: list[int]) -> MinorWitness:
    a, b, rest = [cyc[0]], [cyc[1]], cyc[2:]
    sets = [VertexSet(a), VertexSet(b), VertexSet(rest)]
    edges = {(0, 1): (cyc[0], cyc[1]), (1, 2): (cyc[1], cyc[2]),
             (0, 2): (cyc[0], cyc[-1])}
    return MinorWitness(branch_sets=sets, connecting_edges=edges)


class _SPGraph:
    """Mutable simple graph with branch-set payloads for minor extraction."""

    def __init__(self, g: Graph):
        self.g = g
        self.adj: dict[int, dict[int, int]] = {v: {} for v in range(g.n)}
        self.edges: dict[int, tuple[int, int, list[int]]] = {}
        self.sets: dict[int, list[int]] = {v: [v] for v in range(g.n)}
        self._next_eid = 0
        for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
            self._add_edge(u, v, [u, v])

    def _add_edge(self, u: int, v: int, path: list[int]) -> None:
        if u == v or v in self.adj[u]:
            return
        eid = self._next_eid
        self._next_eid += 1
        self.edges[eid] = (u, v, path)
        self.adj[u][v] = eid
        self.adj[v][u] = eid

    def _remove_edge(self, eid: int) -> None:
        u, v, _ = self.edges.pop(eid)
        self.adj[u].pop(v, None)
        self.adj[v].pop(u, None)

    def _oriented_path(self, eid: int, frm: int) -> list[int]:
        u, v, path = self.edges[eid]
        return list(path) if frm == u else list(reversed(path))

    def _route_inside(self, vid: int, a: int, b: int) -> list[int]:
        """Path from a to b within the induced subgraph of vid's payload set."""
        if a == b:
            return [a]
        members = set(self.sets[vid])
        prev = {a: None}
        dq = deque([a])
        while dq:
            x = dq.popleft()
            for w in self.g.neighbors(x).tolist():
                if w in members and w not in prev:
                    prev[w] = x
                    if w == b:
                        out = [b]
                        while prev[out[-1]] is not None:
                            out.append(prev[out[-1]])
                        return list(reversed(out))
                    dq.append(w)
        raise RuntimeError("payload set lost connectivity")

    def reduce(self, seeds: Optional[Iterable[int]] = None) -> None:
        """Exhaustively delete degree <= 1 and suppress degree-2 vertices.

        Without seeds every vertex is scanned.  After an edit of a reduced
        core only the seeds, the vertices whose degree the edit lowered, can
        have degree <= 2; taken in ascending id order, which is the key order
        of adj, they form the queue the full scan would.
        """
        start = self.adj if seeds is None else sorted(seeds)
        queue = deque(v for v in start if len(self.adj[v]) <= 2)
        while queue:
            v = queue.popleft()
            if v not in self.adj:
                continue
            deg = len(self.adj[v])
            if deg > 2:
                continue
            if deg <= 1:
                for w, eid in list(self.adj[v].items()):
                    self._remove_edge(eid)
                    if len(self.adj[w]) <= 2:
                        queue.append(w)
                self.adj.pop(v)
                self.sets.pop(v, None)
                continue
            (a, ea), (b, eb) = sorted(self.adj[v].items())
            pa = self._oriented_path(ea, a)      # a .. into set(v)
            pb = self._oriented_path(eb, v)      # from set(v) .. b
            inner = self._route_inside(v, pa[-1], pb[0])
            path = pa + inner[1:] + pb[1:] if inner else pa + pb
            # absorb v's payload interior into the composite path lazily: only
            # the traversed route is carried; unused payload vertices drop out
            self._remove_edge(ea)
            self._remove_edge(eb)
            self.adj.pop(v)
            self.sets.pop(v, None)
            before = b in self.adj[a]
            self._add_edge(a, b, path)
            if before or a == b:
                # duplicate or loop: composite discarded; degrees dropped
                for w in (a, b):
                    if w in self.adj and len(self.adj[w]) <= 2:
                        queue.append(w)
            # suppression can expose new low-degree vertices
            for w in (a, b):
                if w in self.adj and len(self.adj[w]) <= 2:
                    queue.append(w)

    def contract(self, eid: int) -> None:
        u, v, path = self.edges[eid]
        self._remove_edge(eid)
        self.sets[u] = self.sets[u] + path[1:-1] + self.sets[v]
        for w, e2 in list(self.adj[v].items()):
            a, b, p2 = self.edges[e2]
            self._remove_edge(e2)
            p2o = p2 if a == v else list(reversed(p2))
            other = b if a == v else a
            self._add_edge(u, other, p2o)  # path endpoint stays in old set(v) area
        self.adj.pop(v)
        self.sets.pop(v, None)


def _edit_keeps_core(adj: dict[int, dict[int, int]], u: int, v: int, contract: bool) -> bool:
    """Whether the reduced core adj keeps a K4 minor after contracting
    (``contract``) or deleting its edge uv.

    The edit is applied to a copy-on-write overlay: a vertex gets its own
    neighbour set only when the edit or the cascade touches it.  Every vertex
    of a reduced core has degree >= 3, so only the vertices whose degree the
    edit lowers can start a reduction: the merged vertex u and the common
    neighbours of u and v for a contraction, u and v for a deletion.  The
    reduction decides emptiness in any order, so the cascade from them
    decides it for the edited graph, at the cascade's cost, not O(V + E).
    """
    over: dict[int, set[int]] = {}

    def nbrs(x: int) -> set[int]:
        s = over.get(x)
        if s is None:
            s = over[x] = set(adj[x])
        return s

    if contract:
        gone = {v}
        nu = nbrs(u)
        nu.discard(v)
        seeds = [u]
        for w in adj[v]:
            if w == u:
                continue
            nw = nbrs(w)
            nw.discard(v)
            if w in nu:
                seeds.append(w)
            else:
                nu.add(w)
                nw.add(u)
    else:
        gone = set()
        nbrs(u).discard(v)
        nbrs(v).discard(u)
        seeds = [u, v]
    queue = deque(seeds)
    while queue:
        x = queue.popleft()
        if x in gone:
            continue
        nx = nbrs(x)
        if len(nx) > 2:
            continue
        gone.add(x)
        for w in nx:
            nbrs(w).discard(x)
        if len(nx) == 2:
            a, b = nx
            nbrs(a).add(b)
            nbrs(b).add(a)
        queue.extend(w for w in nx if len(nbrs(w)) <= 2)
    return len(gone) < len(adj)


def find_k4_witness(g: Graph) -> Optional[MinorWitness]:
    """Exact K4-minor witness via series-parallel reduction, or None."""
    sp = _SPGraph(g)
    sp.reduce()
    if not sp.adj:
        return None
    guard = 0
    # a reduced core has minimum degree 3, so on 4 vertices it is K4
    while len(sp.adj) > 4:
        guard += 1
        if guard > 4 * g.n + 4 * g.m + 64:
            raise RuntimeError("K4 extraction failed to converge; this is a bug")
        for eid, (u, v, _) in sp.edges.items():
            if _edit_keeps_core(sp.adj, u, v, contract=True):
                seeds = [u, *(w for w in sp.adj[v] if w in sp.adj[u])]
                sp.contract(eid)
                break
            if _edit_keeps_core(sp.adj, u, v, contract=False):
                seeds = [u, v]
                sp._remove_edge(eid)
                break
        else:
            # every edge critical: the survivor is exactly K4
            break
        sp.reduce(seeds)
    verts = sorted(sp.adj)
    if len(verts) != 4:
        raise RuntimeError("series-parallel extraction did not end at K4")
    sets = {v: list(sp.sets[v]) for v in verts}
    conn: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v, path in sp.edges.values():
        i, j = verts.index(u), verts.index(v)
        if i > j:
            i, j = j, i
            path = list(reversed(path))
            u, v = v, u
        # absorb the path interior into u's branch set
        sets[u].extend(path[1:-1])
        conn[(i, j)] = (path[-2], path[-1])
    branch_sets = [VertexSet(sets[v]) for v in verts]
    return MinorWitness(branch_sets=branch_sets, connecting_edges=conn)
