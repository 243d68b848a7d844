"""Core graph representation: CSR adjacency, neighborhoods, components, weights, I/O.

Vertices are dense ids 0..n-1.  Graphs are simple and undirected: no
self-loops, no parallel edges, symmetric adjacency.  Vertex weights are
nonnegative 64-bit integers; balance arithmetic elsewhere in the package is
exact (cross-multiplied integers), never floating point.
"""

from __future__ import annotations

import bisect
import re
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
        ids = np.flatnonzero(mask).tolist()  # Python ints, already ascending
        vs = VertexSet.__new__(VertexSet)
        vs._members = frozenset(ids)
        vs._sorted = tuple(ids)
        return vs


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
# unspecified in the source analysis, so it is kept as one named constant.
THOMASON_SOFT_COEFF = 4.0


def density_threshold(policy: str, h: int, n: int) -> int:
    """Edge-count threshold above which the guard fires.  Deterministic."""
    if h < 2:
        raise ValueError("h must be >= 2")
    if policy == "mader-proven":
        # m > 2^(h-2) * n / 2  <=>  average degree > 2^(h-2).
        return (2 ** (h - 2)) * n // 2
    if policy == "thomason-soft":
        import math

        return int(math.floor(THOMASON_SOFT_COEFF * h * math.sqrt(max(1.0, math.log(h))) * n))
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
        self.indptr, self.indices = _build_csr(self.n, eu, ev)
        self._csr_edge_id: Optional[np.ndarray] = None  # edge id per slot, on first use
        if vertex_weight is None:
            self.vertex_weight = np.ones(self.n, dtype=np.int64)
        else:
            w = _int64_array(vertex_weight)
            if w.shape != (self.n,):
                raise ValueError("vertex_weight length must equal n")
            if np.any(w < 0):
                raise ValueError("vertex weights must be nonnegative")
            self.vertex_weight = w
        self.total_vertex_weight = _weight_total(self.vertex_weight)

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

    def csr(self, weights: Optional[np.ndarray] = None) -> csr_matrix:
        """Adjacency as a scipy CSR matrix (symmetric, given data or ones)."""
        if weights is None:
            data = np.ones(len(self.indices), dtype=np.int64)
        else:
            if self._csr_edge_id is None:
                # slot k holds the edge at position order[k] of [ev, eu]
                self._csr_edge_id = _slot_order(self.edge_u, self.edge_v) % max(self.m, 1)
            data = weights[self._csr_edge_id]
        return csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _canonical_edges(n, edges, edge_weight):
    if not isinstance(edges, np.ndarray):
        edges = [(int(u), int(v)) for u, v in edges]
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
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
        w = _int64_array(edge_weight)
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


def _weight_total(w: np.ndarray) -> int:
    """The exact sum of nonnegative int64 weights; raises at 2^63 or more.

    Below 2^62 the float sum cannot hide a total of 2^63, so the int64 sum
    is exact; only totals near 2^63 take the Python-int sum.
    """
    if float(w.sum(dtype=np.float64)) < 2.0**62:
        return int(w.sum())
    total = int(w.sum(dtype=object))
    if total >= 2**63:
        raise ValueError("sum of vertex weights exceeds 64-bit range")
    return total


def _int64_array(values) -> np.ndarray:
    """A fresh int64 array of `values`: an ndarray is copied, anything else
    listed first (a Python int beyond 64 bits raises OverflowError)."""
    if isinstance(values, np.ndarray):
        return values.astype(np.int64)
    return np.asarray(list(values), dtype=np.int64)


def _build_csr(n, eu, ev):
    """CSR rows with sorted neighbor lists: (indptr, indices)."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n), out=indptr[1:])
    return indptr, np.concatenate([eu, ev])[_slot_order(eu, ev)]


def _slot_order(eu, ev):
    """Positions in the stacked targets [eu, ev] of the CSR slots, in order.

    The edges come sorted by (u, v) with u < v, so stacking the sources as
    [ev, eu] puts every row's smaller neighbors first, each half already
    ascending: one stable sort by source orders the targets too.
    """
    return np.argsort(np.concatenate([ev, eu]), kind="stable")


# -- spec operations -------------------------------------------------------


# Vertex ids must stay below this, the int32 index range that csgraph and the
# masked subgraphs use; a DIMACS file may declare at most this many vertices.
ID_LIMIT = 2**31 - 1

# Longest digit run the whole-text scan converts itself: 18 digits always fit
# in an int64.  Longer fields take the per-line rules.
_SCAN_DIGITS = 18

# Inclusive byte ranges of the scan.  Line breaks are those of str.splitlines
# on ASCII ("\r\n" is one break); the gaps between fields add the other ASCII
# whitespace of str.split: tab, "\x1f" and space.
_BREAK_BYTES = ((0x0A, 0x0D), (0x1C, 0x1E))
_GAP_BYTES = ((0x09, 0x0D), (0x1C, 0x20))
# UTF-8 forms of the non-ASCII breaks of str.splitlines: U+0085, U+2028, U+2029.
_UTF8_BREAK = re.compile(rb"\xc2\x85|\xe2\x80[\xa8\xa9]")


def load_graph(source, fmt: str = "edge-list") -> Graph:
    """Parse a graph from a byte or text stream.

    Edge-list format: UTF-8 lines, ``u v`` declares an edge, ``w u c`` sets the
    weight of vertex u to c, ``#`` starts a comment.  DIMACS format accepts
    ``c`` comments, ``p edge n m`` and ``e u v`` lines (1-based ids).
    Vertices never assigned a weight get weight 1, the last ``w`` line of a
    vertex (and the last ``p`` line) wins, and duplicate edges collapse.
    Vertex ids must be below ID_LIMIT and weights below 2^63.  The README's
    "File formats" section gives the grammar in full.
    """
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, str):
        buf = data.encode("utf-8", "surrogatepass")
    else:
        buf = data
        if not buf.isascii():
            buf.decode("utf-8")  # raises on invalid UTF-8, as a full decode would
    eu, ev, e_line, w_id, w_val, w_line, declared_n = _scan_text(buf, fmt)
    max_id = max([int(a.max()) for a in (eu, ev, w_id) if a.size], default=-1)
    n = max_id + 1
    if declared_n is not None:
        if max_id >= declared_n:
            # the first edge line past the declared n is the one reported
            over = np.flatnonzero(np.maximum(eu, ev) >= declared_n)
            i = over[np.argmin(e_line[over])]
            raise GraphFormatError(
                f"edge mentions vertex {max(int(eu[i]), int(ev[i])) + 1} > declared n={declared_n}",
                int(e_line[i]) + 1)
        n = declared_n
    _check_weight_total(n, w_val, w_line)
    weights = np.ones(n, dtype=np.int64)
    weights[w_id] = w_val
    return Graph(n, np.stack([eu, ev], axis=1), vertex_weight=weights)


def _check_weight_total(n: int, w_val: np.ndarray, w_line: np.ndarray) -> None:
    """Raise GraphFormatError when the vertex weights reach 2^63 in total.

    The weights set by lines take effect in line order, on top of weight 1
    for every other vertex; the line reported is the first at which the sum
    reaches 2^63.  A float sum clears every ordinary input at once.
    """
    if float(w_val.sum(dtype=np.float64)) + n < 2.0**62:
        return
    order = np.argsort(w_line, kind="stable")
    run = (n - len(w_val)) + np.cumsum(w_val[order].astype(object))
    over = np.flatnonzero(run >= 2**63)
    if len(over):
        raise GraphFormatError("sum of vertex weights exceeds 64-bit range",
                               int(w_line[order[over[0]]]) + 1)


def _scan_text(buf: bytes, fmt: str):
    """Edges, vertex weights and the declared n of a UTF-8 text.

    `_scan_lines` converts the canonical lines in bulk; every other line goes
    through `_parse_line` here, in line order, so the first error raised is
    the first bad line's.  Returns (eu, ev, e_line, w_id, w_val, w_line,
    declared_n): 0-based int64 edge endpoints with the 0-based line of each
    edge, the distinct weighted ids with their last weight and its line, and
    the last ``p`` line's n (None without one).
    """
    brk_at, slow, eu, ev, e_line, w_line, w_id, w_val = _scan_lines(buf, fmt)
    slow_e: list[tuple[int, int, int]] = []
    slow_w: list[tuple[int, int, int]] = []
    declared_n = None
    for li in slow.tolist():
        lo = 0 if li == 0 else _after_break(buf, int(brk_at[li - 1]))
        hi = int(brk_at[li]) if li < len(brk_at) else len(buf)
        parsed = _parse_line(buf[lo:hi].decode("utf-8", "surrogatepass"), li + 1, fmt)
        if parsed is None:
            continue
        if parsed[0] == "e":
            slow_e.append((li, *parsed[1:]))
        elif parsed[0] == "w":
            slow_w.append((li, *parsed[1:]))
        else:
            declared_n = parsed[1]
    if slow_e:
        se = np.array(slow_e, dtype=np.int64)
        e_line = np.concatenate([e_line, se[:, 0]])
        eu, ev = np.concatenate([eu, se[:, 1]]), np.concatenate([ev, se[:, 2]])
    if slow_w:
        sw = np.array(slow_w, dtype=np.int64)
        w_line = np.concatenate([w_line, sw[:, 0]])
        w_id, w_val = np.concatenate([w_id, sw[:, 1]]), np.concatenate([w_val, sw[:, 2]])
    # the last line naming a vertex sets its weight
    order = np.lexsort((w_line, w_id))
    w_id, w_val = w_id[order], w_val[order]
    last = np.ones(len(w_id), dtype=bool)
    last[:-1] = w_id[1:] != w_id[:-1]
    return eu, ev, e_line, w_id[last], w_val[last], w_line[order][last], declared_n


def _scan_lines(buf: bytes, fmt: str):
    """The whole-text numpy pass over a UTF-8 text.

    Finds the tokens, the first token of each line and the value of each
    short all-digit token, then converts every canonical line: a blank or
    comment line, an edge-list ``u v`` or ``w u c`` line, or a DIMACS
    ``e u v`` line, all of ASCII digits with in-range ids and u != v.
    Per-byte arrays are uint8 or bool, and no Python object is made per line.

    Returns (brk_at, slow, eu, ev, e_line, w_line, w_id, w_val): the offset
    of each line break; the lines, 0-based and ascending, left to
    `_parse_line` (the other lines with a field, and every line holding a
    non-ASCII character); and the canonical edges (0-based) and weight lines,
    each with its line.
    """
    a = np.frombuffer(buf, dtype=np.uint8)
    off = np.int32 if a.size < 2**31 else np.int64
    brk = _byte_mask(a, _BREAK_BYTES)
    tok = ~_byte_mask(a, _GAP_BYTES)
    # the "\n" of "\r\n" continues the "\r"'s break
    cr = np.flatnonzero(a[:-1] == 0x0D)
    brk[cr[a[cr + 1] == 0x0A] + 1] = False
    ascii_text = buf.isascii()
    if not ascii_text:
        for m in _UTF8_BREAK.finditer(buf):
            brk[m.start()] = True
            tok[m.start():m.end()] = False
        high_pos = np.flatnonzero(tok & (a >= 0x80))
    brk_at = np.flatnonzero(brk).astype(off)
    del brk
    bounds = np.flatnonzero(np.diff(tok, prepend=False, append=False)).astype(off)
    del tok
    starts, lens = bounds[0::2], bounds[1::2] - bounds[0::2]
    # first[i] is line i's first token; the last entry counts all tokens
    first = np.zeros(len(brk_at) + 2, dtype=np.int64)
    first[1:-1] = np.searchsorted(starts, brk_at)
    first[-1] = len(starts)
    num, val = _digit_tokens(a, starts, lens)
    count = np.diff(first)
    has = np.flatnonzero(count)
    first, count = first[has], count[has]
    lead = a[starts[first]]
    single = lens[first] == 1
    del bounds, starts, lens
    plain = np.ones(len(has), dtype=bool)
    if not ascii_text:
        plain[np.isin(has, np.searchsorted(brk_at, high_pos))] = False

    def ids(t, base):
        """Values of tokens t made 0-based, and whether each is a canonical id."""
        v = val[t] - base
        return v, num[t] & (v >= 0) & (v < ID_LIMIT)

    eu = ev = e_line = w_line = w_id = w_val = np.empty(0, dtype=np.int64)
    if fmt == "edge-list":
        done = plain & (lead == ord("#"))
        e = np.flatnonzero(plain & (count == 2))
        (u, ok_u), (v, ok_v) = ids(first[e], 0), ids(first[e] + 1, 0)
        ok = ok_u & ok_v & (u != v)
        eu, ev, e_line = u[ok], v[ok], has[e[ok]]
        done[e[ok]] = True
        w = np.flatnonzero(plain & (count == 3) & single & (lead == ord("w")))
        wt = first[w]
        vid, ok = ids(wt + 1, 0)
        ok &= num[wt + 2]
        w_line, w_id, w_val = has[w[ok]], vid[ok], val[wt[ok] + 2]
        done[w[ok]] = True
    elif fmt == "dimacs":
        done = plain & single & (lead == ord("c"))
        e = np.flatnonzero(plain & (count == 3) & single & (lead == ord("e")))
        (u, ok_u), (v, ok_v) = ids(first[e] + 1, 1), ids(first[e] + 2, 1)
        ok = ok_u & ok_v & (u != v)
        eu, ev, e_line = u[ok], v[ok], has[e[ok]]
        done[e[ok]] = True
    else:  # _parse_line rejects the format on the first line with a field
        done = np.zeros(len(has), dtype=bool)
    return brk_at, has[~done], eu, ev, e_line, w_line, w_id, w_val


def _byte_mask(a: np.ndarray, ranges) -> np.ndarray:
    """Whether each byte of `a` lies in one of the inclusive (lo, hi) ranges."""
    mask = np.zeros(a.shape, dtype=bool)
    for lo, hi in ranges:
        mask |= (a - lo) <= hi - lo  # uint8 arithmetic: bytes below lo wrap high
    return mask


def _digit_tokens(a: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """For each token (byte offset and length in `a`), whether it is all ASCII
    digits and at most _SCAN_DIGITS long, and then its int64 value."""
    num = np.zeros(len(starts), dtype=bool)
    val = np.zeros(len(starts), dtype=np.int64)
    widths = np.bincount(np.minimum(lens, _SCAN_DIGITS + 1))[:_SCAN_DIGITS + 1]
    for width in np.flatnonzero(widths).tolist():
        sel = np.flatnonzero(lens == width)
        digits = np.lib.stride_tricks.sliding_window_view(a, width)[starts[sel]]
        digits -= 0x30  # non-digits wrap above 9
        ok = np.ones(len(sel), dtype=bool)
        v = np.zeros(len(sel), dtype=np.int64)
        for col in digits.T:
            ok &= col <= 9
            v *= 10
            v += col
        num[sel] = ok
        val[sel] = v
    return num, val


def _after_break(buf: bytes, pos: int) -> int:
    """Offset just past the line break that starts at `pos`."""
    lead = buf[pos]
    if lead == 0x0D:
        return pos + 2 if buf[pos + 1:pos + 2] == b"\n" else pos + 1
    if lead < 0x80:
        return pos + 1
    return pos + (2 if lead == 0xC2 else 3)


def _parse_line(line: str, lineno: int, fmt: str):
    """One line by the full rules of the format.

    Returns None for a blank or comment line, else ("e", u, v), ("w", u, c)
    or ("p", n) with 0-based ids; raises GraphFormatError on a bad line.
    """
    line = line.strip()
    if not line:
        return None
    if fmt == "edge-list":
        if line.startswith("#"):
            return None
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
            if u >= ID_LIMIT:
                raise GraphFormatError("vertex id out of int32 range", lineno)
            if c >= 2**63:
                raise GraphFormatError("vertex weight exceeds 64-bit range", lineno)
            return ("w", u, c)
        if len(parts) != 2:
            raise GraphFormatError("edge line must be 'u v'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError("edge line has non-integer field", lineno)
        if u < 0 or v < 0:
            raise GraphFormatError("negative vertex id", lineno)
        if u >= ID_LIMIT or v >= ID_LIMIT:
            raise GraphFormatError("vertex id out of int32 range", lineno)
        if u == v:
            raise GraphFormatError("self-loop rejected", lineno)
        return ("e", u, v)
    if fmt == "dimacs":
        parts = line.split()
        tag = parts[0]
        if tag == "c":
            return None
        if tag == "p":
            if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                raise GraphFormatError("bad problem line", lineno)
            try:
                n = int(parts[2])
            except ValueError:
                raise GraphFormatError("problem line has non-integer field", lineno)
            if n > ID_LIMIT:
                raise GraphFormatError("declared n out of int32 range", lineno)
            return ("p", n)
        if tag == "e":
            if len(parts) != 3:
                raise GraphFormatError("edge line must be 'e u v'", lineno)
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise GraphFormatError("edge line has non-integer field", lineno)
            if u < 0 or v < 0:
                raise GraphFormatError("vertex id below 1", lineno)
            if u >= ID_LIMIT or v >= ID_LIMIT:
                raise GraphFormatError("vertex id out of int32 range", lineno)
            if u == v:
                raise GraphFormatError("self-loop rejected", lineno)
            return ("e", u, v)
        raise GraphFormatError(f"unknown line tag {tag!r}", lineno)
    raise ValueError(f"unknown format {fmt!r}")


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
    ids = grow_within(g, np.ones(g.n, dtype=bool), np.asarray(xs.ids(), dtype=np.int64),
                      g.n, delta)
    return VertexSet(ids.tolist())


def gather_neighbors(indptr: np.ndarray, indices: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of `verts` (with multiplicity), vectorized."""
    return indices[_row_slots(indptr, verts)]


def _row_slots(indptr: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """The CSR slots of the rows of `verts`, row after row."""
    starts = indptr[verts]
    counts = indptr[verts + 1] - starts
    total = int(counts.sum())
    within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(starts, counts) + within


def grow_within(g: Graph, allowed: np.ndarray, seed_vertices: np.ndarray, target: int,
                radius_cap: int) -> np.ndarray:
    """Grow a superset of the seed vertices by BFS through `allowed`.

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


def symmetric_components(mat: csr_matrix) -> tuple[int, np.ndarray]:
    """Components of a symmetric sparse matrix, numbered in order of each
    component's smallest index.

    On a symmetric matrix the strong components are the components, and
    csgraph finds them without the transpose its undirected mode builds.
    """
    return csgraph.connected_components(mat, directed=True, connection="strong")


class LevelBFS:
    """Breadth-first levels from one start vertex of a symmetric CSR matrix.

    `order` lists the vertices that `start` reaches, in the FIFO order of
    `csgraph.breadth_first_order`, so level j (the vertices at distance j) is
    order[starts[j]:starts[j + 1]].  In FIFO order the positions of the
    search-tree parents never decrease, so level j + 1 starts at
    1 + #(parent positions < starts[j]): one binary search per level.  The
    level starts are found on demand, only as far as `ball` asks; `levels`
    and `parent` find them all.  This is the host-scale kernel: the shallow
    loop, the trade-off's spanning tree and the debug checks search through
    it; searches inside one cluster of a few vertices run on `local_bfs`.

    The predecessor of a vertex is its largest-id neighbor one level closer
    to start, the one `csgraph.dijkstra(unweighted=True)` returns.  The
    matrix must be symmetric with int32 indices (csgraph's canonical form).
    """

    __slots__ = ("mat", "start", "order", "pos", "_ppos", "_starts")

    def __init__(self, mat: csr_matrix, start: int):
        order, tree_pred = csgraph.breadth_first_order(mat, start, directed=True,
                                                       return_predecessors=True)
        pos = np.full(mat.shape[0], -1, dtype=np.int32)
        pos[order] = np.arange(len(order), dtype=np.int32)
        self.mat = mat
        self.start = start
        self.order = order
        self.pos = pos                       # position in order; -1 when unreached
        self._ppos = pos[tree_pred[order[1:]]]
        self._starts = [0, 1]

    def _grow(self, d: int) -> list[int]:
        """The level starts, found through level d or the last level."""
        starts, ppos, k = self._starts, self._ppos, len(self.order)
        while len(starts) <= d + 1 and starts[-1] < k:
            # an int32 key: an int64 one would cast all of ppos on every call
            starts.append(1 + int(ppos.searchsorted(np.int32(starts[-1]))))
        return starts

    def ball(self, d: int) -> int:
        """The number of vertices within distance d of start."""
        if d < 0:
            return 0
        starts = self._grow(d)
        return starts[d + 1] if d + 1 < len(starts) else len(self.order)

    def levels(self, vs: np.ndarray) -> np.ndarray:
        """The distance from start of each vertex of vs; -1 where unreached."""
        p = self.pos[vs]
        lv = np.searchsorted(self._grow(len(self.order)), p, side="right") - 1
        lv[p < 0] = -1
        return lv

    def parent(self, v: int) -> int:
        """The largest-id neighbor of v one level closer to start (v reached, not start)."""
        starts = self._grow(len(self.order))
        j = bisect.bisect_right(starts, int(self.pos[v])) - 1
        nbrs = self.mat.indices[self.mat.indptr[v]:self.mat.indptr[v + 1]]
        q = self.pos[nbrs]
        return int(nbrs[(q >= starts[j - 1]) & (q < starts[j])].max())


def local_bfs(adj: list[list[int]], src: int,
              blocked: Optional[Sequence[bool]] = None) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search of a small graph held as sorted neighbor lists.

    Returns the visit order and, per vertex, the distance from src and the
    parent (the first vertex in visit order adjacent to it), both -1 where
    the vertex was not reached; src has parent -1.  No blocked vertex is
    entered; src itself may be blocked.  The cluster-scale kernel: on the
    few vertices of a cluster one csgraph call costs more than the search.
    """
    n = len(adj)
    if blocked is None:
        blocked = [False] * n
    dist = [-1] * n
    parent = [-1] * n
    dist[src] = 0
    order = [src]
    for u in order:
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0 and not blocked[w]:
                dist[w] = du
                parent[w] = u
                order.append(w)
    return order, dist, parent


class HostSubgraph:
    """G[mask] as an n x n 0/1 CSR matrix over host ids, for searches of the
    large live part of a graph.

    One boolean filter of the host CSR keeps the slots with both ends in
    mask, so rows stay sorted and the vertices outside mask are isolated;
    nothing is relabelled, so BFS results need no scatter back to host ids.
    The build costs O(n + m) whatever the mask (`MaskedSubgraph` costs
    O(|ids| + vol(ids)) for small sets).  The BFS from the last start asked
    for is kept until the next `restrict`.

    `restrict` shrinks the mask in place at O(n + vol(newly dead)): each
    slot joining a newly dead vertex d to u is rewritten as a self-loop (the
    entry for d in u's row becomes u, the entry for u in d's row becomes d),
    so the matrix stays symmetric and no slot moves.  A self-loop never lies
    one level closer to start, so BFS order, balls, levels, `parent` and the
    components are those of a fresh build; but the matrix is canonical
    (sorted, loop-free rows) only as built, and `m` counts the live edges.
    """

    __slots__ = ("mask", "mat", "m", "_rev", "_bfs")

    def __init__(self, g: Graph, mask: np.ndarray):
        keep = mask[g.indices]
        keep &= np.repeat(mask, g.degrees())
        kept = np.zeros(len(keep) + 1, dtype=np.int32)
        np.cumsum(keep, out=kept[1:])
        indices = g.indices[keep].astype(np.int32)
        self.mask = mask.copy()
        self.mat = csr_matrix((np.ones(len(indices)), indices, kept[g.indptr]),
                              shape=(g.n, g.n))
        self.m = len(indices) // 2              # edges with both ends in mask
        self._rev: Optional[np.ndarray] = None  # slot of each slot's reverse entry
        self._bfs: Optional[LevelBFS] = None

    def restrict(self, mask: np.ndarray) -> None:
        """Shrink the subgraph to G[mask]; mask must be a subset of the current one."""
        dead = np.flatnonzero(self.mask & ~mask)
        if len(dead) == 0:
            return
        mat = self.mat
        if self._rev is None:
            # the matrix is still as built, rows ascending and sorted
            # within: ordering the slots by column lists the transpose, which
            # is the matrix itself, so the k-th slot in that order is the
            # reverse of slot k
            self._rev = np.argsort(mat.indices, kind="stable").astype(np.int32)
        slots = _row_slots(mat.indptr, dead)
        rows = np.repeat(dead, mat.indptr[dead + 1] - mat.indptr[dead])
        cols = mat.indices[slots]
        edge = cols != rows  # the other slots are loops of earlier restricts
        slots, rows, cols = slots[edge], rows[edge], cols[edge]
        # every edge left joins two vertices of the old mask; one with both
        # ends dead shows up once from each end
        self.m -= len(slots) - int(np.count_nonzero(~mask[cols])) // 2
        mat.indices[self._rev[slots]] = cols
        mat.indices[slots] = rows
        mat.has_sorted_indices = False
        self.mask[dead] = False
        self._bfs = None

    def bfs(self, start: int) -> LevelBFS:
        if self._bfs is None or self._bfs.start != start:
            self._bfs = LevelBFS(self.mat, start)
        return self._bfs

    def components(self) -> tuple[int, np.ndarray]:
        """Component count and label per host id (each vertex outside mask
        alone), numbered in order of each component's smallest id."""
        return symmetric_components(self.mat)


class MaskedSubgraph:
    """G[ids] as a symmetric 0/1 CSR matrix over local ids, built once for csgraph queries.

    `ids` must be sorted, distinct and within 0..n-1; local id i is global id
    ids[i], so csgraph's tie-breaking (component numbering, BFS predecessors)
    is by global id as well.  Each row is the host's sorted neighbor list with
    vertices outside ids dropped, so the matrix is canonical (float64 data,
    int32 indices, sorted rows) at O(|ids| + vol(ids)) cost beyond filling one
    n-entry id map, and csgraph neither converts it nor, for directed queries,
    transposes it.
    """

    __slots__ = ("ids", "mat")

    def __init__(self, g: Graph, ids: np.ndarray):
        k = len(ids)
        local = np.full(g.n, -1, dtype=np.int32)
        local[ids] = np.arange(k, dtype=np.int32)
        nbrs = local[gather_neighbors(g.indptr, g.indices, ids)]
        keep = nbrs >= 0
        # row i's slots end at ends[i + 1] in the gathered rows; its indptr
        # entry is the number of kept slots before that
        ends = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(g.indptr[ids + 1] - g.indptr[ids], out=ends[1:])
        kept = np.zeros(len(keep) + 1, dtype=np.int32)
        np.cumsum(keep, out=kept[1:])
        indices = nbrs[keep]
        self.ids = ids
        self.mat = csr_matrix((np.ones(len(indices)), indices, kept[ends]), shape=(k, k))

    def components(self) -> tuple[int, np.ndarray]:
        """Component count and the label per local id, numbered in order of
        each component's smallest vertex id."""
        return symmetric_components(self.mat)

    def diameter(self) -> Optional[int]:
        """Hop diameter; None when disconnected, 0 for at most one vertex.

        All-pairs BFS in blocks of sources, each holding at most
        DIAMETER_BLOCK_ENTRIES distances.  A disconnected G[ids] leaves an
        unreachable vertex in every source's row, so the first block decides.
        """
        nn = len(self.ids)
        if nn <= 1:
            return 0
        rows = max(1, DIAMETER_BLOCK_ENTRIES // nn)
        best = 0
        for lo in range(0, nn, rows):
            dist = csgraph.shortest_path(self.mat, method="D", directed=True, unweighted=True,
                                         indices=np.arange(lo, min(nn, lo + rows)))
            top = dist.max()
            if np.isinf(top):
                return None
            best = max(best, int(top))
        return best


def masked_components(g: Graph, mask: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Components of G[mask]: (ids of mask, component count, label per id)."""
    sub = MaskedSubgraph(g, np.flatnonzero(mask))
    ncomp, labels = sub.components()
    return sub.ids, ncomp, labels


def masked_diameter(g: Graph, ids: np.ndarray) -> Optional[int]:
    """Hop diameter of G[ids]; None when G[ids] is disconnected.

    `ids` must lie in 0..n-1: callers that take ids from outside check the
    range first, since a negative id would index from the end.
    """
    return MaskedSubgraph(g, np.unique(ids)).diameter()


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
    ncomp, labels = symmetric_components(g.csr())
    out: list[list[int]] = [[] for _ in range(ncomp)]
    for v, lab in enumerate(labels.tolist()):
        out[lab].append(v)
    out.sort(key=lambda vs: vs[0])
    return [VertexSet(vs) for vs in out]


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
