import io
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from sepkit.graph import (
    DIAMETER_BLOCK_ENTRIES,
    ID_LIMIT,
    Graph,
    GraphFormatError,
    HostSubgraph,
    LevelBFS,
    MaskedSubgraph,
    VertexSet,
    connected_components,
    density_threshold,
    dump_graph,
    induced_subgraph,
    load_graph,
    local_bfs,
    masked_components,
    masked_diameter,
    neighborhood,
    sparsity_guard,
    symmetric_components,
    total_weight,
)


def grid_graph(k):
    edges = []
    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                edges.append((i * k + j, (i + 1) * k + j))
            if j + 1 < k:
                edges.append((i * k + j, i * k + j + 1))
    return Graph(k * k, edges)


class TestLoadGraph:
    def test_smallest_nonempty(self):
        g = load_graph(b"0 1\n")
        assert g.n == 2 and g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError) as ei:
            load_graph(b"0 0\n")
        assert ei.value.line == 1

    def test_grid_edge_count(self):
        # k x k grid has 2k(k-1) edges
        k = 3
        g = grid_graph(k)
        text = dump_graph(g)
        g2 = load_graph(text)
        assert g2.n == 9 and g2.m == 2 * k * (k - 1) == 12

    def test_weights_and_comments(self):
        g = load_graph("# comment\nw 0 5\n0 1\nw 2 0\n1 2\n")
        assert g.vertex_weight.tolist() == [5, 1, 0]

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError):
            load_graph("w 0 -3\n0 1\n")

    def test_duplicate_edges_collapse(self):
        g = load_graph("0 1\n1 0\n0 1\n")
        assert g.m == 1

    def test_dimacs(self):
        g = load_graph("c comment\np edge 4 2\ne 1 2\ne 3 4\n", fmt="dimacs")
        assert g.n == 4 and g.m == 2
        assert g.has_edge(0, 1) and g.has_edge(2, 3)

    def test_dimacs_roundtrip(self):
        g = grid_graph(3)
        g2 = load_graph(dump_graph(g, fmt="dimacs"), fmt="dimacs")
        assert g2.edge_list() == g.edge_list()

    def test_parse_error_line_number(self):
        with pytest.raises(GraphFormatError) as ei:
            load_graph("0 1\nnot an edge line at all\n")
        assert ei.value.line == 2


# -- loader reference and differential tests -------------------------------


def reference_load_graph(source, fmt="edge-list"):
    """The per-line loader that `load_graph` replaced, kept as the reference.

    These fixes are applied: ids of ID_LIMIT or more (and a larger declared
    DIMACS n) and weights of 2^63 or more raise GraphFormatError with the
    line, and so do non-integer DIMACS fields; an id above the declared n and
    a weight total of 2^63 or more name a line too.  It builds O(n) Python
    objects, so feed it small ids only.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = source
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    edges = []
    edge_lines = []
    weights = {}
    weight_lines = {}
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
                if u >= ID_LIMIT:
                    raise GraphFormatError("vertex id out of int32 range", lineno)
                if c >= 2**63:
                    raise GraphFormatError("vertex weight exceeds 64-bit range", lineno)
                weights[u] = c
                weight_lines[u] = lineno
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
                if u >= ID_LIMIT or v >= ID_LIMIT:
                    raise GraphFormatError("vertex id out of int32 range", lineno)
                if u == v:
                    raise GraphFormatError("self-loop rejected", lineno)
                edges.append((u, v))
                edge_lines.append(lineno)
                max_id = max(max_id, u, v)
        elif fmt == "dimacs":
            tag = line.split(maxsplit=1)[0]
            if tag == "c":
                continue
            if tag == "p":
                parts = line.split()
                if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                    raise GraphFormatError("bad problem line", lineno)
                try:
                    declared_n = int(parts[2])
                except ValueError:
                    raise GraphFormatError("problem line has non-integer field", lineno)
                if declared_n > ID_LIMIT:
                    raise GraphFormatError("declared n out of int32 range", lineno)
            elif tag == "e":
                parts = line.split()
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
                edges.append((u, v))
                edge_lines.append(lineno)
                max_id = max(max_id, u, v)
            else:
                raise GraphFormatError(f"unknown line tag {tag!r}", lineno)
        else:
            raise ValueError(f"unknown format {fmt!r}")
    n = max_id + 1
    if declared_n is not None:
        for (u, v), lineno in zip(edges, edge_lines):
            if max(u, v) >= declared_n:
                raise GraphFormatError(
                    f"edge mentions vertex {max(u, v) + 1} > declared n={declared_n}", lineno)
        n = declared_n
    total = n - len(weights)
    for lineno, u in sorted((lineno, u) for u, lineno in weight_lines.items()):
        total += weights[u]
        if total >= 2**63:
            raise GraphFormatError("sum of vertex weights exceeds 64-bit range", lineno)
    wvec = [weights.get(v, 1) for v in range(n)]
    return Graph(n, edges, vertex_weight=wvec)


def load_outcome(loader, source, fmt):
    """What a loader makes of a text: the graph's arrays, or the error."""
    try:
        g = loader(source, fmt)
    except Exception as e:  # the outcome under test
        return ("error", type(e), str(e), getattr(e, "line", None))
    arrays = [g.edge_u, g.edge_v, g.vertex_weight, g.indptr, g.indices]
    return ("graph", g.n, [(a.dtype.str, a.tolist()) for a in arrays])


# Ids the differential test may accept stay this small, since the reference
# makes one Python object per vertex.
SMALL_ID = 10**4
# Values the loaders must reject wherever they appear as an id or a declared n
# (never 2^31 - 1 itself: in DIMACS that is an accepted id, and n that large
# allocates gigabytes).
HUGE = [2**31, 10**11, 2**63, 10**20]
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]
FIELD_GAPS = [" ", "  ", "\t", "\x1f", " \t ", "\xa0", "\u3000"]
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def render_int(x, style):
    """x written the way `style` names; every style but "junk" reads back as x."""
    if style == "plain":
        return str(x)
    if style == "zeros":
        return "00" + str(x)
    if style == "long":  # more digits than the scan converts itself
        return str(x).rjust(22, "0") if x >= 0 else "-" + str(-x).rjust(22, "0")
    if style == "plus":
        return "+" + str(x) if x >= 0 else str(x)
    if style == "underscore":
        s = str(x)
        return s[0] + "_" + s[1:] if len(s) > 1 and s[0] != "-" else s
    if style == "arabic":
        return str(x).translate(ARABIC_INDIC)
    return str(x) + "x"


small_int = st.one_of(st.integers(0, 12), st.integers(0, SMALL_ID), st.integers(-3, -1),
                      st.sampled_from(HUGE))
weight_int = st.one_of(st.integers(0, 9), st.integers(0, 10**18),
                       st.integers(2**63 - 3, 2**63 + 2), st.sampled_from([10**20, -2]))
styles = st.sampled_from(["plain"] * 6 + ["zeros", "long", "plus", "underscore",
                                          "arabic", "junk"])
good_styles = st.sampled_from(["plain"] * 12 + ["zeros", "long", "plus", "underscore",
                                                "arabic"])
gaps = st.sampled_from(FIELD_GAPS)


@st.composite
def field(draw, ints=small_int, style=styles):
    return render_int(draw(ints), draw(style))


@st.composite
def good_line(draw, fmt):
    """A line both loaders accept: an edge of two distinct small ids, a
    weight below 10^15, a comment or a blank, in any accepted spelling."""
    gap = draw(gaps)
    kind = draw(st.sampled_from(["edge"] * 6 + ["weight"] * 3 + ["comment", "blank"]))
    base = 1 if fmt == "dimacs" else 0
    u = draw(st.one_of(st.integers(base, base + 12), st.integers(base, SMALL_ID)))
    v = draw(st.integers(base, SMALL_ID).filter(lambda x: x != u))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    if fmt == "dimacs":
        if kind == "comment":
            return draw(st.sampled_from(["c", "c 1 2", "c\tp edge 1 1"]))
        if kind == "weight":  # a problem line, which must cover every id
            return f"p{gap}edge{gap}{SMALL_ID}{gap}{draw(field(style=good_styles))}"
        return f"e{gap}{render_int(u, draw(good_styles))}{gap}{render_int(v, draw(good_styles))}"
    if kind == "comment":
        return draw(st.sampled_from(["#", "# c", "#0 0", " #\x85"]))
    if kind == "weight":
        c = draw(st.one_of(st.integers(0, 9), st.integers(0, 10**15)))
        return f"w{gap}{render_int(u, draw(good_styles))}{gap}{render_int(c, draw(good_styles))}"
    return f"{render_int(u, draw(good_styles))}{gap}{render_int(v, draw(good_styles))}"


@st.composite
def edge_list_line(draw):
    gap = draw(gaps)
    kind = draw(st.sampled_from(["edge"] * 5 + ["weight"] * 3 + ["loop", "other"]))
    if kind == "edge":
        return f"{draw(field())}{gap}{draw(field())}"
    if kind == "weight":
        return f"w{gap}{draw(field())}{gap}{draw(field(weight_int))}"
    if kind == "loop":
        x = draw(st.integers(0, 12))
        return f"{x}{gap}{x}"
    return draw(st.sampled_from(
        ["", "   ", "#", "# c", "#0 1", "0 1 # c", "1 2 3", "5", "w", "w 1", "w 1 2 3",
         "W 1 2", "ww 1 2", "a b", "1\x002", "e 1 2", "c x"]))


@st.composite
def dimacs_line(draw):
    gap = draw(gaps)
    kind = draw(st.sampled_from(["edge"] * 6 + ["problem"] * 2 + ["loop", "other"]))
    if kind == "edge":
        return f"e{gap}{draw(field())}{gap}{draw(field())}"
    if kind == "problem":
        tag = draw(st.sampled_from(["edge", "edges", "col", "foo"]))
        n = draw(st.one_of(st.integers(0, SMALL_ID), st.integers(-2, 40),
                           st.sampled_from(HUGE)))
        return f"p{gap}{tag}{gap}{render_int(n, draw(styles))}{gap}{draw(field())}"
    if kind == "loop":
        x = draw(st.integers(1, 12))
        return f"e{gap}{x}{gap}{x}"
    return draw(st.sampled_from(
        ["", "  ", "c", "c 1 2", "cc 1", "#", "e", "e 1", "e 1 2 3", "x 1 2", "p edge 3",
         "1 2", "w 1 2"]))


@st.composite
def graph_text(draw):
    """Mostly accepted lines of one format, with up to three lines of any kind
    (of either format, often malformed) put in at random places."""
    fmt = draw(st.sampled_from(["edge-list", "dimacs"]))
    lines = draw(st.lists(good_line(fmt), max_size=30))
    for _ in range(draw(st.integers(0, 3))):
        line = draw(st.one_of(edge_list_line(), dimacs_line()))
        lines.insert(draw(st.integers(0, len(lines))), line)
    pad = st.sampled_from(["", "", " ", "\t", "\xa0"])
    text = "".join(draw(pad) + line + draw(pad) + draw(st.sampled_from(LINE_BREAKS))
                   for line in lines)
    if draw(st.booleans()):  # a last line with no break after it
        text += draw(good_line(fmt))
    return text, fmt


class TestLoadGraphScan:
    """`load_graph` against the per-line reference loop, outcome for outcome."""

    @settings(max_examples=400, deadline=None)
    @given(graph_text(), st.booleans())
    def test_matches_reference(self, case, as_bytes):
        text, fmt = case
        source = text.encode("utf-8") if as_bytes else text
        assert load_outcome(load_graph, source, fmt) == load_outcome(
            reference_load_graph, source, fmt)

    @pytest.mark.parametrize("source, fmt, expect", [
        # int()-style integers and Unicode separators
        ("+1 2\n", "edge-list", (3, [(1, 2)], None)),
        ("1_0 3\n", "edge-list", (11, [(3, 10)], None)),
        ("\u0661 \u0662\n", "edge-list", (3, [(1, 2)], None)),
        ("1\xa02\n0\u30001\n", "edge-list", (3, [(0, 1), (1, 2)], None)),
        ("0 1\x851 2\u20282 3\n", "edge-list", (4, [(0, 1), (1, 2), (2, 3)], None)),
        ("0000000000000000000001 2\n", "edge-list", (3, [(1, 2)], None)),
        ("0\x1f1\n1\t2\n", "edge-list", (3, [(0, 1), (1, 2)], None)),
        ("0 1\x0b1 2\x0c2 3\x1c3 4\x1d4 5\x1e5 6\r6 7\r\n7 8", "edge-list",
         (9, [(i, i + 1) for i in range(8)], None)),
        # the last weight line of a vertex wins, whichever path parsed it
        ("w 0 5\n0 1\nw 0 7\n", "edge-list", (2, [(0, 1)], [7, 1])),
        ("w 0 +7\n0 1\nw 0 5\n", "edge-list", (2, [(0, 1)], [5, 1])),
        ("w 0 5\n0 1\nw 0 +7\n", "edge-list", (2, [(0, 1)], [7, 1])),
        ("w 0 9223372036854775806\n", "edge-list", (1, [], [2**63 - 2])),
        ("", "edge-list", (0, [], None)),
        ("\n \n", "no-such-format", (0, [], None)),
        ("p edge 3 0\np edge 5 x\ne 1 2\n", "dimacs", (5, [(0, 1)], None)),
        ("c\ne 1 2\ne 002 +3\n", "dimacs", (3, [(0, 1), (1, 2)], None)),
        # errors, with their line numbers
        ("0 1 # c\n", "edge-list", (GraphFormatError, "line 1: edge line must be 'u v'")),
        ("0 1\r\n1 2\rbad\n", "edge-list",
         (GraphFormatError, "line 3: edge line must be 'u v'")),
        ("0 1\n\ud800\n", "edge-list", (GraphFormatError, "line 2: edge line must be 'u v'")),
        ("0 1\n\u0663 x\n", "edge-list",
         (GraphFormatError, "line 2: edge line has non-integer field")),
        ("e 1\n", "edge-list", (GraphFormatError, "line 1: edge line has non-integer field")),
        ("#c\n", "dimacs", (GraphFormatError, "line 1: unknown line tag '#c'")),
        ("w 0 2\nw 1 9223372036854775806\n", "edge-list",
         (GraphFormatError, "line 2: sum of vertex weights exceeds 64-bit range")),
        ("p edge 2 1\ne 1 3\n", "dimacs",
         (GraphFormatError, "line 2: edge mentions vertex 3 > declared n=2")),
        ("0 1\n", "no-such-format", (ValueError, "unknown format 'no-such-format'")),
        (b"0 1\n\xff\n", "edge-list",
         (UnicodeDecodeError, "'utf-8' codec can't decode byte 0xff in position 4: "
                              "invalid start byte")),
        # ids past the int32 range are rejected before anything of size n exists
        ("0 99999999999\n", "edge-list", (GraphFormatError, "line 1: vertex id out of int32 range")),
        ("0 2147483647\n", "edge-list", (GraphFormatError, "line 1: vertex id out of int32 range")),
        ("w 2147483647 1\n", "edge-list",
         (GraphFormatError, "line 1: vertex id out of int32 range")),
        ("0 1\n" + "9" * 20 + " 0\n", "edge-list",
         (GraphFormatError, "line 2: vertex id out of int32 range")),
        ("e 1 2147483648\n", "dimacs", (GraphFormatError, "line 1: vertex id out of int32 range")),
        ("p edge 2147483648 0\n", "dimacs",
         (GraphFormatError, "line 1: declared n out of int32 range")),
        # weights past 64 bits
        ("w 0 99999999999999999999\n", "edge-list",
         (GraphFormatError, "line 1: vertex weight exceeds 64-bit range")),
        ("w 0 9223372036854775808\nw 0 1\n", "edge-list",
         (GraphFormatError, "line 1: vertex weight exceeds 64-bit range")),
        # non-integer DIMACS fields
        ("p edge x 1\n", "dimacs", (GraphFormatError, "line 1: problem line has non-integer field")),
        ("e a b\n", "dimacs", (GraphFormatError, "line 1: edge line has non-integer field")),
        # the first edge line past the last p line's n; weight lines add up
        # in line order, each vertex's last one counting
        ("e 1 5\np edge 3 1\ne 1 2\ne 4 1\n", "dimacs",
         (GraphFormatError, "line 1: edge mentions vertex 5 > declared n=3")),
        ("w 0 9223372036854775807\n0 1\n1 2\n", "edge-list",
         (GraphFormatError, "line 1: sum of vertex weights exceeds 64-bit range")),
        ("w 0 9223372036854775000\nw 1 9223372036854775000\nw 0 1\n", "edge-list",
         (2, [], [1, 9223372036854775000])),
    ])
    def test_quirks_and_limits(self, source, fmt, expect):
        for loader in (load_graph, reference_load_graph):
            if isinstance(expect[0], type):
                with pytest.raises(expect[0]) as ei:
                    loader(source, fmt)
                assert type(ei.value) is expect[0] and str(ei.value) == expect[1]
                if expect[0] is GraphFormatError and expect[1].startswith("line "):
                    assert ei.value.line == int(expect[1].split(":")[0][5:])
            else:
                n, edges, weights = expect
                g = loader(source, fmt)
                assert g.n == n and g.edge_list() == edges
                assert g.vertex_weight.tolist() == (weights or [1] * n)

    def test_file_object_source(self):
        g = load_graph(io.BytesIO(b"w 1 4\n0 1\n"))
        assert g.n == 2 and g.vertex_weight.tolist() == [1, 4]

    def test_peak_memory_within_reference(self):
        """On a 256x256 grid with Pareto weights (a 2.2 MB text), load_graph's
        traced peak is no higher than the per-line reference's."""
        from sepkit.generators import grid_graph as gen_grid

        g = gen_grid(256)
        rng = np.random.default_rng(7)
        w = np.minimum(np.floor(10 * (1 + rng.pareto(1.5, g.n))), 10**6).astype(np.int64)
        text = dump_graph(Graph(g.n, np.stack([g.edge_u, g.edge_v], axis=1), vertex_weight=w))
        peaks = []
        for loader in (load_graph, reference_load_graph):
            tracemalloc.start()
            try:
                loader(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


class TestNeighborhood:
    def test_path_delta1(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert neighborhood(g, VertexSet([0]), 1) == {0, 1}

    def test_path_delta2(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert neighborhood(g, VertexSet([0]), 2) == {0, 1, 2}

    def test_empty(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert len(neighborhood(g, VertexSet(), 3)) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_composition(self, data):
        n = data.draw(st.integers(2, 12))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            max_size=24))
        g = Graph(n, list(edges))
        xs = VertexSet(data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
        d1 = data.draw(st.integers(1, 3))
        d2 = data.draw(st.integers(1, 3))
        lhs = neighborhood(g, xs, d1 + d2)
        rhs = neighborhood(g, neighborhood(g, xs, d1), d2)
        assert lhs == rhs


class TestInducedSubgraph:
    def test_c4_adjacent_pair(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        sub, mapping = induced_subgraph(c4, VertexSet([0, 1]))
        assert sub.n == 2 and sub.m == 1

    def test_c4_opposite_pair(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        sub, _ = induced_subgraph(c4, VertexSet([0, 2]))
        assert sub.n == 2 and sub.m == 0

    def test_k5_triple(self):
        k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        sub, mapping = induced_subgraph(k5, VertexSet([1, 3, 4]))
        assert sub.n == 3 and sub.m == 3
        assert sorted(mapping) == [1, 3, 4]

    def test_weights_carried(self):
        g = Graph(3, [(0, 1), (1, 2)], vertex_weight=[7, 1, 9])
        sub, mapping = induced_subgraph(g, VertexSet([0, 2]))
        assert sub.vertex_weight.tolist() == [7, 9]

    def test_components_commute_with_union_of_components(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        xs = VertexSet([0, 1, 4, 5])
        sub, mapping = induced_subgraph(g, xs)
        comps = connected_components(sub)
        back = {v: k for k, v in mapping.items()}
        lifted = [frozenset(back[x] for x in c) for c in comps]
        host = [frozenset(c.ids()) & frozenset(xs.ids()) for c in connected_components(g)]
        host = [c for c in host if c]
        assert sorted(lifted, key=min) == sorted(host, key=min)


class TestCsr:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_weights_sit_on_both_slots_of_their_edge(self, data):
        n = data.draw(st.integers(1, 30))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            max_size=3 * n))
        g = Graph(n, list(edges))
        w = np.arange(g.m, dtype=np.int64) * 7 + 1
        mat = g.csr(w)
        assert mat.nnz == 2 * g.m and (mat != mat.T).nnz == 0
        for i, (u, v) in enumerate(g.edge_list()):
            assert mat[u, v] == mat[v, u] == w[i]


class TestComponents:
    def test_empty(self):
        assert connected_components(Graph(0, [])) == []

    def test_two_disjoint_edges(self):
        comps = connected_components(Graph(4, [(0, 1), (2, 3)]))
        assert [len(c) for c in comps] == [2, 2]
        assert comps[0] == {0, 1}

    def test_grid_connected(self):
        comps = connected_components(grid_graph(3))
        assert len(comps) == 1 and len(comps[0]) == 9


class TestSymmetricComponents:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_labels_equal_undirected(self, data):
        # strong components of a symmetric matrix: same count and labels as
        # the undirected search, numbered by each component's smallest id
        n = data.draw(st.integers(1, 40))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] != t[1]), max_size=2 * n))
        mat = Graph(n, list(edges)).csr()
        ncomp, labels = symmetric_components(mat)
        ref_ncomp, ref_labels = csgraph.connected_components(mat, directed=False)
        assert ncomp == ref_ncomp and labels.tolist() == ref_labels.tolist()
        firsts = [int(np.flatnonzero(labels == c)[0]) for c in range(ncomp)]
        assert firsts == sorted(firsts)


class TestMaskedSubgraph:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_agrees_with_induced_subgraph(self, data):
        # edges only within blocks v % blocks, so masks span several components
        n = data.draw(st.integers(1, 14))
        blocks = data.draw(st.integers(1, 3))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] != t[1] and t[0] % blocks == t[1] % blocks),
            max_size=28))
        g = Graph(n, list(edges))
        ids = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        mask = VertexSet(ids).to_mask(n)
        sub, _ = induced_subgraph(g, VertexSet(ids))
        # the kernel's matrix: canonical, symmetric, float64, and its csgraph
        # queries equal the undirected ones on a reference CSR of G[ids]
        ms = MaskedSubgraph(g, np.asarray(ids))
        assert ms.mat.dtype == np.float64 and ms.mat.has_canonical_format
        assert (ms.mat != ms.mat.T).nnz == 0
        ref = sub.csr()
        ref_ncomp, ref_labels = csgraph.connected_components(ref, directed=False)
        ncomp, labels = ms.components()
        assert ncomp == ref_ncomp and labels.tolist() == ref_labels.tolist()
        # a LevelBFS on the local matrix: levels and parents equal dijkstra's
        # distances and predecessors, since local ids keep the global order
        for i in range(len(ids)):
            ref_dist, ref_pred = csgraph.dijkstra(ref, directed=False, unweighted=True, indices=i,
                                                  return_predecessors=True)
            bfs = LevelBFS(ms.mat, i)
            assert bfs.levels(np.arange(len(ids))).tolist() == \
                np.where(np.isinf(ref_dist), -1, ref_dist).astype(int).tolist()
            for j in bfs.order[1:].tolist():
                assert bfs.parent(j) == ref_pred[j]  # scipy marks "no predecessor" with -9999
        # components: same partition, numbered by smallest vertex id
        got_ids, ncomp, labels = masked_components(g, mask)
        assert got_ids.tolist() == ids
        comps = [[ids[i] for i in c] for c in connected_components(sub)]
        assert ncomp == len(comps)
        assert [[int(v) for v in got_ids[labels == c]] for c in range(ncomp)] == comps
        # BFS from one masked vertex on G[mask] over host ids: hop distances
        # equal those in G[mask], and every parent is a masked neighbor one
        # hop closer
        start = data.draw(st.sampled_from(ids))
        bfs = HostSubgraph(g, mask).bfs(start)
        dist = bfs.levels(np.arange(n))
        reach = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.neighbors(u).tolist():
                    if mask[w] and w not in reach:
                        reach[w] = reach[u] + 1
                        nxt.append(w)
            frontier = nxt
        assert {v: int(dist[v]) for v in range(n) if dist[v] >= 0} == reach
        assert sorted(bfs.order.tolist()) == sorted(reach)
        for v, d in reach.items():
            if v != start:
                p = bfs.parent(v)
                assert mask[p] and g.has_edge(v, p) and dist[p] == d - 1


class TestLevelBFS:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_levels_balls_and_predecessors(self, data):
        """On G[live] over host ids: distances equal csgraph.dijkstra's,
        ball(d) counts the vertices within d, asked in any order, and the
        predecessor is the largest-id live neighbor one level closer."""
        n = data.draw(st.integers(1, 40))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            max_size=3 * n))
        g = Graph(n, list(edges))
        live = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if not live.any():
            live[data.draw(st.integers(0, n - 1))] = True
        start = data.draw(st.sampled_from(np.flatnonzero(live).tolist()))
        sub = HostSubgraph(g, live)
        assert sub.mat.shape == (n, n) and sub.mat.has_canonical_format
        assert sub.mat.indices.dtype == np.int32 and (sub.mat != sub.mat.T).nnz == 0
        bfs = sub.bfs(start)
        assert sub.bfs(start) is bfs
        # reference: dijkstra on G[live] relabelled to local ids
        ids = np.flatnonzero(live)
        ref_sub, _ = induced_subgraph(g, VertexSet(ids.tolist()))
        ref_local = csgraph.dijkstra(ref_sub.csr(), directed=False, unweighted=True,
                                     indices=int(np.searchsorted(ids, start)))
        ref = np.full(n, np.inf)
        ref[ids] = ref_local
        finite = ref[np.isfinite(ref)].astype(int)
        top = int(finite.max())
        for d in data.draw(st.permutations(list(range(-1, top + 3)))):
            assert bfs.ball(d) == int((finite <= d).sum())
        ref_levels = np.where(np.isinf(ref), -1, ref).astype(int)
        assert bfs.levels(np.arange(n)).tolist() == ref_levels.tolist()
        assert sorted(bfs.order.tolist()) == np.flatnonzero(np.isfinite(ref)).tolist()
        for v in bfs.order[1:].tolist():
            closer = [u for u in g.neighbors(v).tolist() if live[u] and ref[u] == ref[v] - 1]
            assert bfs.parent(v) == max(closer)


class TestLocalBFS:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_level_bfs_on_unblocked_subgraph(self, data):
        """On sorted neighbor lists with a random blocked set: distances equal
        LevelBFS levels on G[unblocked + src], every parent is a neighbor one
        level closer, and distances never decrease along the visit order."""
        n = data.draw(st.integers(1, 24))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            max_size=3 * n))
        g = Graph(n, list(edges))
        adj = [g.neighbors(v).tolist() for v in range(n)]
        blocked = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        src = data.draw(st.integers(0, n - 1))
        order, dist, parent = local_bfs(adj, src, blocked)
        ids = np.flatnonzero(~np.array(blocked) | (np.arange(n) == src))
        ref = LevelBFS(MaskedSubgraph(g, ids).mat, int(np.searchsorted(ids, src)))
        want = np.full(n, -1)
        want[ids] = ref.levels(np.arange(len(ids)))
        assert dist == want.tolist()
        assert sorted(order) == np.flatnonzero(want >= 0).tolist() and order[0] == src
        assert parent[src] == -1
        for v in range(n):
            if v != src and dist[v] >= 0:
                assert g.has_edge(v, parent[v]) and dist[parent[v]] == dist[v] - 1
            elif v != src:
                assert parent[v] == -1
        assert all(dist[a] <= dist[b] for a, b in zip(order, order[1:]))
        assert local_bfs(adj, src)[1] == local_bfs(adj, src, [False] * n)[1]


class TestHostSubgraphRestrict:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_restrict_matches_fresh_build(self, data):
        """Along a chain of shrinking masks (random subsets, whole
        components, dead-dead edges), the edited subgraph answers every
        query as a fresh build of G[mask] does."""
        n = data.draw(st.integers(1, 40))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            max_size=3 * n))
        g = Graph(n, list(edges))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        sub = HostSubgraph(g, mask)
        for _ in range(data.draw(st.integers(1, 6))):
            mask = mask.copy()
            live = np.flatnonzero(mask)
            if len(live) and data.draw(st.booleans()):
                _, labels = symmetric_components(HostSubgraph(g, mask).mat)
                mask[labels == labels[data.draw(st.sampled_from(live.tolist()))]] = False
            else:
                kill = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
                mask &= ~np.array(kill)
            sub.restrict(mask)
            fresh = HostSubgraph(g, mask)
            assert sub.m == fresh.m == int((mask[g.edge_u] & mask[g.edge_v]).sum())
            assert (sub.mat != sub.mat.T).nnz == 0
            live = np.flatnonzero(mask)
            _, got = sub.components()
            _, want = fresh.components()
            assert (np.unique(got[live], return_inverse=True)[1].tolist()
                    == np.unique(want[live], return_inverse=True)[1].tolist())
            for start in data.draw(st.lists(st.sampled_from(live.tolist()), max_size=3)
                                   if len(live) else st.just([])):
                a, b = sub.bfs(start), fresh.bfs(start)
                assert a.order.tolist() == b.order.tolist()
                for d in range(-1, len(b.order) + 1):
                    assert a.ball(d) == b.ball(d)
                assert a.levels(np.arange(n)).tolist() == b.levels(np.arange(n)).tolist()
                for v in b.order[1:].tolist():
                    assert a.parent(v) == b.parent(v)


class TestMaskedDiameter:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_agrees_with_networkx(self, data):
        n = data.draw(st.integers(1, 14))
        edges = data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            max_size=30))
        g = Graph(n, list(edges))
        ids = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
        sub = nx.Graph()
        sub.add_nodes_from(ids)
        sub.add_edges_from((u, v) for u, v in g.edge_list() if u in ids and v in ids)
        want = nx.diameter(sub) if nx.is_connected(sub) else None
        assert masked_diameter(g, np.asarray(ids)) == want

    def test_singleton(self):
        g = grid_graph(3)
        assert masked_diameter(g, np.array([4])) == 0

    def test_path_over_three_source_blocks(self, monkeypatch):
        n = 1500
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        calls = []
        real = csgraph.shortest_path

        def counting(*args, **kwargs):
            calls.append(len(kwargs["indices"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(csgraph, "shortest_path", counting)
        assert masked_diameter(g, np.arange(n)) == n - 1
        assert len(calls) == 3 and sum(calls) == n
        assert max(calls) * n <= DIAMETER_BLOCK_ENTRIES
        # a sub-path, and two runs with a gap between them
        assert masked_diameter(g, np.arange(500, 1000)) == 499
        assert masked_diameter(g, np.r_[0:10, 20:30]) is None


class TestTotalWeight:
    def test_unit(self):
        g = Graph(6, [(0, 1)])
        assert total_weight(g, VertexSet(range(5))) == 5

    def test_empty(self):
        g = Graph(6, [(0, 1)])
        assert total_weight(g, VertexSet()) == 0

    def test_mixed(self):
        g = Graph(3, [(0, 1)], vertex_weight=[1, 2, 4])
        assert total_weight(g, VertexSet([0, 1, 2])) == 7


    @pytest.mark.parametrize("weights, total", [
        ([2**62, 2**62 - 1], 2**63 - 1),
        ([2**63 - 1, 0], 2**63 - 1),
        ([2**61, 2**61], 2**62),
        ([2**62, 2**62], None),
        ([2**63 - 1, 1], None),
    ])
    def test_graph_weight_total_limit(self, weights, total):
        if total is None:
            with pytest.raises(ValueError, match="sum of vertex weights exceeds 64-bit range"):
                Graph(len(weights), [], vertex_weight=weights)
        else:
            assert Graph(len(weights), [], vertex_weight=weights).total_vertex_weight == total


class TestSparsityGuard:
    def test_k5_mader_h3(self):
        k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        cert = sparsity_guard(k5, 3, "mader-proven")
        assert cert is not None and cert.m == 10 and cert.m > cert.threshold
        # density implies an actual K3 minor on this instance
        from sepkit.certificates import brute_force_minor_detect

        assert brute_force_minor_detect(k5, 3) is not None

    def test_empty_graph_passes(self):
        g = Graph(4, [])
        assert sparsity_guard(g, 2, "mader-proven") is None
        assert sparsity_guard(g, 2, "thomason-soft") is None

    def test_grid_thomason_h5(self):
        g = grid_graph(3)
        assert sparsity_guard(g, 5, "thomason-soft") is None

    def test_monotone_in_edges(self):
        # adding edges never flips a certificate back to pass
        n = 8
        all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        fired = False
        for m in range(1, len(all_edges) + 1):
            cert = sparsity_guard(Graph(n, all_edges[:m]), 3, "mader-proven")
            if fired:
                assert cert is not None
            fired = cert is not None

    def test_threshold_deterministic(self):
        assert density_threshold("mader-proven", 4, 100) == 200
        assert density_threshold("thomason-soft", 4, 100) == density_threshold("thomason-soft", 4, 100)


class TestVertexSet:
    def test_basic(self):
        s = VertexSet([3, 1, 2, 1])
        assert len(s) == 3 and list(s) == [1, 2, 3] and 2 in s

    def test_mask_roundtrip(self):
        s = VertexSet([0, 5, 9])
        assert VertexSet.from_mask(s.to_mask(12)) == s

    @pytest.mark.parametrize("n", [0, 1, 40, 1000])
    def test_from_mask_equals_list_constructor(self, n):
        mask = np.random.default_rng(n).random(n) < 0.3
        got = VertexSet.from_mask(mask)
        want = VertexSet(np.flatnonzero(mask).tolist())
        assert got == want and hash(got) == hash(want)
        assert got.ids() == want.ids() and list(got) == list(want)
        assert all(type(v) is int for v in got.ids())
