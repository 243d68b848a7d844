"""Deterministic graph generators for tests and the benchmark harness."""

from __future__ import annotations

import re

import numpy as np

from .certificates import MinorWitness, minor_witness
from .graph import ID_LIMIT, Graph


def grid_graph(k: int) -> Graph:
    idx = np.arange(k * k).reshape(k, k)
    right = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    down = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    return Graph(k * k, np.concatenate([right, down]))


def torus_graph(k: int) -> Graph:
    idx = np.arange(k * k).reshape(k, k)
    right = np.stack([idx.ravel(), np.roll(idx, -1, axis=1).ravel()], axis=1)
    down = np.stack([idx.ravel(), np.roll(idx, -1, axis=0).ravel()], axis=1)
    return Graph(k * k, np.concatenate([right, down]))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def binary_tree_graph(depth: int) -> Graph:
    """The complete binary tree of the given depth: 2^(depth+1) - 1 vertices."""
    # 2^(d+1) - 1 <= ID_LIMIT = 2^31 - 1 exactly when d <= 30; the test
    # runs before 2^(depth+1) is computed, which a huge depth makes costly
    max_depth = ID_LIMIT.bit_length() - 1
    if not 0 <= depth <= max_depth:
        raise ValueError(f"binary-tree depth {depth} is outside 0..{max_depth}: a tree has "
                         f"2^(depth+1) - 1 vertices, at most {ID_LIMIT} int32 ids")
    n = 2 ** (depth + 1) - 1
    return Graph(n, [(v, (v - 1) // 2) for v in range(1, n)])


def random_regular_graph(n: int, d: int, seed: int = 0) -> Graph:
    """d-regular simple graph: circulant base randomized by double-edge swaps."""
    if n * d % 2 != 0:
        raise ValueError("n*d must be even")
    if d >= n:
        raise ValueError("d must be below n")
    edges = set()
    for off in range(1, d // 2 + 1):
        for i in range(n):
            j = (i + off) % n
            edges.add((min(i, j), max(i, j)))
    if d % 2 == 1:
        for i in range(n // 2):
            j = i + n // 2
            edges.add((i, j))
    rng = np.random.Generator(np.random.PCG64(seed))
    elist = sorted(edges)
    swaps = 10 * len(elist)
    eset = set(elist)
    for _ in range(swaps):
        i, j = rng.integers(0, len(elist), size=2)
        (a, b), (c, e) = elist[i], elist[j]
        if rng.integers(0, 2):
            c, e = e, c
        # rewire (a,b),(c,e) -> (a,c),(b,e) when it stays simple
        if len({a, b, c, e}) < 4:
            continue
        n1 = (min(a, c), max(a, c))
        n2 = (min(b, e), max(b, e))
        if n1 in eset or n2 in eset:
            continue
        eset.discard(elist[i])
        eset.discard(elist[j])
        eset.add(n1)
        eset.add(n2)
        elist[i], elist[j] = n1, n2
    return Graph(n, sorted(eset))


def planted_minor_graph(n: int, h: int, seed: int = 0) -> tuple[Graph, MinorWitness]:
    """h connected blobs with all pairwise edges, padded by a grid remainder.

    Returns the graph and the construction's own witness (blob branch sets).
    """
    if h < 2 or n < 3 * h:
        raise ValueError("need n >= 3h and h >= 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    blob_total = max(h, n // 3)
    sizes = np.full(h, blob_total // h, dtype=np.int64)
    sizes[: blob_total % h] += 1
    edges: list[tuple[int, int]] = []
    blobs: list[np.ndarray] = []
    start = 0
    for i in range(h):
        ids = np.arange(start, start + sizes[i])
        blobs.append(ids)
        # random spanning tree over the blob
        for j in range(1, len(ids)):
            edges.append((int(ids[rng.integers(0, j)]), int(ids[j])))
        start += int(sizes[i])
    for i in range(h):
        for j in range(i + 1, h):
            a = int(blobs[i][rng.integers(0, len(blobs[i]))])
            b = int(blobs[j][rng.integers(0, len(blobs[j]))])
            edges.append((a, b))
    # planar padding: a path over the remaining ids, hooked to blob 0
    rest = np.arange(start, n)
    for j in range(1, len(rest)):
        edges.append((int(rest[j - 1]), int(rest[j])))
    if len(rest):
        edges.append((int(blobs[0][0]), int(rest[0])))
    g = Graph(n, edges)
    return g, minor_witness(g, blobs)


def kh_blowup_graph(h: int, blow: int, seed: int = 0, inter: int = 0) -> Graph:
    """K_h with every vertex expanded into a low-diameter blob of `blow` vertices.

    Blobs get shortcut chords on top of a random spanning tree, and each blob
    pair is joined by several random edges (default max(3, blow // 4)), so the
    planted minor is robust to vertex removals.
    """
    n = h * blow
    rng = np.random.Generator(np.random.PCG64(seed))
    if inter <= 0:
        inter = max(3, blow // 4)
    edges = []
    for i in range(h):
        ids = np.arange(i * blow, (i + 1) * blow)
        for j in range(1, blow):
            edges.append((int(ids[rng.integers(0, j)]), int(ids[j])))
        for _ in range(blow // 2):
            a, b = rng.integers(0, blow, size=2)
            if a != b:
                edges.append((int(ids[a]), int(ids[b])))
        for j in range(i + 1, h):
            jds = np.arange(j * blow, (j + 1) * blow)
            for _ in range(inter):
                a = int(ids[rng.integers(0, blow)])
                b = int(jds[rng.integers(0, blow)])
                edges.append((a, b))
    return Graph(n, edges)


# spec name -> (each field's name and range, the vertex count of the fields
# (None where the range bounds it), the generator called with the fields
# and the seed)
GENERATORS = {
    "grid": ((("k", 0, ID_LIMIT),), lambda k: k * k, lambda k, seed: grid_graph(k)),
    "torus": ((("k", 2, ID_LIMIT),), lambda k: k * k, lambda k, seed: torus_graph(k)),
    "path": ((("n", 0, ID_LIMIT),), None, lambda n, seed: path_graph(n)),
    # binary_tree_graph checks the depth itself, before any arithmetic
    "binary-tree": ((("depth", -ID_LIMIT, ID_LIMIT),), None,
                    lambda depth, seed: binary_tree_graph(depth)),
    "random-regular": ((("n", 1, ID_LIMIT), ("d", 0, ID_LIMIT)), None, random_regular_graph),
    "planted-minor": ((("n", 0, ID_LIMIT), ("h", 2, ID_LIMIT)), None,
                      lambda n, h, seed: planted_minor_graph(n, h, seed)[0]),
    "kh-blowup": ((("h", 0, ID_LIMIT), ("blow", 1, ID_LIMIT)), lambda h, blow: h * blow,
                  kh_blowup_graph),
}

_INT = re.compile(r"[+-]?[0-9]+")


def generate_graph(spec: str, seed: int = 0) -> Graph:
    """Parse a generator spec like 'grid 8', 'random-regular 100 4', 'path 50'.

    The spec is checked before anything is built: a known name, one ASCII
    integer per field, each field in its range and at most ID_LIMIT
    vertices.  A spec that fails the check, or that its generator rejects,
    raises ValueError naming the spec.
    """
    parts = spec.split()
    kind = parts[0] if parts else ""
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator {kind!r} in spec {spec!r}; "
                         f"known: {', '.join(GENERATORS)}")
    fields, size, build = GENERATORS[kind]
    where = f"generator spec {spec!r}"
    if len(parts) - 1 != len(fields):
        usage = " ".join([kind, *(name for name, _, _ in fields)])
        raise ValueError(f"{where}: expected {usage!r}")
    args = []
    for (name, lo, hi), tok in zip(fields, parts[1:]):
        if not _INT.fullmatch(tok):
            raise ValueError(f"{where}: {name} = {tok!r} is not an integer")
        # more than 10 digits is outside every range (and int() of a huge
        # token is itself costly)
        if len(tok.lstrip("+-").lstrip("0")) > 10 or not lo <= int(tok) <= hi:
            raise ValueError(f"{where}: {name} = {tok} is outside {lo}..{hi}")
        args.append(int(tok))
    if size is not None and size(*args) > ID_LIMIT:
        raise ValueError(f"{where}: {size(*args)} vertices, more than {ID_LIMIT}")
    try:
        return build(*args, seed)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from e
