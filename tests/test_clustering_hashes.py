"""Pinned clustering-layer outputs: the nested hierarchy and the G - X
decomposition on a fixed corpus.

Certificates only see what the bootstrapped loop finally returns; these pins
hold the intermediate structures themselves, so a refactor of the clustering
layer that keeps behaviour keeps every digest.  A change that alters them on
purpose updates the digest here and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from sepkit.clustering import (
    ActiveState,
    NestedClustering,
    decompose_active_complement,
    nested_r_clustering,
)
from sepkit.generators import generate_graph

C_R = 0.05
EPS = 0.5
FLIPS = 40

# spec -> (r, h, seed); the seed drives the generator (the clustering has none)
CASES = {
    "grid 24": (20, 4, 1),
    "torus 20": (30, 4, 2),
    "path 300": (12, 3, 1),
    "random-regular 300 3": (40, 4, 3),
    "kh-blowup 5 40": (30, 5, 1),
    "kh-blowup 8 1": (8, 10, 1),   # K8: clusters of diameter 1 take the star split
}

HIERARCHY = {
    "grid 24":
        "a5a87158ebf49eb849502d59263c600aec815db7f7452b54aa08d6d1948c0336",
    "torus 20":
        "c823205e6a44ec4a9bd829f815855c4f036d3bea9657ff9006628aa0d2f2487d",
    "path 300":
        "20f2ae12134a8a80fa9c460f56ed6bec6a7da9168f65ed071df05c5e9b14a52a",
    "random-regular 300 3":
        "ac7443ebf7dee3bbf552a0e3fd6b6aafff8f267fc940d535d9261f32bd4cf1e0",
    "kh-blowup 5 40":
        "828e5e614d10ab87b6f6e2013fb403794e1723ce7dd052f963920da885e1967b",
    "kh-blowup 8 1":
        "ae85569d28e91d40e3f9bb199c86dc61e980944f2589213625ae8bf2fbb3f915",
}

DECOMPOSE = {
    "grid 24":
        "2f05d4b5f03499fd307fa2682d574c197c682f483840abf4c1e244b4c489bbee",
    "torus 20":
        "d45d7dffe84a42a9270f381c282360f9269b450bed31639b1114a10c862bdc3a",
    "path 300":
        "4bb6b025a37da0e9ae78529bb173a4bec51b0460b19b354ea3d92317f3ef5b87",
    "random-regular 300 3":
        "f44131a3c7bc823d78be92cb9de74c7e25b5857c33db10081d9690976744b8e2",
    "kh-blowup 5 40":
        "bfc32c074fc00cb3bf37050638a0a30ff8c52e32cace9dc056549bb642342b5b",
    "kh-blowup 8 1":
        "32ed90a140b650b22535ca74c0c9cc7e2d7d067bc142569f31a183368bc05500",
}


def _nested(spec: str) -> NestedClustering:
    r, h, seed = CASES[spec]
    g = generate_graph(spec, seed)
    nc = nested_r_clustering(g, r, h, EPS, c_r=C_R)
    assert isinstance(nc, NestedClustering)
    return nc


def hierarchy_digest(spec: str) -> str:
    nc = _nested(spec)
    nc.materialize_all()
    return hashlib.sha256(json.dumps(nc.to_doc(), sort_keys=True).encode()).hexdigest()


def decompose_digest(spec: str) -> str:
    """Digest of the decomposition after each flip of a seeded sequence.

    The sequence activates the neighbours of random centres, so G - X falls
    apart into several components; after every fifth activation the vertex
    activated two steps earlier turns passive again.  A graph with fewer
    than FLIPS vertices activates each of them.  The hierarchy is demanded
    lazily, as the bootstrapped loop demands it.
    """
    nc = _nested(spec)
    g = nc.g
    flips = min(FLIPS, g.n)
    rnd = random.Random(CASES[spec][2])
    order: list[int] = []
    while len(order) < flips:
        for u in g.neighbors(rnd.randrange(g.n)).tolist():
            if u not in order and len(order) < flips:
                order.append(u)
    st = ActiveState(nc)
    digest = hashlib.sha256()
    for i, v in enumerate(order):
        st.set_vertex_state(v, "active")
        digest.update(repr(decompose_active_complement(st)).encode())
        if i % 5 == 4:
            st.set_vertex_state(order[i - 2], "passive")
            digest.update(repr(decompose_active_complement(st)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("spec", sorted(CASES))
def test_hierarchy_hash_is_pinned(spec):
    assert hierarchy_digest(spec) == HIERARCHY[spec]


@pytest.mark.parametrize("spec", sorted(CASES))
def test_decompose_hash_is_pinned(spec):
    assert decompose_digest(spec) == DECOMPOSE[spec]
