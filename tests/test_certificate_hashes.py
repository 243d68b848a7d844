"""Pinned certificate hashes: a fixed small corpus through every entry point.

Each case runs one algorithm on one generated input at a fixed seed and pins
the sha256 of its canonical JSON certificate.  A change that keeps behaviour
keeps every digest; a change that alters an output on purpose updates the
digest here and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from sepkit.approx_minor import approx_largest_clique_minor
from sepkit.certificates import (
    MinorWitness,
    brute_force_minor_detect,
    certificate_to_json,
    verify_output,
)
from sepkit.generators import generate_graph, planted_minor_graph
from sepkit.graph import Graph
from sepkit.minorfree import balanced_separator, minor_free_separator
from sepkit.shallow import shallow_separator, shallow_separator_balanced
from sepkit.small_minors import find_k4_witness
from sepkit.tradeoff import linear_time_separator, tradeoff_separator

SEED = 1


def _gen(spec: str):
    return lambda: generate_graph(spec, SEED)


def _pareto_grid(k: int):
    """Grid with heavy-tailed integer vertex weights."""

    def make():
        g = generate_graph(f"grid {k}")
        rng = np.random.Generator(np.random.PCG64(SEED))
        w = np.minimum(np.floor(10 * (1 + rng.pareto(1.5, g.n))), 10**6).astype(np.int64)
        return Graph(g.n, np.stack([g.edge_u, g.edge_v], axis=1), vertex_weight=w.tolist())

    return make


def _complete(n: int, isolated: int = 0):
    """K_n, plus light isolated vertices that leave the clique the heaviest
    component, so the loop's live subgraph turns dense after one iteration."""
    weights = [100] * n + [1] * isolated if isolated else None
    return lambda: Graph(n + isolated, [(i, j) for i in range(n) for j in range(i + 1, n)],
                         vertex_weight=weights)


def _dense_beside_light(spec: str, isolated: int):
    """A dense core of vertex weight 100 beside light isolated vertices: the
    whole graph passes the density guard, and the trade-off's quotient of the
    core, its heavy component, does not."""

    def make():
        core = generate_graph(spec, SEED)
        return Graph(core.n + isolated, np.stack([core.edge_u, core.edge_v], axis=1),
                     vertex_weight=[100] * core.n + [1] * isolated)

    return make


def _light_low_component(light: int = 20, heavy: int = 600):
    """A short path at the lowest ids beside a long one: the search from
    vertex 0 reaches a light component, so the loop labels the components of
    G[live] and tree-or-cut starts from another vertex."""

    def make():
        n = light + heavy
        return Graph(n, [(v, v + 1) for v in range(n - 1) if v != light - 1])

    return make


def _zero_weight_grid(k: int):
    """A k x k grid whose vertices all weigh 0: no search reaches more than
    half the live weight."""

    def make():
        g = generate_graph(f"grid {k}")
        return Graph(g.n, np.stack([g.edge_u, g.edge_v], axis=1),
                     vertex_weight=np.zeros(g.n, dtype=np.int64))

    return make


def _dumbbell(k: int):
    """Two k-vertex paths joined through vertex 0.  Once the first branch set
    takes the hub, the two remainders tie in weight, and the one with the
    smaller ids stays live."""

    def make():
        arm = [(v, v + 1) for v in range(1, k)]
        return Graph(1 + 2 * k, [(0, 1), (0, 1 + k)] + arm + [(u + k, v + k) for u, v in arm])

    return make


def _grid_beside_blowup():
    """grid 20 and a K6 blow-up (ids shifted by 400) joined by one edge: the
    separator cuts the blow-up off, and approx-minor finds K6 in it and lifts
    the witness back to host ids."""

    def make():
        grid, blow = generate_graph("grid 20", SEED), generate_graph("kh-blowup 6 12", SEED)
        edges = np.concatenate([np.stack([grid.edge_u, grid.edge_v], axis=1),
                                np.stack([blow.edge_u, blow.edge_v], axis=1) + grid.n,
                                [[0, grid.n]]])
        return Graph(grid.n + blow.n, edges)

    return make


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + inner + [(i, i + 5) for i in range(5)])


# name -> (input, algorithm)
CASES = {
    "shallow grid 12 ell=3": (_gen("grid 12"), lambda g: shallow_separator(g, 5, 3, 0.5, SEED)),
    "shallow K6 h=3": (_complete(6), lambda g: shallow_separator(g, 3, 2, 0.5, SEED)),
    "shallow live K8 h=4": (_complete(8, 30), lambda g: shallow_separator(g, 4, 2, 0.5, SEED)),
    "shallow live K12 report": (_complete(12, 30),
                                lambda g: shallow_separator(g, 5, 2, 0.5, SEED)),
    "shallow-balanced grid 24": (_gen("grid 24"),
                                 lambda g: shallow_separator_balanced(g, 5, 0.5, SEED)),
    "shallow-balanced grid 64": (_gen("grid 64"),
                                 lambda g: shallow_separator_balanced(g, 5, 0.5, SEED)),
    "shallow-balanced torus 12": (_gen("torus 12"),
                                  lambda g: shallow_separator_balanced(g, 5, 0.5, SEED)),
    "shallow-balanced path 300": (_gen("path 300"),
                                  lambda g: shallow_separator_balanced(g, 5, 0.5, SEED)),
    "shallow-balanced K5 blow-up": (_gen("kh-blowup 5 20"),
                                    lambda g: shallow_separator_balanced(g, 5, 0.5, SEED)),
    "shallow-balanced expander": (_gen("random-regular 200 3"),
                                  lambda g: shallow_separator_balanced(g, 5, 0.5, SEED)),
    "shallow-balanced dense report": (_gen("random-regular 100 30"),
                                      lambda g: shallow_separator_balanced(g, 5, 0.5, SEED)),
    "tradeoff pareto grid 24": (_pareto_grid(24),
                                lambda g: tradeoff_separator(g, 5, 0.8, 0.5, SEED)),
    "linear-time pareto grid 24": (_pareto_grid(24),
                                   lambda g: linear_time_separator(g, 5, 0.5, SEED)),
    "linear-time grid 64": (_gen("grid 64"), lambda g: linear_time_separator(g, 5, 0.5, SEED)),
    "tradeoff dense report": (_gen("random-regular 100 30"),
                              lambda g: tradeoff_separator(g, 5, 0.8, 0.5, SEED)),
    # the quotient run finds the minor: witnesses lifted through the classes
    "tradeoff kh-blowup 5 40": (_gen("kh-blowup 5 40"),
                                lambda g: tradeoff_separator(g, 5, 0.8, 0.5, SEED)),
    "tradeoff torus 12": (_gen("torus 12"), lambda g: tradeoff_separator(g, 5, 0.8, 0.5, SEED)),
    # the quotient run reports the density: a report on the 100-vertex
    # quotient, params "on": "quotient"
    "tradeoff quotient report": (_dense_beside_light("random-regular 100 10", 900),
                                 lambda g: tradeoff_separator(g, 5, 0.8, 0.5, SEED)),
    "minorfree grid 16 ell=1 c_r=0.05": (_gen("grid 16"),
                                         lambda g: minor_free_separator(g, 5, 1, 0.5, SEED, c_r=0.05)),
    "balanced grid 24 c_r=0.05": (_gen("grid 24"),
                                  lambda g: balanced_separator(g, 5, 0.5, SEED, c_r=0.05)),
    "balanced K5 blow-up c_r=0.05": (_gen("kh-blowup 5 100"),
                                     lambda g: balanced_separator(g, 5, 0.5, SEED, c_r=0.05)),
    "balanced dense report": (_gen("random-regular 100 30"),
                              lambda g: balanced_separator(g, 5, 0.5, SEED, c_r=0.05)),
    "approx-minor K6 blow-up": (_gen("kh-blowup 6 12"),
                                lambda g: approx_largest_clique_minor(g, 0.5, SEED).witness),
    # the recursion's lift: the witness is found on a piece of G - C
    "approx-minor grid 20 + K6 blow-up": (_grid_beside_blowup(),
                                          lambda g: approx_largest_clique_minor(g, 0.5, SEED).witness),
    "brute-force C4 h=3": (lambda: Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
                           lambda g: brute_force_minor_detect(g, 3)),
    "brute-force Petersen h=4": (_petersen, lambda g: brute_force_minor_detect(g, 4)),
    # the shallow loop's component-labelling fallback
    "shallow-balanced light low component": (
        _light_low_component(), lambda g: shallow_separator_balanced(g, 5, 0.5, SEED)),
    "shallow-balanced zero-weight grid": (
        _zero_weight_grid(12), lambda g: shallow_separator_balanced(g, 5, 0.5, SEED)),
    "shallow tied components ell=5": (_dumbbell(100),
                                      lambda g: shallow_separator(g, 4, 5, 0.5, SEED)),
}

HASHES = {
    "shallow grid 12 ell=3":
        "691dfda36bbffc5a12ea5669fdab4b507d3dcd351bdffbca8f8582086b63b975",
    "shallow K6 h=3":
        "171eb9540e31dd348bddf1a8a8a858c9567229a035c700e6930baa997fd5e92e",
    "shallow live K8 h=4":
        "1d4d2cf80031a3c674e8af54e64fb3b0b6d4026da6ddbf03fc9c4b0ed35caf44",
    "shallow live K12 report":
        "98217173b3dd9a8f7ea3c6ddeb5ed21c1e65b3e04a747b19f9cb2871db4270bc",
    "shallow-balanced grid 24":
        "eff9935f55faea7a5aedaad7542f96fe1871fe44b8cb33cbadd9b6ff53b90741",
    "shallow-balanced grid 64":
        "ed1a1daa7bed817b11e7d422a7c33ed16fdfef2244700c4735e600142ec49f80",
    "shallow-balanced torus 12":
        "a444a35a3e430170d4aecd60bb030ca28325bebdbced0301d56ecfb69fdebe9e",
    "shallow-balanced path 300":
        "45be85f335ffcaf49167fa4d629a77887b5b81d145cc3c1ce6c2d601d2adc843",
    "shallow-balanced K5 blow-up":
        "d6bf3de0327fd89d99e67ecef496766e7424d92c32b783d395644156b36bf27c",
    "shallow-balanced expander":
        "884368c9a08db5a8ef8251d93e634dd05e58875917d7e4f8f07097c59c671f6b",
    "shallow-balanced dense report":
        "fc9a2f09d4a2013bf2e1daac7bc1fac141eb9494ea52e8e9ac6c0211dd421b56",
    "tradeoff pareto grid 24":
        "4275fbf9963d9ac0e4a39232409cfa2fe8c652968f346c7f7b781d9313a2e117",
    "linear-time pareto grid 24":
        "f82685ec4adfcbfba307d059dbb9b92c20c01c33ddd01228a9874744577c8fcd",
    "linear-time grid 64":
        "4044dc82a38fbe36f37c30003887c3c1c429dc2865ae3de8c53ca5c88bd16ed0",
    "tradeoff dense report":
        "3e8c7bd47b7c5ce9c47c14b6fed57d76537d8fdb7f4196f545db7f8e3e5862e3",
    "tradeoff kh-blowup 5 40":
        "2881d9dcaed0607c1dd71d4bedec82490788eec4ace54ac443d8e5b80e2d9f32",
    "tradeoff torus 12":
        "c5ffbde0395478a00dc3e9f3b6f1e525e7bac209539999515ea74dca1fb68796",
    "tradeoff quotient report":
        "7ca82c9278a67fdf2d8e33d86febba68a7790536300f0f48a04617d70607042a",
    "minorfree grid 16 ell=1 c_r=0.05":
        "d877bb7b6e693e4df721bc6cfe5c94a623c7b646744c225141764ebacdcb82ce",
    "balanced grid 24 c_r=0.05":
        "0535210bec43e1ed5c62a6ac8441bc2268dc92e32704a043029f1a490b3052ba",
    "balanced K5 blow-up c_r=0.05":
        "be5942a13a031de2ed20e191e7eaedb0ba2fa8a50498ad62fa8ee1238fbf6b8f",
    "balanced dense report":
        "2d2e2eb5a9474fd44c78b8333d5989fc91185f654ff6278dbbe4d535c47517d3",
    "approx-minor K6 blow-up":
        "1f92de05fc8f6b521e6eaa919077b2b5d46fb5511c2a1036c7f9cdcaaab88534",
    "approx-minor grid 20 + K6 blow-up":
        "6560baac7338e0c733404ee6d4a7e62022cc7e0f881d15dcef16ac19d0c434f3",
    "brute-force C4 h=3":
        "bd4b5781875759a13811b97590f43c86d15f6f9d14b90f4e6e3f309bd8164d49",
    "brute-force Petersen h=4":
        "ff3c48a3c7368eabd8de2e852e44455cfa5b2c216a7e480676c202b4456f5bd9",
    "shallow-balanced light low component":
        "d3988070f3d03cf4569233bb12c71cbf74b923cec235cd4c314e0d9585e8957d",
    "shallow-balanced zero-weight grid":
        "474a23f6a0298b06d6895da630bcac4555eecdc90de03107aa607af2d5a27d16",
    "shallow tied components ell=5":
        "234ec9b5f1a082c49f0e1d89ff6e7545a98f75650d91f560949204f2683f419b",
}


@pytest.mark.parametrize("name", list(CASES))
def test_certificate_hash_is_pinned(name):
    make, run = CASES[name]
    g = make()
    out = run(g)
    assert verify_output(g, out).ok
    digest = hashlib.sha256(certificate_to_json(out).encode()).hexdigest()
    assert digest == HASHES[name]


# approx-minor returns its largest witness, not the exact K4 one it starts
# from, so the K4 extraction is pinned on its own.
K4_HASHES = {
    "grid 20": "3945b98e52e70163a5e01e283dc4dcf7cd69b0dc030964d15f511fc671c32b27",
    "torus 30": "8bf4416c1f500149e8934c1e158718f63dfac0c4c6e23e9996e4e1ef93acc461",
    "random-regular 500 3": "898145f6c436af49f55a27eb2c91c9c6b43a0db2933083fce637814dee90d9bd",
    "kh-blowup 6 120": "15a305744a952b088005c7bd9e7c6b24f07e9ee4a75797f1c082f1c2ba71a961",
}


@pytest.mark.parametrize("spec", list(K4_HASHES))
def test_k4_witness_hash_is_pinned(spec):
    g = generate_graph(spec, SEED)
    out = find_k4_witness(g)
    assert out is not None and verify_output(g, out).ok
    digest = hashlib.sha256(certificate_to_json(out).encode()).hexdigest()
    assert digest == K4_HASHES[spec]


# the construction's own witness: blob branch sets, first-found pair edges
PLANTED_HASHES = {
    60: "54d24a017a803ff1c6b45550ea9ed4fb87e25e77f0c455ed7825a693dbf69fe9",
    150: "ba6651280319752a2eb3e740e43fb6698b64e12cef243428ffb17e71b7175794",
}


@pytest.mark.parametrize("n", list(PLANTED_HASHES))
def test_planted_witness_hash_is_pinned(n):
    g, out = planted_minor_graph(n, 5, seed=1)
    assert verify_output(g, out).ok
    digest = hashlib.sha256(certificate_to_json(out).encode()).hexdigest()
    assert digest == PLANTED_HASHES[n]


@pytest.mark.parametrize("spec", ["random-regular 400 150", "random-regular 300 140"])
def test_dense_large_h_witness_verifies(spec):
    # Dense enough to pass the density guard at h=40 yet above the spanner
    # size target 4 k n^(1+1/k), so a (2k-1)-spanner of G would drop most
    # edges here; the shallow loop searches G[live] itself.
    g = generate_graph(spec, SEED)
    out = shallow_separator_balanced(g, 40, 0.5, SEED)
    assert isinstance(out, MinorWitness)
    assert verify_output(g, out).ok
