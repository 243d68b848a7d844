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
from sepkit.certificates import MinorWitness, certificate_to_json, verify_output
from sepkit.generators import generate_graph
from sepkit.graph import Graph
from sepkit.minorfree import balanced_separator, minor_free_separator
from sepkit.shallow import shallow_separator, shallow_separator_balanced
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


# name -> (input, algorithm)
CASES = {
    "shallow grid 12 ell=3": (_gen("grid 12"), lambda g: shallow_separator(g, 5, 3, 0.5, SEED)),
    "shallow K6 h=3": (_complete(6), lambda g: shallow_separator(g, 3, 2, 0.5, SEED)),
    "shallow live K8 h=4": (_complete(8, 30), lambda g: shallow_separator(g, 4, 2, 0.5, SEED)),
    "shallow live K12 report": (_complete(12, 30),
                                lambda g: shallow_separator(g, 5, 2, 0.5, SEED)),
    "shallow-balanced grid 24": (_gen("grid 24"),
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
    "tradeoff dense report": (_gen("random-regular 100 30"),
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
    "tradeoff dense report":
        "3e8c7bd47b7c5ce9c47c14b6fed57d76537d8fdb7f4196f545db7f8e3e5862e3",
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
}


@pytest.mark.parametrize("name", list(CASES))
def test_certificate_hash_is_pinned(name):
    make, run = CASES[name]
    g = make()
    out = run(g)
    assert verify_output(g, out).ok
    digest = hashlib.sha256(certificate_to_json(out).encode()).hexdigest()
    assert digest == HASHES[name]


@pytest.mark.parametrize("spec", ["random-regular 400 150", "random-regular 300 140"])
def test_dense_large_h_witness_verifies(spec):
    # Dense enough to pass the density guard at h=40 yet above the spanner
    # size target 4 k n^(1+1/k), so a (2k-1)-spanner of G would drop most
    # edges here; the shallow loop searches G[live] itself.
    g = generate_graph(spec, SEED)
    out = shallow_separator_balanced(g, 40, 0.5, SEED)
    assert isinstance(out, MinorWitness)
    assert verify_output(g, out).ok
