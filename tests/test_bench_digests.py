"""Pinned benchmark certificates: one full-scale pass of each perfbench workload
at seed 1 must give the digest pinned here.

The digest is the sha256 of the pass's canonical certificates, so a change
that keeps every workload's certificates byte-identical keeps these pins.
Each instance's certificate is pinned too, so a mismatch names the instance
that moved.  A change that alters a certificate on purpose updates the
digests here and says why in CHANGES.md.  The test only reads perfbench.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

import sepkit  # noqa: E402,F401  (loads every module the harness looks its entry points up in)
from sepkit.graph import load_graph  # noqa: E402
from perfbench import harness, workloads as wl  # noqa: E402

SEED = 1

DIGESTS = {
    "grid-sep": "a78f37f6175c1c7cb55406c3dd782d64c1985d097e3cb702439df9efe3f1f5ef",
    "minor-side": "ecbb5054359833a09c858543df062e4cba61b3d349258062cb6b1a30760228d3",
    "bootstrap": "1c205517deebfb4d945d37eb1913d49ef38566e9f9b462fac899161ae3e13edf",
}

# workload -> instance -> sha256 of its canonical certificate
CERTS = {
    "grid-sep": {
        "grid-128": "04d5b23b47e1e14465ab2c848c8add7c47c4925088f407035f7d267021e5409c",
        "grid-256": "c2acba14d292f821d21fecf5647366efae4c9ce2a19719d16cb1c18ee2eae2e2",
        "grid-256-pareto": "6d9800235c9ba7dcd6466bf8a41055c4c691a1c387a15cc3992b4f499bc34803",
        "path-20000": "b84fbff5873f527cfc5efea7b7e2a9bc639f2b8d224bc097fc2d28360ac29942",
        "grid-256-linear": "d1e88f9249d83f9b4999031641fee735994010f935ad145ad3288ae3ca41002c",
        "sentinel-k5-blowup": "5b7aa98def39588ed1b2fc196f5b7244997db8d5b1cfad76de18bedb123ee656",
    },
    "minor-side": {
        "torus-96": "1aaeeed3360e3b59b1f654c984cb83ce0f5edf736a2b20330211d876e2abef4d",
        "expander-5000": "98cea4e81914d9960ffc855a3fb07dda98125776101425c43f6e002db99f304e",
        "k8-blowup": "c2c1c245bd215091f6712191d0db1139579552d6e051c2a78664c268fb782469",
        "dense-regular": "e8831ea5e2a8edb1671ef4d67e0b43cf822d8296658966ff2bc26228255f7091",
        "approx-k6-blowup": "b99603a168cf4d492c14bbe07bbafc0698d3782bd78f272011cd9fe2b19d3ce8",
        "sentinel-grid-64": "ed1a1daa7bed817b11e7d422a7c33ed16fdfef2244700c4735e600142ec49f80",
    },
    "bootstrap": {
        "grid-40": "b4531c6f545ec9c7ff9606b96e78e032c71fbf99cc8e541fcdb367188521cca5",
        "grid-56": "a03ceadc12e7f03888d281e2a38ca619342f145f2e70e7b5ec78a01938305022",
        "sentinel-k5-blowup": "bcdcdcff02d7f6c5eb1dab7cbda6bb5f65ec04566ec29a6661ba86e8a2d248c2",
    },
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_digest_is_pinned(workload):
    insts = wl.instances(workload, "full")
    graphs = {i.input.key: load_graph(wl.generate_text(i.input, SEED)[0]) for i in insts}
    rec = harness.run_pass(insts, graphs)
    assert rec.failed == 0, rec.failures
    got = {i.name: hashlib.sha256(c.encode()).hexdigest() for i, c in zip(insts, rec.certs)}
    assert got == CERTS[workload]
    assert rec.digest == DIGESTS[workload]
