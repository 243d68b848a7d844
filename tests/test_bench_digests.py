"""Pinned benchmark certificates: one full-scale pass of each perfbench workload
at seed 1 must give the digest pinned here.

The digest is the sha256 of the pass's canonical certificates, so a change
that keeps every workload's certificates byte-identical keeps these pins.
A change that alters a certificate on purpose updates the digest here and
says why in CHANGES.md.  The test only reads perfbench.
"""

from __future__ import annotations

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


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_digest_is_pinned(workload):
    insts = wl.instances(workload, "full")
    graphs = {i.input.key: load_graph(wl.generate_text(i.input, SEED)[0]) for i in insts}
    rec = harness.run_pass(insts, graphs)
    assert rec.failed == 0, rec.failures
    assert rec.digest == DIGESTS[workload]
