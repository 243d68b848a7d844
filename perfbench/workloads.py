"""Workload definitions and seeded input generation.

Each workload is an ordered list of instances.  An instance names an input
text (a generator spec, optionally with heavy-tailed vertex weights), one
sepkit entry point with its parameters, and the result kind it must return.
Inputs are generated as edge-list text before any timing starts; the timed
code sees only that text, parsed with ``load_graph``.

Each workload also carries one small instance of the other result kind (a
"sentinel"), so every workload gates both sides of the kind check and its
``sep_size_total`` and ``minor_order_total`` are never zero.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

SEPARATOR = "separator"
WITNESS = "minor_witness"
REPORT = "minor_report"


@dataclass(frozen=True)
class Input:
    """One generated graph: generator spec and optional Pareto vertex weights."""

    gen: str
    pareto: bool = False

    @property
    def key(self) -> str:
        return self.gen + (" pareto" if self.pareto else "")


@dataclass(frozen=True)
class Instance:
    name: str
    input: Input
    algo: str          # key of ENTRY_POINTS in harness.py
    expect: str        # SEPARATOR, WITNESS or REPORT
    params: dict = field(default_factory=dict)


H5 = {"h": 5, "eps": 0.5}

# The algorithms' own seed is fixed: the workload seed varies the inputs only,
# so that runs on different seeds differ in input, not in random choices.
ALGO_SEED = 1

# Full-scale instances, sized so that one pass over a workload takes a few
# seconds on a 2-core machine and several passes fit in one run.
WORKLOADS: dict[str, list[Instance]] = {
    # Large sparse planar inputs that end in a separator: the shallow loop
    # over one big graph (per-iteration CSR rebuild, component labelling,
    # BFS, the spanner wrapper, packing and trimming) and the tradeoff
    # pre-phase.  The path forces many loop iterations.
    "grid-sep": [
        Instance("grid-128", Input("grid 128"), "shallow-balanced", SEPARATOR, H5),
        Instance("grid-256", Input("grid 256"), "shallow-balanced", SEPARATOR, H5),
        Instance("grid-256-pareto", Input("grid 256", pareto=True), "tradeoff", SEPARATOR,
                 {**H5, "delta": 0.8}),
        Instance("path-20000", Input("path 20000"), "shallow-balanced", SEPARATOR, H5),
        Instance("grid-256-linear", Input("grid 256"), "linear-time", SEPARATOR, H5),
        Instance("sentinel-k5-blowup", Input("kh-blowup 5 40"), "shallow-balanced", WITNESS, H5),
    ],
    # Inputs that contain a K_h minor: tree adoption and extension, witness
    # emission and witness verification, the density guard's report, and the
    # approx-minor / small-minors recursion.  Separator packing is idle.
    "minor-side": [
        Instance("torus-96", Input("torus 96"), "shallow-balanced", WITNESS, H5),
        Instance("expander-5000", Input("random-regular 5000 3"), "shallow-balanced", WITNESS, H5),
        Instance("k8-blowup", Input("kh-blowup 8 300"), "shallow-balanced", WITNESS,
                 {"h": 8, "eps": 0.5}),
        Instance("dense-regular", Input("random-regular 600 30"), "shallow-balanced", REPORT, H5),
        Instance("approx-k6-blowup", Input("kh-blowup 6 120"), "approx-minor", WITNESS,
                 {"eps": 0.5}),
        Instance("sentinel-grid-64", Input("grid 64"), "shallow-balanced", SEPARATOR, H5),
    ],
    # The bootstrapped separator at C_r = 0.05: the only workload where the
    # clustering, DDG and minorfree layers work, and where the shallow layer
    # runs as many small calls on cluster subgraphs rather than one long loop.
    "bootstrap": [
        Instance("grid-40", Input("grid 40"), "minorfree-balanced", SEPARATOR,
                 {**H5, "c_r": 0.05}),
        Instance("grid-56", Input("grid 56"), "minorfree-balanced", SEPARATOR,
                 {**H5, "c_r": 0.05}),
        Instance("sentinel-k5-blowup", Input("kh-blowup 5 100"), "minorfree-balanced", WITNESS,
                 {**H5, "c_r": 0.05}),
    ],
}

# Tiny stand-ins with the same entry points and expected kinds, for smoke tests.
TINY_INPUTS = {
    "grid 128": "grid 16", "grid 256": "grid 24", "path 20000": "path 300",
    "kh-blowup 5 40": "kh-blowup 5 20",
    "torus 96": "torus 12", "random-regular 5000 3": "random-regular 200 3",
    "kh-blowup 8 300": "kh-blowup 8 30", "random-regular 600 30": "random-regular 100 30",
    "kh-blowup 6 120": "kh-blowup 6 12", "grid 64": "grid 16",
    "grid 40": "grid 16", "grid 56": "grid 20", "kh-blowup 5 100": "kh-blowup 5 100",
}

# Set-up warms every entry point of a workload on this input (untimed work).
WARMUP_INPUT = Input("grid 12")


def instances(workload: str, scale: str = "full") -> list[Instance]:
    insts = WORKLOADS[workload]
    if scale == "full":
        return list(insts)
    return [Instance(i.name, Input(TINY_INPUTS[i.input.gen], i.input.pareto), i.algo,
                     i.expect, i.params) for i in insts]


def input_seed(seed: int, inp: Input) -> int:
    """Per-input generator seed derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{inp.key}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def generate_text(inp: Input, seed: int) -> tuple[str, int, int]:
    """Edge-list text of one input with its n and m; the same (input, seed)
    gives the same bytes."""
    from sepkit.generators import generate_graph
    from sepkit.graph import Graph, dump_graph

    s = input_seed(seed, inp)
    g = generate_graph(inp.gen, s)
    if inp.pareto:
        rng = np.random.Generator(np.random.PCG64(s))
        # heavy-tailed integer weights, capped so the total stays far from 2^63
        w = np.minimum(np.floor(10 * (1 + rng.pareto(1.5, g.n))), 10**6).astype(np.int64)
        g = Graph(g.n, np.stack([g.edge_u, g.edge_v], axis=1), vertex_weight=w.tolist())
    return dump_graph(g), g.n, g.m
