"""Benchmark harness and the one algorithm table: run_algorithm maps a name to
its entry point and defaults for `sep bench` suites and the CLI's solving
subcommands alike.  run_bench verifies every certificate and fits log-log time
exponents; clustering_diagnostics reports lemma-style sums."""

from __future__ import annotations

import json
import math
import time

import numpy as np

from .approx_minor import approx_largest_clique_minor
from .certificates import (
    MinorWitness,
    Separator,
    certificate_to_json,
    verify_output,
)
from .clustering import DEFAULT_C_R, NestedClustering, nested_r_clustering
from .generators import generate_graph
from .graph import Graph
from .minorfree import balanced_separator, minor_free_separator
from .shallow import ln_ceil, shallow_separator, shallow_separator_balanced
from .tradeoff import linear_time_separator, tradeoff_separator


class BenchVerificationError(RuntimeError):
    def __init__(self, row: dict, violations):
        self.row = row
        self.violations = violations
        super().__init__(f"certificate verification failed: {violations} on {row}")


def run_algorithm(g: Graph, algo: dict):
    """Dispatch one algorithm config; returns (result, stats, elapsed)."""
    name = algo["name"]
    h = algo.get("h", 3)
    eps = algo.get("eps", 0.5)
    seed = algo.get("seed", 0)
    stats: dict = {}
    t0 = time.perf_counter()
    if name == "shallow":
        out = shallow_separator(g, h, algo["ell"], eps, seed, stats=stats)
    elif name == "shallow-balanced":
        out = shallow_separator_balanced(g, h, eps, seed, stats=stats)
    elif name == "minorfree":
        out = minor_free_separator(g, h, algo["ell"], eps, seed, stats=stats,
                                   c_r=algo.get("c_r", DEFAULT_C_R))
    elif name == "minorfree-balanced":
        out = balanced_separator(g, h, eps, seed, stats=stats, c_r=algo.get("c_r", DEFAULT_C_R))
    elif name == "tradeoff":
        out = tradeoff_separator(g, h, algo.get("delta", 0.8), eps, seed, stats=stats)
    elif name == "linear-time":
        out = linear_time_separator(g, h, eps, seed, stats=stats)
    elif name == "approx-minor":
        res = approx_largest_clique_minor(g, eps, seed)
        out = res.witness
        stats["h_found"] = res.h_found
        stats["ratio_claim"] = res.ratio_claim["value"]
    else:
        raise ValueError(f"unknown algorithm {name!r}")
    elapsed = time.perf_counter() - t0
    return out, stats, elapsed


def result_kind(out) -> str:
    if isinstance(out, Separator):
        return "separator"
    if isinstance(out, MinorWitness):
        return "minor-witness"
    return "minor-report"


def run_bench(suite: dict, verify: bool = True) -> dict:
    """Execute the suite matrix; returns {rows, slopes, summary}."""
    if not isinstance(suite, dict):
        raise ValueError(f"a bench suite is a JSON object with 'instances' and 'algorithms', "
                         f"not {type(suite).__name__}")
    rows: list[dict] = []
    for inst in suite.get("instances", []):
        g = generate_graph(inst["gen"], inst.get("seed", 0))
        for algo in suite.get("algorithms", []):
            out, stats, elapsed = run_algorithm(g, algo)
            row = {
                "generator": inst["gen"],
                "instance_seed": inst.get("seed", 0),
                "n": g.n,
                "m": g.m,
                "algorithm": algo["name"],
                "h": algo.get("h"),
                "ell": algo.get("ell"),
                "kind": result_kind(out),
                "separator_size": len(out.C) if isinstance(out, Separator) else None,
                "iterations": stats.get("iterations"),
                "stats": {k: v for k, v in stats.items() if k != "iterations"},
                "wall_time": round(elapsed, 6),
            }
            if verify:
                rep = verify_output(g, out)
                if not rep.ok:
                    row["certificate"] = certificate_to_json(out)
                    raise BenchVerificationError(row, rep.violations)
            rows.append(row)
    slopes = fit_slopes(rows)
    return {"rows": rows, "slopes": slopes, "summary": summarize(rows, slopes)}


def fit_slopes(rows: list[dict]) -> dict:
    """Log-log slope of wall time vs n per algorithm (needs >= 2 sizes)."""
    groups: dict[str, list[tuple[int, float]]] = {}
    for r in rows:
        groups.setdefault(r["algorithm"], []).append((r["n"], r["wall_time"]))
    out = {}
    for name, pts in groups.items():
        sizes = sorted({n for n, _ in pts})
        if len(sizes) < 2:
            continue
        xs = np.log([n for n, _ in pts])
        ys = np.log([max(t, 1e-9) for _, t in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
        out[name] = round(slope, 4)
    return out


def summarize(rows: list[dict], slopes: dict) -> str:
    lines = ["generator            n       m     algorithm           kind           |C|     time(s)"]
    for r in rows:
        lines.append(
            f"{r['generator']:<18} {r['n']:>7} {r['m']:>7}  {r['algorithm']:<18} "
            f"{r['kind']:<14} {str(r['separator_size'] or '-'):>5}  {r['wall_time']:>9.3f}")
    if slopes:
        lines.append("")
        lines.append("fitted log-log time exponents:")
        for name, s in sorted(slopes.items()):
            lines.append(f"  {name:<20} {s:+.3f}")
    return "\n".join(lines)


def rows_deterministic_view(rows: list[dict]) -> str:
    """Rows serialized without timing fields (reproducibility checks)."""
    clean = []
    for r in rows:
        r2 = {k: v for k, v in r.items() if k != "wall_time"}
        clean.append(r2)
    return json.dumps(clean, sort_keys=True)


def clustering_diagnostics(g: Graph, r: int, h: int, eps: float) -> dict:
    """Lemma-style sums over a fully materialized nested clustering."""
    nc = nested_r_clustering(g, r, h, eps, c_r=0.05)
    if not isinstance(nc, NestedClustering) or nc.materialize_all() is not None:
        return {"minor_side": True}
    s1 = sum(c.n * len(c.boundary) for c in nc.clusters)
    s3 = sum(len(c.boundary) ** 3 for c in nc.clusters)
    n = g.n
    lnn = ln_ceil(n)
    ell = max(1.0, n / (h * h * max(r, 1)))
    return {
        "clusters": len(nc.clusters),
        "leaves": nc.leaf_count(),
        "sum_C_dC": s1,
        "sum_dC_cubed": s3,
        "bound_ref_sum1": h * n ** 1.5 / math.sqrt(ell) * lnn,
        "bound_ref_sum3": (h * h * n ** 1.5 / math.sqrt(ell) + h ** 4 * n) * lnn,
    }
