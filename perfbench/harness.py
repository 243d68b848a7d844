"""Closed-loop benchmark of sepkit: set-up, timed passes, correctness gate.

One caller works through a workload's instances in order; each instance
starts only after the previous certificate was verified and serialized.  A
pass is one such walk over every instance.  A run repeats passes for the
requested number of seconds and reports per-pass medians.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from . import workloads as wl

SETUP_REPS = 5

# entry point -> (module, function, call adapter); functions are looked up on
# the module at call time so that trace wrappers, when installed, are used
ENTRY_POINTS = {
    "shallow-balanced": ("sepkit.shallow", "shallow_separator_balanced",
                         lambda f, g, p: f(g, p["h"], p["eps"], wl.ALGO_SEED)),
    "tradeoff": ("sepkit.tradeoff", "tradeoff_separator",
                 lambda f, g, p: f(g, p["h"], p["delta"], p["eps"], wl.ALGO_SEED)),
    "linear-time": ("sepkit.tradeoff", "linear_time_separator",
                    lambda f, g, p: f(g, p["h"], p["eps"], wl.ALGO_SEED)),
    "minorfree-balanced": ("sepkit.minorfree", "balanced_separator",
                           lambda f, g, p: f(g, p["h"], p["eps"], wl.ALGO_SEED, c_r=p["c_r"])),
    "approx-minor": ("sepkit.approx_minor", "approx_largest_clique_minor",
                     lambda f, g, p: f(g, p["eps"], wl.ALGO_SEED)),
}


def _fn(module: str, name: str):
    return getattr(sys.modules[module], name)


def result_kind(out) -> str:
    from sepkit.certificates import MinorReport, MinorWitness, Separator

    if isinstance(out, Separator):
        return wl.SEPARATOR
    if isinstance(out, MinorWitness):
        return wl.WITNESS
    if isinstance(out, MinorReport):
        return wl.REPORT
    return type(out).__name__


@dataclass
class Pass:
    wall_s: float = 0.0
    solve_s: float = 0.0
    verify_s: float = 0.0
    sep_size_total: int = 0
    minor_order_total: int = 0
    attempted: int = 0
    failed: int = 0
    certs: list = field(default_factory=list)   # canonical JSON per instance, "" on failure
    times: dict = field(default_factory=dict)   # instance -> [solve s, verify s]
    failures: list = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.certs).encode()).hexdigest()


def run_instance(inst: wl.Instance, g, rec: Pass) -> None:
    """Solve, verify and serialize one instance; failures are counted, not raised."""
    module, name, call = ENTRY_POINTS[inst.algo]
    rec.attempted += 1
    cert = ""
    try:
        t0 = time.perf_counter()
        out = call(_fn(module, name), g, inst.params)
        t1 = time.perf_counter()
        order = None
        if inst.algo == "approx-minor":
            order, out = out.h_found, out.witness
        rep = _fn("sepkit.certificates", "verify_output")(g, out)
        t2 = time.perf_counter()
        cert = _fn("sepkit.certificates", "certificate_to_json")(out)
        rec.solve_s += t1 - t0
        rec.verify_s += t2 - t1
        rec.times[inst.name] = [t1 - t0, t2 - t1]
        kind = result_kind(out)
        if not rep.ok:
            rec.failures.append({"instance": inst.name, "why": "verify",
                                 "violations": [list(v) for v in rep.violations[:5]]})
        elif kind != inst.expect:
            rec.failures.append({"instance": inst.name, "why": "kind",
                                 "got": kind, "expected": inst.expect})
        else:
            if kind == wl.SEPARATOR:
                rec.sep_size_total += len(out.C)
            elif kind == wl.WITNESS:
                rec.minor_order_total += order if order is not None else len(out.branch_sets)
            rec.certs.append(cert)
            return
    except Exception:  # one bad instance must not end the run
        rec.failures.append({"instance": inst.name, "why": "exception",
                             "traceback": traceback.format_exc(limit=8)})
    rec.failed += 1
    rec.certs.append("")


def run_pass(insts, graphs, tracer=None, pass_id: int = 0) -> Pass:
    rec = Pass()
    t0 = time.perf_counter()
    for i, inst in enumerate(insts):
        if tracer is not None:
            tracer.instance, tracer.pass_id = i, pass_id
        run_instance(inst, graphs[inst.input.key], rec)
    rec.wall_s = time.perf_counter() - t0
    return rec


def load_all(texts: dict, warm_text: str, insts) -> dict:
    """Parse every input text, then warm each entry point on a small graph."""
    load = _fn("sepkit.graph", "load_graph")
    graphs = {key: load(text) for key, text in texts.items()}
    warm = load(warm_text)
    seen = set()
    for inst in insts:
        if inst.algo not in seen:
            seen.add(inst.algo)
            run_instance(inst, warm, Pass())
    return graphs


def timed_setup(texts, warm_text, insts) -> tuple[float, dict]:
    t0 = time.perf_counter()
    graphs = load_all(texts, warm_text, insts)
    return time.perf_counter() - t0, graphs


def measure(insts, graphs, seconds: float, tracer=None) -> list[Pass]:
    """Run passes until `seconds` have elapsed (at least one pass)."""
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(insts, graphs, tracer, len(passes)))
    return passes


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def end_to_end(passes: list[Pass], setup_times: list[float]) -> dict:
    med = statistics.median
    return {
        "wall_s": (med([p.wall_s for p in passes]), "s"),
        "solve_s": (med([p.solve_s for p in passes]), "s"),
        "verify_s": (med([p.verify_s for p in passes]), "s"),
        "setup_s": (med(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "sep_size_total": (med([p.sep_size_total for p in passes]), "vertices"),
        "minor_order_total": (med([p.minor_order_total for p in passes]), "branch-sets"),
        "failed_frac": (sum(p.failed for p in passes) / sum(p.attempted for p in passes),
                        "ratio"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str, out_dir: str) -> dict:
    """One benchmark run; returns the result document (also written to out_dir)."""
    env = environment()
    insts = wl.instances(workload, scale)
    inputs = {i.input.key: i.input for i in insts}
    texts, manifest = {}, []
    for k, inp in inputs.items():
        texts[k], n, m = wl.generate_text(inp, seed)
        data = texts[k].encode()
        manifest.append({"input": k, "generator_seed": wl.input_seed(seed, inp), "n": n, "m": m,
                         "text_bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()})
    warm_text = wl.generate_text(wl.WARMUP_INPUT, seed)[0]

    setup_times = []
    for _ in range(SETUP_REPS):
        dt, graphs = timed_setup(texts, warm_text, insts)
        setup_times.append(dt)
    # a traced run spends half its time untraced, before any wrapper exists,
    # so that the tracing overhead compares like with like in one process
    passes = measure(insts, graphs, seconds / 2 if trace else seconds)
    e2e = end_to_end(passes, setup_times)

    doc = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "environment": env, "instances": manifest,
        "expected": {i.name: i.expect for i in insts},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "digest": passes[0].digest,
        "digest_repeats": all(p.digest == passes[0].digest for p in passes),
        "algorithm_seed": wl.ALGO_SEED,
        "setup_times": setup_times,
        "passes": [{"wall_s": p.wall_s, "solve_s": p.solve_s, "verify_s": p.verify_s,
                    "failed": p.failed, "instances": p.times} for p in passes],
    }
    all_passes = list(passes)

    if trace:
        from . import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            graphs = load_all(texts, warm_text, insts)
            t_passes = measure(insts, graphs, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        all_passes += t_passes
        layer = _layer_metrics(tracer, t_passes)
        traced_wall = statistics.median([p.wall_s for p in t_passes])
        layer["trace.overhead_s"] = traced_wall - e2e["wall_s"][0]
        layer["trace.overhead_frac"] = layer["trace.overhead_s"] / e2e["wall_s"][0]
        # tracing must not change behaviour: certificates byte-identical
        mismatched = sum(1 for p in t_passes for a, b in zip(p.certs, passes[0].certs) if a != b)
        doc["traced_digest"] = t_passes[0].digest
        doc["traced_mismatches"] = mismatched
        doc["traced_wall_s"] = traced_wall
        doc["per_layer"] = layer
        doc["scipy_by_module"] = tracing.kernel_by_module(
            tracer, [i for i, s in enumerate(tracer.spans) if s[5] == 0])
        spans_path = os.path.join(out_dir, _stem(workload, seed, trace, scale) + "-spans.json.gz")
        with gzip.open(spans_path, "wt") as fh:
            json.dump(tracer.dump(), fh)
        doc["spans_file"] = os.path.relpath(spans_path)
    else:
        mismatched = 0

    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes) + mismatched
    doc["attempted"], doc["failed"] = attempted, failed
    doc["failures"] = [f for p in all_passes for f in p.failures][:20]
    doc["correct"] = failed == 0
    with open(os.path.join(out_dir, _stem(workload, seed, trace, scale) + ".json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return doc


def _stem(workload, seed, trace, scale) -> str:
    return f"{workload}-seed{seed}-trace{int(trace)}" + ("" if scale == "full" else f"-{scale}")


def _layer_metrics(tracer, t_passes) -> dict:
    from . import tracing

    by_pass: dict[int, list[int]] = {}
    setup_rows = []
    for i, s in enumerate(tracer.spans):
        (setup_rows if s[5] < 0 else by_pass.setdefault(s[5], [])).append(i)
    # the warm-up instance runs during set-up; only its loads are reported
    out = tracing.setup_metrics(tracer, setup_rows)
    per = [tracing.per_layer_metrics(tracer, by_pass.get(p, [])) for p in range(len(t_passes))]
    for k in per[0]:
        out[k] = statistics.median([m[k] for m in per])
    return out
