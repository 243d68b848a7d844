"""Outside-in span tracing of sepkit's layers.

`Tracer.install()` replaces each traced function with a wrapper that records
one span per call: name, start, end, parent span, instance id and pass id,
plus optional work counters.  A wrapper replaces every ``sepkit.*`` module
attribute bound to the original function object, so calls made through any
import path are seen; methods are wrapped on their class.  The scipy names
sepkit calls (``csr_matrix``, ``csgraph.dijkstra``, ...) are wrapped on the
scipy modules and in every sepkit module that bound them, and record a span
only when the direct caller is a sepkit module, which gives a kernel layer
attributed per calling module.

Spans stay in memory; `per_layer_metrics` turns one pass's spans into the
``<layer>.<quantity>`` numbers the benchmark reports.  Nothing here runs
unless a tracer is installed, so untraced runs execute sepkit untouched.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _input_bytes(args, kwargs, out) -> dict:
    src = args[0] if args else kwargs.get("source")
    return {"bytes": len(src) if isinstance(src, (str, bytes)) else 0}


def _spanner_kept(args, kwargs, out) -> dict:
    span = args[0]
    return {"kept": len(span.spanner_arrays()[0]), "host_m": span.host_m}


def _quotient(args, kwargs, out) -> dict:
    return {"quotient_n": out.graph.n, "n": args[0].n}


def _shallow_stats(stats: dict, out) -> dict:
    return {"iterations": int(stats.get("iterations", 0))}


def _minorfree_stats(stats: dict, out) -> dict:
    if "tree" in stats:
        return {k: int(stats[k]) for k in ("iterations", "tree", "cut", "empty")}
    # the shallow fallback writes only "iterations" into the shared dict
    return {"fallbacks": 1} if "iterations" in stats else {}


@dataclass(frozen=True)
class Hook:
    """One traced function: where it lives and what its span records."""

    module: str                 # defining module, e.g. "sepkit.shallow"
    attr: str                   # "fn" or "Class.method"
    span: str                   # span name, "<layer>.<op>"
    counters: Optional[Callable] = None      # (args, kwargs, out) -> dict
    stats: Optional[Callable] = None         # (stats dict, out) -> dict; injects stats={}


HOOKS = [
    Hook("sepkit.graph", "load_graph", "graph.load", counters=_input_bytes),
    Hook("sepkit.graph", "sparsity_guard", "graph.guard"),
    Hook("sepkit.graph", "Graph.__init__", "graph.build"),
    Hook("sepkit.spanner", "DecrementalSpanner.__init__", "spanner.init", counters=_spanner_kept),
    Hook("sepkit.spanner", "DecrementalSpanner.delete", "spanner.delete"),
    Hook("sepkit.spanner", "DecrementalSpanner._rebuild", "spanner.rebuild"),
    Hook("sepkit.spanner", "build_spanner", "spanner.build"),
    Hook("sepkit.shallow", "shallow_separator", "shallow.run", stats=_shallow_stats),
    Hook("sepkit.shallow", "shallow_separator_balanced", "shallow.balanced"),
    Hook("sepkit.clustering", "nested_r_clustering", "clustering.nested"),
    Hook("sepkit.clustering", "weak_r_clustering", "clustering.weak"),
    Hook("sepkit.clustering", "refine_to_r_clustering", "clustering.refine"),
    Hook("sepkit.clustering", "split_cluster_two_weights", "clustering.two_weight_split"),
    Hook("sepkit.clustering", "NestedClustering.children_of", "clustering.children_of"),
    Hook("sepkit.clustering", "ActiveState.set_many", "clustering.flip"),
    Hook("sepkit.clustering", "ActiveState.set_vertex_state", "clustering.flip"),
    Hook("sepkit.clustering", "decompose_active_complement", "clustering.decompose"),
    Hook("sepkit.ddg", "build_ddg", "ddg.build"),
    Hook("sepkit.ddg", "build_cluster_spanner", "ddg.spanner"),
    Hook("sepkit.ddg", "DdgLayer.refresh_all", "ddg.refresh"),
    Hook("sepkit.ddg", "assemble_SX", "ddg.assemble"),
    Hook("sepkit.ddg", "sssp_SX", "ddg.sssp"),
    Hook("sepkit.ddg", "DdgLayer.find_tree_or_far_pair", "ddg.find"),
    Hook("sepkit.minorfree", "minor_free_separator", "minorfree.run", stats=_minorfree_stats),
    Hook("sepkit.minorfree", "balanced_separator", "minorfree.balanced"),
    Hook("sepkit.minorfree", "bidirectional_cut", "minorfree.bicut"),
    Hook("sepkit.tradeoff", "tradeoff_separator", "tradeoff.run"),
    Hook("sepkit.tradeoff", "linear_time_separator", "tradeoff.linear"),
    Hook("sepkit.tradeoff", "tree_partition", "tradeoff.partition"),
    Hook("sepkit.tradeoff", "contract_by_partition", "tradeoff.contract", counters=_quotient),
    Hook("sepkit.certificates", "separator_from_cut_mask", "certificates.cut_mask"),
    Hook("sepkit.certificates", "pack_components", "certificates.pack"),
    Hook("sepkit.certificates", "trim_separator_mask", "certificates.trim"),
    Hook("sepkit.certificates", "verify_output", "certificates.verify"),
    Hook("sepkit.certificates", "verify_separator", "certificates.verify_sep"),
    Hook("sepkit.certificates", "verify_minor_witness", "certificates.verify_witness"),
    Hook("sepkit.certificates", "verify_minor_report", "certificates.verify_report"),
    Hook("sepkit.certificates", "find_connecting_edge", "certificates.connect_edge"),
    Hook("sepkit.certificates", "certificate_to_json", "certificates.json"),
    Hook("sepkit.approx_minor", "approx_largest_clique_minor", "approx_minor.run"),
    Hook("sepkit.small_minors", "find_k3_witness", "small_minors.k3"),
    Hook("sepkit.small_minors", "find_k4_witness", "small_minors.k4"),
]

# scipy names sepkit calls, or could switch to, by kernel kind: "csr" builds a
# matrix, "bfs" is any shortest-path or traversal search, "cc" labels
# connected components
SCIPY_KERNELS = [
    ("scipy.sparse", "csr_matrix", "csr"),
    ("scipy.sparse", "csr_array", "csr"),
    ("scipy.sparse.csgraph", "dijkstra", "bfs"),
    ("scipy.sparse.csgraph", "shortest_path", "bfs"),
    ("scipy.sparse.csgraph", "breadth_first_order", "bfs"),
    ("scipy.sparse.csgraph", "breadth_first_tree", "bfs"),
    ("scipy.sparse.csgraph", "connected_components", "cc"),
]


SPAN_COLUMNS = ("name", "start", "end", "parent", "instance", "pass", "counters")


class Tracer:
    """In-memory span recorder; `install` patches sepkit, `uninstall` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # one row per span, laid out as SPAN_COLUMNS
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.instance = -1
        self.pass_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call(self, nid: int, fn, args, kwargs, hook: Optional[Hook]):
        parent = self._stack[-1] if self._stack else -1
        row = [nid, 0.0, 0.0, parent, self.instance, self.pass_id, None]
        idx = len(self.spans)
        self.spans.append(row)
        self._stack.append(idx)
        stats = None
        if hook is not None and hook.stats is not None:
            # stats is the sixth parameter of both hooked entry points
            if len(args) > 5:
                stats = args[5]
            else:
                stats = kwargs.get("stats")
                if stats is None:
                    stats = kwargs["stats"] = {}
        row[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            if hook.counters is not None:
                row[6] = hook.counters(args, kwargs, out)
            elif stats is not None:
                row[6] = hook.stats(stats, out)
        return out

    def _wrap(self, hook: Hook, fn):
        nid = self._nid(hook.span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(nid, fn, args, kwargs, hook)

        return traced

    def _wrap_kernel(self, kind: str, fn):
        name_ids: dict[str, int] = {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith("sepkit"):
                return fn(*args, **kwargs)
            sub = name_ids.get(caller)
            if sub is None:
                sub = name_ids[caller] = self._nid(f"scipy.{kind}@{caller}")
            return self._call(sub, fn, args, kwargs, None)

        return traced

    # -- patching ------------------------------------------------------------

    def _rebind(self, orig, wrapped) -> None:
        """Point every sepkit module attribute bound to `orig` at `wrapped`."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "sepkit" or name.startswith("sepkit.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import importlib

        for hook in HOOKS:
            mod = importlib.import_module(hook.module)
            if "." in hook.attr:
                cls_name, meth = hook.attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(hook, cls.__dict__[meth]))
            else:
                orig = getattr(mod, hook.attr)
                self._rebind(orig, self._wrap(hook, orig))
        for modname, attr, kind in SCIPY_KERNELS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap_kernel(kind, orig)
            self._patch(mod, attr, wrapped)
            self._rebind(orig, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- export --------------------------------------------------------------

    def dump(self) -> dict:
        """Column form of every recorded span, for the trace file."""
        cols = zip(*self.spans) if self.spans else [()] * len(SPAN_COLUMNS)
        return {"names": self.names,
                "spans": {k: list(v) for k, v in zip(SPAN_COLUMNS, cols)}}


# -- aggregation ---------------------------------------------------------------


class _Agg:
    """Per-name totals over a set of spans (one pass or the set-up phase)."""

    def __init__(self, tracer: Tracer, rows: list[int]):
        spans, names = tracer.spans, tracer.names
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}    # outermost spans of each name only
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, dict[str, int]] = {}
        self.under: dict[tuple[str, str], int] = {}   # (name, ancestor layer) -> calls
        child_time: dict[int, float] = {}
        for i in rows:
            s = spans[i]
            if s[3] >= 0:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        for i in rows:
            s = spans[i]
            name = names[s[0]]
            dur = s[2] - s[1]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_time.get(i, 0.0)
            ancestors = set()
            p = s[3]
            while p >= 0:
                ancestors.add(names[spans[p][0]])
                p = spans[p][3]
            if name not in ancestors:
                self.incl[name] = self.incl.get(name, 0.0) + dur
            for layer in {a.split(".")[0] for a in ancestors}:
                self.under[(name, layer)] = self.under.get((name, layer), 0) + 1
            if s[6]:
                c = self.counters.setdefault(name, {})
                for k, v in s[6].items():
                    c[k] = c.get(k, 0) + v

    def n(self, *names: str) -> int:
        return sum(self.calls.get(x, 0) for x in names)

    def t(self, *names: str) -> float:
        return sum(self.incl.get(x, 0.0) for x in names)

    def self_t(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def c(self, name: str, key: str) -> int:
        return self.counters.get(name, {}).get(key, 0)

    def kernel(self, kind: str, module: Optional[str] = None) -> tuple[int, float]:
        """Calls and time of one scipy kernel kind, from one sepkit module or all."""
        names = [k for k in self.calls if k.startswith(f"scipy.{kind}@")
                 and (module is None or k == f"scipy.{kind}@{module}")]
        return self.n(*names), sum(self.self_s[k] for k in names)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def setup_metrics(tracer: Tracer, rows: list[int]) -> dict:
    a = _Agg(tracer, rows)
    return {"graph.load_s": a.t("graph.load"),
            "graph.load_bytes": a.c("graph.load", "bytes")}


def per_layer_metrics(tracer: Tracer, rows: list[int]) -> dict:
    """The per-layer numbers of one pass; every name appears, 0 where idle."""
    a = _Agg(tracer, rows)
    m: dict[str, float] = {}
    m["graph.guard_calls"] = a.n("graph.guard")
    m["graph.guard_s"] = a.t("graph.guard")
    m["graph.graphs_built"] = a.n("graph.build")
    m["graph.build_s"] = a.t("graph.build")
    for kind, calls in (("csr", "csr_builds"), ("bfs", "bfs_calls"), ("cc", "cc_calls")):
        m[f"scipy.{calls}"], m[f"scipy.{kind}_s"] = a.kernel(kind)
    m["spanner.wrappers"] = a.n("spanner.init")
    m["spanner.init_s"] = a.t("spanner.init")
    m["spanner.deletes"] = a.n("spanner.delete")
    m["spanner.delete_s"] = a.t("spanner.delete")
    m["spanner.rebuilds"] = a.n("spanner.rebuild")
    m["spanner.kept_frac"] = _ratio(a.c("spanner.init", "kept"), a.c("spanner.init", "host_m"))
    m["shallow.calls"] = a.n("shallow.run")
    m["shallow.self_s"] = a.self_t("shallow.")
    m["shallow.iterations"] = a.c("shallow.run", "iterations")
    m["shallow.s_per_iter"] = _ratio(a.t("shallow.run"), m["shallow.iterations"])
    m["clustering.nested_s"] = a.t("clustering.nested")
    m["clustering.weak_s"] = a.t("clustering.weak")
    m["clustering.weak_self_s"] = a.self_s.get("clustering.weak", 0.0)
    m["clustering.refine_s"] = a.t("clustering.refine")
    m["clustering.splits"] = a.under.get(("shallow.run", "clustering"), 0)
    m["clustering.two_weight_splits"] = a.n("clustering.two_weight_split")
    m["clustering.children_calls"] = a.n("clustering.children_of")
    m["clustering.flip_s"] = a.t("clustering.flip")
    m["clustering.decompose_s"] = a.t("clustering.decompose")
    m["ddg.builds"] = a.n("ddg.build")
    m["ddg.build_s"] = a.t("ddg.build")
    m["ddg.spanner_builds"] = a.n("ddg.spanner")
    m["ddg.spanner_s"] = a.t("ddg.spanner")
    m["ddg.refresh_s"] = a.t("ddg.refresh")
    m["ddg.assemble_s"] = a.t("ddg.assemble")
    m["ddg.sssp_s"] = a.t("ddg.sssp")
    m["ddg.find_calls"] = a.n("ddg.find")
    m["ddg.spanner_builds_per_find"] = _ratio(m["ddg.spanner_builds"], m["ddg.find_calls"])
    m["minorfree.self_s"] = a.self_t("minorfree.")
    for k in ("iterations", "tree", "cut", "empty", "fallbacks"):
        m[f"minorfree.{k}"] = a.c("minorfree.run", k)
    m["minorfree.bicut_calls"] = a.n("minorfree.bicut")
    m["minorfree.bicut_s"] = a.t("minorfree.bicut")
    m["tradeoff.partition_s"] = a.t("tradeoff.partition")
    m["tradeoff.contract_s"] = a.t("tradeoff.contract")
    m["tradeoff.quotient_frac"] = _ratio(a.c("tradeoff.contract", "quotient_n"),
                                         a.c("tradeoff.contract", "n"))
    m["tradeoff.self_s"] = a.self_t("tradeoff.")
    m["certificates.cut_mask_s"] = a.t("certificates.cut_mask")
    m["certificates.pack_s"] = a.t("certificates.pack")
    m["certificates.trim_s"] = a.t("certificates.trim")
    m["certificates.verify_sep_s"] = a.t("certificates.verify_sep")
    m["certificates.verify_witness_s"] = a.t("certificates.verify_witness")
    m["certificates.verify_report_s"] = a.t("certificates.verify_report")
    m["certificates.connect_edge_calls"] = a.n("certificates.connect_edge")
    m["certificates.connect_edge_s"] = a.t("certificates.connect_edge")
    m["certificates.json_s"] = a.t("certificates.json")
    m["approx_minor.s"] = a.t("approx_minor.run")
    m["approx_minor.separator_calls"] = a.under.get(("shallow.run", "approx_minor"), 0)
    m["small_minors.k3_calls"] = a.n("small_minors.k3")
    m["small_minors.k4_calls"] = a.n("small_minors.k4")
    m["small_minors.s"] = a.t("small_minors.k3", "small_minors.k4")
    m["trace.spans"] = len(rows)
    return m


def kernel_by_module(tracer: Tracer, rows: list[int]) -> dict:
    """The six scipy numbers per calling sepkit module (trace file only)."""
    a = _Agg(tracer, rows)
    mods = sorted({k.split("@", 1)[1] for k in a.calls if k.startswith("scipy.") and "@" in k})
    out = {}
    for mod in mods:
        short = mod.split(".", 1)[-1]
        for kind, calls in (("csr", "csr_builds"), ("bfs", "bfs_calls"), ("cc", "cc_calls")):
            n, t = a.kernel(kind, mod)
            if n:
                out[f"scipy.{short}.{calls}"] = n
                out[f"scipy.{short}.{kind}_s"] = t
    return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if metric.endswith("s_per_iter"):
        return "s/iter"
    if metric.endswith("builds_per_find"):
        return "builds/find"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"
