"""Command-line front end.

Exit codes: 0 separator, 10 minor witness, 11 minor report (density evidence),
2 usage error, 3 verification failure, 4 internal error (a failed invariant
check, printed with its rule id, or an algorithm's consistency check).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import debugcheck
from .bench import run_algorithm, run_bench
from .certificates import (
    MinorWitness,
    Separator,
    certificate_from_json,
    certificate_to_json,
    verify_output,
)
from .clustering import DEFAULT_C_R, NestedClustering, nested_r_clustering
from .generators import generate_graph
from .graph import Graph, GraphFormatError, dump_graph, load_graph

EXIT_SEPARATOR = 0
EXIT_WITNESS = 10
EXIT_REPORT = 11
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4

# solving subcommand -> its `sep bench` algorithm name ("-balanced" is added
# when --ell is omitted) and the parsed flags that reach it
SOLVERS = {"shallow": "shallow", "minorfree": "minorfree", "tradeoff": "tradeoff",
           "linear": "linear-time", "approx-minor": "approx-minor"}
ALGO_KEYS = ("h", "eps", "seed", "ell", "delta", "c_r")


def _read_graph(path: str, fmt: str) -> Graph:
    if path == "-":
        return load_graph(sys.stdin.read(), fmt=fmt)
    with open(path, "rb") as fh:
        return load_graph(fh.read(), fmt=fmt)


def _write(text: str, dest: str | None) -> None:
    """Write text to the file dest, or to stdout when dest is not given."""
    if dest:
        with open(dest, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish(g: Graph, out, args) -> int:
    rep = verify_output(g, out)
    _write(certificate_to_json(out), args.out)
    if not rep.ok:
        sys.stderr.write(f"verification FAILED: {rep.violations}\n")
        return EXIT_VERIFY
    if isinstance(out, Separator):
        sys.stderr.write(f"separator |C|={len(out.C)} (bound {out.claimed_bound})\n")
        return EXIT_SEPARATOR
    if isinstance(out, MinorWitness):
        sys.stderr.write(f"K_{out.h} minor witness (depth bound {out.depth_bound})\n")
        return EXIT_WITNESS
    sys.stderr.write("minor report (density certificate)\n")
    return EXIT_REPORT


def _add_common(p, need_h=True):
    p.add_argument("graph", help="input graph file, or - for stdin")
    if need_h:
        p.add_argument("--h", type=int, required=True, help="excluded clique size")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["edge-list", "dimacs"], default="edge-list")
    p.add_argument("--out", default=None, help="certificate output path (default stdout)")
    p.add_argument("--debug-assert", action="store_true",
                   help="enable structural invariant sweeps")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="sep",
                                 description="balanced separators and clique-minor witnesses")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a graph")
    g.add_argument("spec", help="e.g. 'grid 32', 'path 100', 'random-regular 200 4'")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--format", choices=["edge-list", "dimacs"], default="edge-list")
    g.add_argument("--out", default=None)

    p = sub.add_parser("shallow", help="shallow-minor separator")
    _add_common(p)
    p.add_argument("--ell", type=int, default=None,
                   help="depth parameter; omitted = balanced choice")

    p = sub.add_parser("minorfree", help="bootstrapped minor-free separator")
    _add_common(p)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--cr", dest="c_r", type=float, default=DEFAULT_C_R,
                   help="clustering range constant C_r")

    p = sub.add_parser("tradeoff", help="contraction trade-off separator")
    _add_common(p)
    p.add_argument("--delta", type=float, default=0.8)

    p = sub.add_parser("linear", help="near-linear-time separator (delta = 4/5 + eps)")
    _add_common(p)

    p = sub.add_parser("cluster", help="build and dump a nested r-clustering")
    _add_common(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--cr", dest="c_r", type=float, default=DEFAULT_C_R)

    p = sub.add_parser("approx-minor", help="largest clique minor approximation")
    _add_common(p, need_h=False)

    p = sub.add_parser("verify", help="re-verify a certificate against a graph")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.add_argument("--format", choices=["edge-list", "dimacs"], default="edge-list")

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("suite", help="suite config JSON")
    p.add_argument("--out", default=None, help="write JSONL rows here")
    p.add_argument("--no-verify", action="store_true")

    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0

    debug_was = debugcheck.enabled()
    try:
        if args.cmd == "gen":
            _write(dump_graph(generate_graph(args.spec, args.seed), fmt=args.format), args.out)
            return 0

        if args.cmd == "verify":
            gobj = _read_graph(args.graph, args.format)
            with open(args.certificate) as fh:
                cert = certificate_from_json(fh.read())
            rep = verify_output(gobj, cert)
            if rep.ok:
                sys.stderr.write("certificate OK\n")
                return 0
            sys.stderr.write(f"certificate INVALID: {rep.violations}\n")
            return EXIT_VERIFY

        if args.cmd == "bench":
            with open(args.suite) as fh:
                suite = json.load(fh)
            report = run_bench(suite, verify=not args.no_verify)
            if args.out:
                _write("".join(json.dumps(row, sort_keys=True) + "\n" for row in report["rows"]),
                       args.out)
            sys.stdout.write(report["summary"] + "\n")
            return 0

        if getattr(args, "debug_assert", False):
            debugcheck.enable(True)

        gobj = _read_graph(args.graph, args.format)

        if args.cmd in SOLVERS:
            algo = {k: v for k, v in vars(args).items() if k in ALGO_KEYS}
            algo["name"] = SOLVERS[args.cmd]
            if "ell" in algo and algo["ell"] is None:
                algo["name"] += "-balanced"
            out, stats, _ = run_algorithm(gobj, algo)
            if args.cmd == "approx-minor":
                sys.stderr.write(f"h_found={stats['h_found']} "
                                 f"ratio_claim={stats['ratio_claim']:.1f}\n")
            return _finish(gobj, out, args)

        if args.cmd == "cluster":
            nc = nested_r_clustering(gobj, args.r, args.h, args.eps, c_r=args.c_r)
            found = nc.materialize_all() if isinstance(nc, NestedClustering) else nc
            if found is not None:
                return _finish(gobj, found, args)
            _write(json.dumps(nc.to_doc(), sort_keys=True) + "\n", args.out)
            sys.stderr.write(f"clusters={len(nc.clusters)} leaves={nc.leaf_count()}\n")
            return 0
    except GraphFormatError as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except debugcheck.InvariantViolation as e:
        sys.stderr.write(f"internal error: invariant {e.rule} violated: {e.detail}\n")
        return EXIT_INTERNAL
    except RuntimeError as e:
        sys.stderr.write(f"internal error: {e}\n")
        return EXIT_INTERNAL
    finally:
        debugcheck.enable(debug_was)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
