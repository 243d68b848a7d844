"""Run one sepkit benchmark workload and print its metrics.

Usage, from the root of a sepkit checkout:

    python3 perfbench/run.py --workload grid-sep --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  The lines
before it print the same numbers as a table, plus the end-to-end
``failed_frac`` and the certificate digest.  A full result document (inputs,
environment, passes, failures) is written under ``perfbench/results/``.

Exits with code 2, printing no result, when the checkout has no ``src/sepkit``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one thread for every BLAS/OpenMP pool, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# reported with --trace 0; failed_frac is printed but is not a gated metric
E2E_METRICS = ("wall_s", "solve_s", "verify_s", "setup_s", "peak_rss_mb",
               "sep_size_total", "minor_order_total")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full",
                    help="tiny runs stand-in inputs, for smoke tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "sepkit" / "__init__.py").is_file():
        sys.stderr.write(f"no sepkit sources under {SRC}; run from a sepkit checkout\n")
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import sepkit

    if Path(sepkit.__file__).resolve().parent != SRC / "sepkit":
        sys.stderr.write(f"imported sepkit from {sepkit.__file__}, not from {SRC}\n")
        return 2
    from perfbench import harness, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    doc = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
                      str(out_dir))

    e2e = doc["end_to_end"]
    print(f"workload {args.workload} seed {args.seed}: {len(doc['passes'])} untraced passes, "
          f"{doc['attempted']} instance runs, {doc['failed']} failed")
    for name, m in e2e.items():
        print(f"  {name:<20} {m['value']:>14.6g} {m['unit']}")
    print(f"  certificate digest   {doc['digest']}")
    if args.trace:
        layer = doc["per_layer"]
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in layer.items()}
        print(f"traced wall_s {doc['traced_wall_s']:.6g} s, overhead "
              f"{layer['trace.overhead_s']:+.6g} s ({100 * layer['trace.overhead_frac']:+.2f}%), "
              f"traced digest {doc['traced_digest']}")
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = {k: e2e[k] for k in E2E_METRICS}
    for f in doc["failures"][:5]:
        print(f"  FAILED {f['instance']}: {f['why']}", file=sys.stderr)
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
