"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload helmholtz-shots --seed 1 --seconds 18 --trace 0

One workload per process: the BLAS thread count is fixed before numpy is
imported.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record of the run (environment, per-round timings, check verdicts and,
when traced, every span) goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 1
WORKLOADS = ("helmholtz-shots", "wedge-spectral", "maxwell-steps")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="BLAS/OpenMP threads, 1..nproc (default 1)")
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: reduced problems for the benchmark's tests")
    args = p.parse_args(argv)
    if not 1 <= args.threads <= (os.cpu_count() or 1):
        p.error(f"--threads must lie in 1..{os.cpu_count()}")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARIABLES:
        os.environ[var] = str(args.threads)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wavedd", "__init__.py")):
        print(f"perfbench: no wavedd sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]

    import numpy
    import scipy

    from perfbench import harness, workloads

    sizes = workloads.FULL if args.size == "full" else workloads.SMALL
    result = harness.run(sizes[args.workload], args.seed, args.seconds, bool(args.trace))
    result["env"] = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": args.threads,
        "NUMPY_MADVISE_HUGEPAGE": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "size": args.size,
        "seconds": args.seconds,
    }

    if args.trace:
        metrics = {k: {"value": result["per_layer"][k], "unit": harness.per_layer_unit(k)}
                   for k in harness.PER_LAYER}
    else:
        metrics = {k: {"value": result["end_to_end"][k], "unit": unit}
                   for k, unit in harness.END_TO_END.items()}

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}{'-trace' if args.trace else ''}"
    path = os.path.join(OUT_DIR, f"{tag}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    for failure in result["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    for error in result["errors"]:
        print(error, file=sys.stderr)

    print(f"{args.workload} seed={args.seed} rounds={result['rounds']} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"nproc={os.cpu_count()} threads={args.threads} record={os.path.relpath(path, ROOT)}")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
