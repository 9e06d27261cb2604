#!/usr/bin/env python3
"""Heterogeneity robustness table for the positive Maxwell problem: PCG
iteration counts of ASP, one-level additive Schwarz, and the two-level free
and free + GenEO methods over a sweep of eps_r channel contrasts.

Every count is a ``run_case`` of ``cases/channel48.cfg`` with its contrast
and preconditioner replaced, and with ``--cells`` and ``--n`` (on an
(n/2) x 2 grid) when given.  A run reports its coarse dimension, not the
modes of each subdomain, so the "geneo modes" column is the coarse dimension
of the GenEO-complement space less that of the free space.

    python3 scripts/maxwell_contrast.py [--cells 48] [--n 8] [--contrasts 1,1e2,1e4]
"""
import argparse
import os
from dataclasses import replace

from wavedd.bench import parse_config, run_case

CASE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "cases", "channel48.cfg")
METHODS = ("asp", "one-level", "free-cs", "geneo-complement")


def main():
    with open(CASE) as fh:
        base = parse_config(fh.read())
    ap = argparse.ArgumentParser()
    ap.add_argument("--cells", type=int, default=base.maxwell_cells)
    ap.add_argument("--n", type=int, default=base.n_subdomains)
    ap.add_argument("--contrasts", default="1,1e2,1e4")
    args = ap.parse_args()

    base = replace(base, maxwell_cells=args.cells, n_subdomains=args.n,
                   partition=f"grid:{args.n // 2}x2")
    print(f"{'contrast':>10s} {'asp':>8s} {'one-level':>10s} {'free':>8s} "
          f"{'free+geneo':>11s} {'geneo modes':>12s}")
    for contrast in (float(c) for c in args.contrasts.split(",")):
        reps = {m: run_case(replace(base, contrast=contrast, preconditioner=m))
                for m in METHODS}
        its = [f"{r.iterations}{'' if r.converged else '*'}" for r in reps.values()]
        modes = reps["geneo-complement"].coarse_dim - reps["free-cs"].coarse_dim
        print(f"{contrast:>10g} {its[0]:>8s} {its[1]:>10s} {its[2]:>8s} "
              f"{its[3]:>11s} {modes:>12d}")
    print("(* = not converged within the iteration cap)")


if __name__ == "__main__":
    main()
