#!/usr/bin/env python3
"""Iteration-count table on the layered-wedge benchmark: frequency x N for
one-level ORAS, grid, DtN and H-GenEO coarse spaces.

Desk-scale mirror of the classic Marmousi-style comparison; expect one-level
counts to grow with N while the two-level columns stay nearly flat, with the
spectral coarse spaces ahead once the mesh is resolved (>= 10 ppwl).  Every
cell is a ``run_case`` of ``cases/acceptance-wedge.cfg`` at that frequency, N
and method, with ``--ppwl`` and ``--order`` replaced; cells down to 64 DOFs
per subdomain are solved.

    python3 scripts/wedge_table.py [--out wedge.csv] [--ppwl 10] [--order 2]
"""
import argparse
import os
from dataclasses import replace

from wavedd.bench import parse_config, run_sweep, sweep_to_csv

CASE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "cases", "acceptance-wedge.cfg")


def main():
    with open(CASE) as fh:
        base = parse_config(fh.read())
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None)
    ap.add_argument("--ppwl", type=float, default=base.ppwl)
    ap.add_argument("--order", type=int, default=base.order)
    ap.add_argument("--f", default="2,4,8")
    ap.add_argument("--n", default="4,8,16")
    ap.add_argument("--methods", default="one-level,grid,dtn,hgeneo")
    args = ap.parse_args()

    base = replace(base, ppwl=args.ppwl, order=args.order, dofs_floor=64)
    rows = run_sweep(base,
                     [float(v) for v in args.f.split(",")],
                     [int(v) for v in args.n.split(",")],
                     args.methods.split(","))
    text = sweep_to_csv(rows, path=args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
