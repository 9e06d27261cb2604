#!/usr/bin/env python3
"""Heterogeneity robustness table for the positive Maxwell problem: PCG
iteration counts of ASP, one-level additive Schwarz, and the two-level
free + GenEO method over a sweep of eps_r channel contrasts.

    python3 scripts/maxwell_contrast.py [--cells 48] [--channels 10]
"""
import argparse

import numpy as np

from wavedd.linalg import KrylovConfig, krylov_solve
from wavedd.maxwell import (
    AspPreconditioner,
    MaxwellProblem,
    assemble_maxwell,
    build_edge_decomposition,
    build_geneo_complement_cs,
    channel_field,
)
from wavedd.mesh import build_rect_mesh
from wavedd.schwarz import OneLevel, TwoLevel


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cells", type=int, default=48)
    ap.add_argument("--channels", type=int, default=10)
    ap.add_argument("--alpha", type=float, default=1e-2)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--tau", type=float, default=10.0)
    ap.add_argument("--contrasts", default="1,1e2,1e4")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    mesh = build_rect_mesh(1.0, 1.0, args.cells, args.cells)
    print(f"{'contrast':>10s} {'asp':>8s} {'one-level':>10s} {'free+geneo':>11s} "
          f"{'geneo modes':>12s}")
    for contrast in (float(c) for c in args.contrasts.split(",")):
        eps = channel_field(mesh, 1.0 / contrast, n_channels=args.channels,
                            width_frac=0.02)
        prob = MaxwellProblem(mesh=mesh, eps_r=eps, alpha=args.alpha)
        sys = assemble_maxwell(prob)
        b = np.random.default_rng(args.seed).standard_normal(sys.n_dofs)

        def cg(op):
            _, rep = krylov_solve(sys.A, op, b,
                                  KrylovConfig(tol=1e-6, variant="cg", max_iter=30000))
            return f"{rep.iterations}{'' if rep.converged else '*'}"

        asp = AspPreconditioner(sys)
        dec = build_edge_decomposition(prob, sys, args.n, shape="grid",
                                       grid=(args.n // 2, 2))
        one = OneLevel(dec)
        geneo = build_geneo_complement_cs(dec, sys, tau=args.tau)
        two = TwoLevel(one, geneo, sys.A)
        print(f"{contrast:>10g} {cg(asp.apply):>8s} {cg(one.apply):>10s} "
              f"{cg(two.apply):>11s} {sum(geneo.per_subdomain):>12d}")
    print("(* = not converged within the iteration cap)")


if __name__ == "__main__":
    main()
