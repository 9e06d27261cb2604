"""wavedd command line: run one case, sweep a table, emit dispersion curves,
or run the quick invariant checks.

Exit codes: 0 on completion (non-converged runs and cells included); 1 when
``check`` finds a failed invariant; 2 on structural errors (bad config,
malformed or missing files); 3 when ``run`` meets a numerical failure (a
breakdown, non-finite values, a singular matrix)."""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import (
    RunConfig,
    emit_dispersion,
    parse_config,
    render_config,
    run_case,
    run_sweep,
    sweep_to_csv,
)
from .dispersion import DispersionSpec, phase_velocity
from .errors import NumericError, SingularityError, StructuralError


def _load_config(path: str, overrides) -> RunConfig:
    with open(path) as fh:
        text = fh.read()
    pairs = {}
    for item in overrides or []:
        if "=" not in item:
            raise StructuralError(f"--set expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        pairs[k.strip()] = v.strip()
    return parse_config(text, overrides=pairs)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args.set)
    rep = run_case(cfg)
    status = "converged" if rep.converged else "NOT converged"
    print(f"{cfg.problem} / {cfg.preconditioner}: {rep.iterations} iterations "
          f"({status}, residual {rep.residual:.3e})")
    print(f"dofs={rep.n_dofs} coarse_dim={rep.coarse_dim} "
          f"setup={rep.setup_time:.2f}s solve={rep.solve_time:.2f}s")
    if rep.rejected or rep.flags:
        print(f"rejected eigenpairs={rep.rejected} flagged subdomains={rep.flags}")
    if args.echo_config:
        print(render_config(rep.config), end="")
    return 0


def _values(text: str, kind, flag: str) -> list:
    """The comma-separated values of ``flag``, each parsed by ``kind``."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise StructuralError(f"{flag} expects comma-separated {kind.__name__} "
                              f"values, got {text!r}") from None


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.set)
    fs = _values(args.f, float, "--f")
    ns = _values(args.n, int, "--n")
    methods = args.methods.split(",")
    rows = run_sweep(cfg, fs, ns, methods)
    text = sweep_to_csv(rows, path=args.out)
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_dispersion(args) -> int:
    orders = _values(args.orders, int, "--orders")
    schemes = args.schemes.split(",")
    specs = [DispersionSpec(p=p, scheme=s, G=args.min_g)
             for s in schemes for p in orders]
    text = emit_dispersion(specs, path=args.out, samples=args.samples)
    if args.out:
        print(f"wrote dispersion curves to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_check(args) -> int:
    """Fast invariant suite; failures flip the exit code."""
    import scipy.sparse as sp

    from .decomposition import decompose, pou_identity_deviation
    from .helmholtz import HelmholtzProblem, PointSource, assemble_helmholtz
    from .linalg import KrylovConfig, is_symmetric, krylov_solve
    from .maxwell import MaxwellProblem, assemble_maxwell
    from .mesh import build_rect_mesh, refine_uniform
    from .velocity import VelocityModel

    failures = 0

    def report(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    devs = []
    for N, mode in ((3, "minimum"), (5, "minimum"), (4, "coarse")):
        base = build_rect_mesh(1.0, 1.0, 6, 6, order=2)
        mesh = refine_uniform(base, 1) if mode == "coarse" else base
        dec = decompose(mesh, N, shape="strips", mode=mode)
        devs.append(pou_identity_deviation(dec))
    report("partition of unity identity <= 1e-14", max(devs) <= 1e-14)

    _, rep = krylov_solve(sp.identity(20, format="csr"), None, np.ones(20),
                          KrylovConfig(tol=1e-10))
    report("GMRES identity converges in 1 iteration", rep.iterations == 1)

    mesh = build_rect_mesh(1.0, 1.0, 8, 8, order=2)
    prob = HelmholtzProblem(mesh=mesh, model=VelocityModel.constant(1.0),
                            omega=2 * np.pi * 2, source=PointSource(0.5, 0.9))
    sysm = assemble_helmholtz(prob)
    A = sysm.A
    report("Helmholtz matrix is symmetric non-Hermitian",
           is_symmetric(A) and abs(A - A.conj().T).max() > 0)

    v = phase_velocity(2, "fe", 1e4)
    report("dispersion continuum limit", abs(v - 1.0) < 1e-6)

    mx = assemble_maxwell(MaxwellProblem(mesh=build_rect_mesh(1, 1, 8, 8),
                                         alpha=1e-2))
    kc = abs(mx.K @ mx.C).max() if mx.C.nnz else 0.0
    report("Maxwell kernel identity K C = 0",
           kc <= 1e-13 * max(abs(mx.K).max(), 1.0))

    print(f"{5 - failures}/5 checks passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wavedd",
                                     description="Helmholtz/Maxwell domain "
                                                 "decomposition benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single configuration")
    p_run.add_argument("config")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config value")
    p_run.add_argument("--echo-config", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="frequency x subdomain sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--f", required=True, help="comma-separated Hz values")
    p_sweep.add_argument("--n", required=True, help="comma-separated subdomain counts")
    p_sweep.add_argument("--methods", required=True,
                         help="comma-separated preconditioner names")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_disp = sub.add_parser("dispersion", help="emit dispersion curves as CSV")
    p_disp.add_argument("--orders", default="2,3")
    p_disp.add_argument("--schemes", default="fe,se")
    p_disp.add_argument("--out", default=None)
    p_disp.add_argument("--samples", type=int, default=50)
    p_disp.add_argument("--min-g", type=float, default=2.0,
                        help="coarsest resolution (largest 1/G) sampled")
    p_disp.set_defaults(func=_cmd_dispersion)

    p_check = sub.add_parser("check", help="run the quick invariant suite")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StructuralError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
