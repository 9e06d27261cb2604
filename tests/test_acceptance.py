"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The heavy Helmholtz wedge and Maxwell contrast problems are shared across
criteria through module-scoped fixtures.  Stated runtime budgets are asserted
alongside the numerical conditions.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from wavedd.bench import RunConfig, render_config
from wavedd.decomposition import (
    assemble_local_matrices,
    decompose,
    pou_identity_deviation,
)
from wavedd.dispersion import phase_velocity
from wavedd.helmholtz import HelmholtzProblem, PointSource, assemble_helmholtz
from wavedd.linalg import KrylovConfig, krylov_solve, lu_factorize
from wavedd.maxwell import (
    AspPreconditioner,
    MaxwellProblem,
    assemble_maxwell,
    build_edge_decomposition,
    build_free_cs,
    build_geneo_complement_cs,
    channel_field,
    fsl_bounds_check,
)
from wavedd.mesh import build_rect_mesh, refine_uniform
from wavedd.schwarz import (
    EigenSelection,
    OneLevel,
    TwoLevel,
    build_dtn_cs,
    build_grid_cs,
    build_hgeneo_cs,
)
from wavedd.velocity import VelocityModel


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def _gmres_iters(system, op, tol=1e-6, max_iter=500):
    _, rep = krylov_solve(system.A, op, system.b,
                          KrylovConfig(tol=tol, max_iter=max_iter))
    return rep


def _cg(A, op, b, tol=1e-6, max_iter=30000):
    _, rep = krylov_solve(A, op, b,
                          KrylovConfig(tol=tol, variant="cg", max_iter=max_iter))
    return rep


# --------------------------------------------------------------------- 1


def test_criterion_01_partition_of_unity_identity():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(20):
        N = int(rng.integers(2, 17))
        mode = ("minimum", "coarse")[trial % 2]
        order = (1, 2)[trial % 2]
        base = build_rect_mesh(1.0 + rng.random(), 1.0, 16, 6, order=order)
        mesh = refine_uniform(base, 1) if mode == "coarse" else base
        shape = "strips"
        grid = None
        if N in (4, 6, 8, 9, 12, 16) and trial % 3 == 0:
            shape = "grid"
            for px in range(int(np.sqrt(N)), 0, -1):
                if N % px == 0:
                    grid = (px, N // px)
                    break
        dec = decompose(mesh, N, shape=shape, grid=grid,
                        layers=int(rng.integers(1, 3)) if mode == "minimum" else 1,
                        mode=mode)
        worst = max(worst, pou_identity_deviation(dec))
    elapsed = time.time() - t0
    _report(1, "partition-of-unity identity <= 1e-14 over 20 random decompositions",
            worst <= 1e-14 and elapsed < 10,
            f"max deviation {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------- 2


def test_criterion_02_exact_preconditioner_collapse():
    t0 = time.time()
    mesh = build_rect_mesh(1.0, 1.0, 22, 22, order=2)   # 2025 dofs
    prob = HelmholtzProblem(mesh=mesh, model=VelocityModel.constant(1.0),
                            omega=2 * np.pi * 3, source=PointSource(0.5, 0.9))
    system = assemble_helmholtz(prob)
    dec = decompose(mesh, 1)
    assemble_local_matrices(dec, prob, system)
    one = OneLevel(dec)
    rep_oras = _gmres_iters(system, one.apply, tol=1e-10)

    cs = build_grid_cs(prob, mesh, system)  # coarse == fine: full-rank Z
    two = TwoLevel(one, cs, system.A, mode="hybrid")
    rep_two = _gmres_iters(system, two.apply, tol=1e-10)
    elapsed = time.time() - t0
    _report(2, "N=1 ORAS and full-rank hybrid coarse space converge in 1 iteration",
            rep_oras.iterations == 1 and rep_oras.converged
            and rep_two.iterations == 1 and rep_two.converged and elapsed < 5,
            f"oras {rep_oras.iterations} it, full coarse {rep_two.iterations} it, "
            f"n={system.A.shape[0]}, {elapsed:.1f}s")


# --------------------------------------------------------------------- 3


def test_criterion_03_one_level_growth_vs_grid_flatness():
    t0 = time.time()
    coarse = build_rect_mesh(1.0, 1.0, 50, 50, order=2)
    mesh = refine_uniform(coarse, 1)  # 10 ppwl at f = 10, c = 1
    prob = HelmholtzProblem(mesh=mesh, model=VelocityModel.constant(1.0),
                            omega=2 * np.pi * 10, source=PointSource(0.5, 0.9))
    system = assemble_helmholtz(prob)
    ones, grids = [], []
    for N, g in ((4, (2, 2)), (16, (4, 4)), (64, (8, 8))):
        dec = decompose(mesh, N, shape="grid", grid=g)
        assemble_local_matrices(dec, prob, system)
        rep = _gmres_iters(system, OneLevel(dec).apply)
        assert rep.converged
        ones.append(rep.iterations)
        # the grid coarse space runs in its natural coarse-overlap configuration
        dec_c = decompose(mesh, N, shape="grid", grid=g, mode="coarse")
        assemble_local_matrices(dec_c, prob, system)
        cs = build_grid_cs(prob, coarse, system)
        rep = _gmres_iters(system, TwoLevel(OneLevel(dec_c), cs, system.A).apply)
        assert rep.converged
        grids.append(rep.iterations)
    elapsed = time.time() - t0
    increasing = ones[0] < ones[1] < ones[2]
    ratio = ones[2] / ones[0]
    flatness = max(grids) / min(grids)
    _report(3, "one-level grows (ratio >= 1.8), grid CS stays flat (max/min <= 1.5)",
            increasing and ratio >= 1.8 and flatness <= 1.5 and elapsed < 300,
            f"one-level {ones}, grid {grids}, ratio {ratio:.2f}, "
            f"flatness {flatness:.2f}, {elapsed:.0f}s")


# --------------------------------------------------------------------- 4, 5


@pytest.fixture(scope="module")
def wedge_runs():
    """Shared wedge benchmark: 2.5 x 0.25 km, three layers with 5x velocity
    contrast, f = 8 Hz (20 wavelengths across at c_min = 1), P2 at 10 ppwl,
    N = 16 strips."""
    t0 = time.time()
    coarse = build_rect_mesh(2.5, 0.25, 100, 10, order=2)
    mesh = refine_uniform(coarse, 1)  # h = 1/80 km
    model = VelocityModel.layered_wedge(
        [1.0, 2.2, 5.0], [(0.09, 0.02), (0.17, -0.015)])
    prob = HelmholtzProblem(mesh=mesh, model=model, omega=2 * np.pi * 8,
                            source=PointSource(1.25, 0.22))
    system = assemble_helmholtz(prob)
    dec = decompose(mesh, 16, shape="strips")
    assemble_local_matrices(dec, prob, system)
    one = OneLevel(dec)
    runs = {"one-level": _gmres_iters(system, one.apply)}

    cs_grid = build_grid_cs(prob, coarse, system)
    runs["grid"] = _gmres_iters(system, TwoLevel(one, cs_grid, system.A).apply)
    cs_dtn = build_dtn_cs(dec, system, EigenSelection("re_below", None, 20))
    runs["dtn"] = _gmres_iters(system, TwoLevel(one, cs_dtn, system.A).apply)
    cs_hg = build_hgeneo_cs(dec, system, EigenSelection("abs_largest", None, 40))
    runs["hgeneo"] = _gmres_iters(system, TwoLevel(one, cs_hg, system.A).apply)
    return runs, time.time() - t0


def test_criterion_04_spectral_coarse_spaces_beat_one_level(wedge_runs):
    runs, elapsed = wedge_runs
    one = runs["one-level"].iterations
    dtn = runs["dtn"].iterations
    hg = runs["hgeneo"].iterations
    ok = (all(runs[k].converged for k in ("one-level", "dtn", "hgeneo"))
          and dtn <= 0.5 * one and hg <= 0.5 * one and elapsed < 600)
    _report(4, "wedge, N=16, 10 ppwl: DtN and H-GenEO each <= 0.5x one-level",
            ok, f"one-level {one}, dtn {dtn}, hgeneo {hg}, {elapsed:.0f}s")


def test_criterion_05_resolution_regime_trend(wedge_runs):
    runs, _ = wedge_runs
    hg = runs["hgeneo"].iterations
    grid = runs["grid"].iterations

    # reported, not asserted: the under-resolved (5 ppwl) comparison
    coarse5 = build_rect_mesh(2.5, 0.25, 50, 5, order=2)
    mesh5 = refine_uniform(coarse5, 1)
    model = VelocityModel.layered_wedge(
        [1.0, 2.2, 5.0], [(0.09, 0.02), (0.17, -0.015)])
    prob5 = HelmholtzProblem(mesh=mesh5, model=model, omega=2 * np.pi * 8,
                             source=PointSource(1.25, 0.22))
    sys5 = assemble_helmholtz(prob5)
    dec5 = decompose(mesh5, 16, shape="strips")
    assemble_local_matrices(dec5, prob5, sys5)
    one5 = OneLevel(dec5)
    g5 = _gmres_iters(sys5, TwoLevel(one5, build_grid_cs(prob5, coarse5, sys5),
                                     sys5.A).apply).iterations
    h5 = _gmres_iters(sys5, TwoLevel(
        one5, build_hgeneo_cs(dec5, sys5, EigenSelection("abs_largest", None, 40)),
        sys5.A).apply).iterations
    print(f"[acceptance 05] report: 5 ppwl comparison grid {g5} vs hgeneo {h5} "
          f"(under-resolved; not asserted)")
    _report(5, "over-resolved wedge: H-GenEO <= grid coarse space",
            hg <= grid, f"hgeneo {hg} vs grid {grid} at 10 ppwl")


# --------------------------------------------------------------------- 6


def test_criterion_06_dispersion():
    t0 = time.time()
    limit_ok = all(
        abs(phase_velocity(p, scheme, 1e4) - 1.0) <= 1e-6
        for p in (1, 2, 3) for scheme in ("fe", "se")
    )
    p2_ok = abs(phase_velocity(2, "fe", 10.0) - 1.0) <= 1e-2
    ordering_ok = all(
        abs(phase_velocity(3, "fe", 1 / g) - 1) < abs(phase_velocity(2, "fe", 1 / g) - 1)
        for g in np.linspace(0.005, 0.2, 40)
    )
    elapsed = time.time() - t0
    _report(6, "dispersion: limit -> 1 (1e-6), |v-1| <= 1e-2 at G=10 (p=2), p3 < p2",
            limit_ok and p2_ok and ordering_ok and elapsed < 10,
            f"{elapsed:.1f}s")


# --------------------------------------------------------------------- 7


def test_criterion_07_maxwell_kernel_identity():
    t0 = time.time()
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(10):
        nx = int(rng.integers(4, 14))
        ny = int(rng.integers(4, 14))
        mesh = build_rect_mesh(0.5 + rng.random(), 0.5 + rng.random(), nx, ny)
        mu = 10.0 ** rng.uniform(-1, 1, mesh.n_triangles)
        eps = 10.0 ** rng.uniform(-2, 2, mesh.n_triangles)
        sys = assemble_maxwell(MaxwellProblem(mesh=mesh, mu_r=mu, eps_r=eps,
                                              alpha=float(10 ** rng.uniform(-3, 1))))
        if sys.C.nnz == 0:
            continue
        kc = np.abs((sys.K @ sys.C).toarray()).max()
        worst = max(worst, kc / abs(sys.K).max())
    elapsed = time.time() - t0
    _report(7, "Maxwell kernel identity ||K C||_max <= 1e-13 ||K||_max, 10 meshes",
            worst <= 1e-13 and elapsed < 30, f"worst {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------- 8


def test_criterion_08_maxwell_heterogeneity_robustness():
    t0 = time.time()
    mesh = build_rect_mesh(1.0, 1.0, 48, 48)
    counts = {}
    for contrast in (1.0, 1e2, 1e4):
        eps = channel_field(mesh, 1.0 / contrast, n_channels=10, width_frac=0.02)
        probe = assemble_maxwell(MaxwellProblem(mesh=mesh, eps_r=eps, alpha=1e-2))
        b = np.random.default_rng(7).standard_normal(probe.n_dofs)
        prob = MaxwellProblem(mesh=mesh, eps_r=eps, alpha=1e-2, source=b)
        sys = assemble_maxwell(prob)
        asp = AspPreconditioner(sys)
        dec = build_edge_decomposition(prob, sys, 8, shape="grid", grid=(4, 2))
        one = OneLevel(dec)
        geneo = build_geneo_complement_cs(dec, sys, tau=10.0)
        two = TwoLevel(one, geneo, sys.A)
        counts[contrast] = {
            "asp": _cg(sys.A, asp.apply, sys.b),
            "one": _cg(sys.A, one.apply, sys.b),
            "two": _cg(sys.A, two.apply, sys.b),
        }
    c1, c4 = counts[1.0], counts[1e4]
    two_ok = (all(counts[c]["two"].converged for c in counts)
              and c4["two"].iterations <= 1.5 * c1["two"].iterations)
    # a non-converged run spent max_iter iterations: a lower bound on the count
    one_growth = c4["one"].iterations >= 2 * c1["one"].iterations
    asp_growth = c4["asp"].iterations >= 2 * c1["asp"].iterations
    elapsed = time.time() - t0
    detail = (f"two {[counts[c]['two'].iterations for c in counts]}, "
              f"one {[counts[c]['one'].iterations for c in counts]}, "
              f"asp {[counts[c]['asp'].iterations for c in counts]} "
              f"(asp@1e4 converged={c4['asp'].converged}), {elapsed:.0f}s")
    _report(8, "eps-channel contrast: GenEO two-level <= 1.5x, ASP and one-level >= 2x",
            two_ok and one_growth and asp_growth
            and c1["one"].converged and c1["asp"].converged and elapsed < 600,
            detail)


# --------------------------------------------------------------------- 9


def test_criterion_09_fsl_empirical_bounds():
    mesh = build_rect_mesh(1.0, 1.0, 10, 10)   # ~300 edge dofs
    prob = MaxwellProblem(mesh=mesh, alpha=1.0)
    sys = assemble_maxwell(prob)
    assert sys.n_dofs <= 500

    fact = lu_factorize(sys.A)
    exact = fsl_bounds_check(sys.A, lambda v: fact.solve(v))
    exact_ok = (np.abs(exact.eigenvalues - 1.0).max() <= 1e-12)

    dec = build_edge_decomposition(prob, sys, 4, shape="grid", grid=(2, 2))
    one = OneLevel(dec)
    free = build_free_cs(dec, sys)
    two = TwoLevel(one, free, sys.A)
    chk = fsl_bounds_check(sys.A, two)
    spectrum_ok = chk.max_imag <= 1e-10 and chk.c_lower > 0
    inside = (chk.eigenvalues.real.min() >= chk.c_lower - 1e-12
              and chk.eigenvalues.real.max() <= chk.c_upper + 1e-12)
    _report(9, "FSL bounds: two-level spectrum real positive, M=A gives {1}",
            exact_ok and spectrum_ok and inside,
            f"c_T={chk.c_lower:.3f}, c_R={chk.c_upper:.3f}, "
            f"ratio={chk.ratio:.1f}, max|Im|={chk.max_imag:.1e}")


# --------------------------------------------------------------------- 10


def test_criterion_10_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(31)
    tol = 1e-8
    worst = 0.0
    # five Helmholtz instances, GMRES with one-level ORAS
    for _ in range(5):
        nx = int(rng.integers(10, 18))
        f = float(rng.uniform(1.0, 3.0))
        mesh = build_rect_mesh(1.0, 1.0, nx, nx, order=1)
        prob = HelmholtzProblem(mesh=mesh, model=VelocityModel.constant(1.0),
                                omega=2 * np.pi * f,
                                source=PointSource(rng.uniform(0.2, 0.8),
                                                   rng.uniform(0.2, 0.8)))
        system = assemble_helmholtz(prob)
        dec = decompose(mesh, 4, shape="grid", grid=(2, 2))
        assemble_local_matrices(dec, prob, system)
        x, rep = krylov_solve(system.A, OneLevel(dec).apply, system.b,
                              KrylovConfig(tol=tol, max_iter=500))
        assert rep.converged
        x_lu = lu_factorize(system.A).solve(system.b)
        worst = max(worst, np.linalg.norm(x - x_lu) / np.linalg.norm(x_lu))
    # five Maxwell instances, CG with ASP
    for _ in range(5):
        nx = int(rng.integers(8, 14))
        mesh = build_rect_mesh(1.0, 1.0, nx, nx)
        eps = 10.0 ** rng.uniform(-0.5, 0.5, mesh.n_triangles)
        prob = MaxwellProblem(mesh=mesh, eps_r=eps, alpha=1.0)
        sys = assemble_maxwell(prob)
        x, rep = krylov_solve(sys.A, AspPreconditioner(sys).apply, sys.b,
                              KrylovConfig(tol=tol, variant="cg", max_iter=2000))
        assert rep.converged
        x_lu = lu_factorize(sys.A).solve(sys.b)
        worst = max(worst, np.linalg.norm(x - x_lu) / np.linalg.norm(x_lu))
    elapsed = time.time() - t0
    _report(10, "Krylov solutions match sparse-LU within 10x solver tolerance",
            worst <= 10 * tol and elapsed < 60,
            f"worst relative gap {worst:.2e} vs {10 * tol:.0e}, {elapsed:.1f}s")


# --------------------------------------------------------------------- 11


def test_criterion_11_sweep_determinism(tmp_path):
    cfgfile = tmp_path / "det.cfg"
    cfgfile.write_text(render_config(RunConfig(model="constant", ppwl=8, order=1,
                                               dofs_floor=1, seed=12345)))
    # the child does not inherit pytest's pythonpath setting
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "wavedd.cli", "sweep", str(cfgfile),
             "--f", "1,2", "--n", "2,4", "--methods", "one-level,grid",
             "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())

    def strip_times(raw: bytes):
        lines = raw.decode().split("\r\n")
        return ["\x1f".join(line.split(",")[:-2]) for line in lines if line]

    same = strip_times(outs[0]) == strip_times(outs[1])
    _report(11, "wavedd sweep twice: byte-identical CSV (timing columns excluded)",
            same, f"{len(strip_times(outs[0]))} lines compared")
