"""Benchmark driver: run configurations, frequency x subdomain sweeps, and
CSV emission.

Configs are plain ``key = value`` text files ('#' starts a comment); every
field of RunConfig can appear, and parse(render(cfg)) round-trips exactly.
Frequencies are in Hz at this interface (omega = 2 pi f internally).  A sweep
cell whose estimated DOF count per subdomain falls below ``dofs_floor`` is
skipped and rendered as "-", as is any cell that fails to converge.
"""
from __future__ import annotations

import csv
import io
import math
import re
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .decomposition import assemble_local_matrices, decompose, partition_mesh
from .dispersion import dispersion_curve
from .errors import StructuralError
from .helmholtz import HelmholtzProblem, PointSource, assemble_helmholtz, mesh_size_rule
from .linalg import EigenSelection, KrylovConfig, krylov_solve
from .maxwell import (
    AspPreconditioner,
    MaxwellProblem,
    assemble_maxwell,
    build_edge_decomposition,
    build_free_cs,
    build_geneo_complement_cs,
    channel_field,
)
from .mesh import build_rect_mesh, refine_uniform
from .schwarz import (
    TWO_LEVEL_MODES,
    OneLevel,
    TwoLevel,
    build_deltageneo_cs,
    build_dtn_cs,
    build_grid_cs,
    build_hgeneo_cs,
)
from .velocity import VelocityModel, load_raster_model

__all__ = ["RunConfig", "SolveReport", "run_case", "run_sweep", "sweep_to_csv",
           "emit_dispersion", "parse_config", "render_config"]


@dataclass(frozen=True)
class RunConfig:
    problem: str = "helmholtz"      # helmholtz | maxwell
    model: str = "constant"         # constant | wedge | raster:<path> | channel
    c: float = 1.0                  # base speed (km/s) / base eps_r
    contrast: float = 1.0           # wedge or channel contrast
    f: float = 1.0                  # Hz
    ppwl: float = 10.0
    order: int = 2
    width: float = 1.0              # km
    height: float = 1.0
    source_x: float | None = None   # defaults to (width/2, 0.9*height)
    source_y: float | None = None
    n_subdomains: int = 4
    partition: str = "auto"         # auto | strips | grid:PXxPY
    overlap_mode: str = "minimum"   # minimum | coarse
    overlap_layers: int = 1
    preconditioner: str = "one-level"
    two_level_mode: str = "hybrid"  # hybrid | additive
    coarse_refine: int = 1          # refinement levels between coarse and fine mesh
    lambda_min: float = 0.5
    m_max: int = 20
    dtn_threshold: float | None = None  # None: the local wavenumber k_j
    tau: float = 10.0
    alpha: float = 1e-2             # maxwell shift
    maxwell_cells: int = 24
    n_channels: int = 4
    channel_width: float = 0.04
    random_source: bool = False
    tol: float = 1e-6
    max_iter: int = 500
    restart: int | None = None
    seed: int = 0
    dofs_floor: int = 200

    def __post_init__(self):
        if self.problem not in ("helmholtz", "maxwell"):
            raise StructuralError(f"unknown problem {self.problem!r}")
        for name in ("f", "ppwl", "contrast", "width", "height"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise StructuralError(f"{name} must be finite and positive")
        if self.n_subdomains < 1:
            raise StructuralError("n_subdomains must be >= 1")
        for name in ("lambda_min", "tau", "dtn_threshold"):  # before any set-up
            if getattr(self, name) is not None and np.isnan(getattr(self, name)):
                raise StructuralError(f"{name}: selection threshold must not be NaN")
        if self.m_max < 0:
            raise StructuralError("m_max must be nonnegative")
        if self.two_level_mode not in TWO_LEVEL_MODES:
            raise StructuralError(f"unknown two-level mode {self.two_level_mode!r}")


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    residual: float
    setup_time: float
    solve_time: float
    n_dofs: int
    coarse_dim: int
    config: RunConfig
    # CoarseSpace.rejected and .flags; empty for one-level and ASP
    rejected: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def __post_init__(self):
        if self.iterations > self.config.max_iter:
            raise StructuralError("iteration count exceeds max_iter")


# ----------------------------------------------------------------- config io

_FIELDS = {f.name: f for f in fields(RunConfig)}


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    t = _FIELDS[name].type
    if raw == "none":
        if "None" not in t:
            raise StructuralError(f"{name} cannot be none")
        return None
    if "bool" in t:
        if raw not in ("true", "false"):
            raise StructuralError(f"bad boolean for {name}: {raw!r}")
        return raw == "true"
    try:
        if "int" in t and "float" not in t:
            return int(raw)
        if "float" in t:
            return float(raw)
    except ValueError:
        raise StructuralError(f"bad value for {name}: {raw!r}") from None
    return raw


def _render_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse the key = value config grammar; unknown keys are rejected."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise StructuralError(f"config line {lineno}: expected key = value")
        key, raw = (s.strip() for s in body.split("=", 1))
        if key not in _FIELDS:
            raise StructuralError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    for key, raw in (overrides or {}).items():
        if key not in _FIELDS:
            raise StructuralError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, raw) if isinstance(raw, str) else raw
    return RunConfig(**values)


def render_config(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {_render_value(getattr(cfg, f.name))}" for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- problem setup

def _build_model(cfg: RunConfig) -> VelocityModel:
    if cfg.model == "constant":
        return VelocityModel.constant(cfg.c)
    if cfg.model == "wedge":
        s = cfg.c * np.array([1.0, np.sqrt(cfg.contrast), cfg.contrast])
        return VelocityModel.layered_wedge(
            s, [(0.35 * cfg.height, 0.05 * cfg.height / cfg.width),
                (0.70 * cfg.height, -0.04 * cfg.height / cfg.width)])
    if cfg.model.startswith("raster:"):
        return load_raster_model(cfg.model.split(":", 1)[1], cfg.width, cfg.height)
    raise StructuralError(f"unknown velocity model {cfg.model!r}")


def _helm_mesh_cells(cfg: RunConfig, model: VelocityModel):
    # ppwl at the largest wavenumber
    h = mesh_size_rule(2 * np.pi * cfg.f, rule="fixed-ppwl", G=cfg.ppwl,
                       c=model.min_speed())
    with np.errstate(divide="ignore", over="ignore"):
        cells = np.array([cfg.width, cfg.height]) / (h * 2**cfg.coarse_refine)
    if not np.all(np.isfinite(cells)):
        raise StructuralError(f"mesh cell counts {cells[0]:g} x {cells[1]:g} are not finite")
    return tuple(max(2, int(np.ceil(n))) for n in cells)


def estimate_dofs(cfg: RunConfig) -> int:
    """The DOF count of the mesh of ``cfg``.  Raises StructuralError when its
    cell counts are not finite or the count exceeds 2**31 - 1, the int32
    index range of SuperLU and of scipy's sparse indices."""
    if cfg.problem == "maxwell":
        n = cfg.maxwell_cells
        dofs = 3 * n * n  # edge count scale
    else:
        nx_c, ny_c = _helm_mesh_cells(cfg, _build_model(cfg))
        nx, ny = nx_c * 2**cfg.coarse_refine, ny_c * 2**cfg.coarse_refine
        dofs = (nx + 1) * (ny + 1) if cfg.order == 1 else (2 * nx + 1) * (2 * ny + 1)
    if dofs > 2**31 - 1:
        raise StructuralError("the mesh has more DOFs than the sparse index range holds")
    return dofs


def _partition_args(cfg: RunConfig):
    if cfg.partition == "strips":
        return "strips", None
    if cfg.partition.startswith("grid:"):
        m = re.fullmatch(r"grid:(\d+)[xX](\d+)", cfg.partition)
        if m is None:
            raise StructuralError(f"partition {cfg.partition!r} is not grid:PXxPY")
        return "grid", (int(m[1]), int(m[2]))
    if cfg.partition == "auto":
        N = cfg.n_subdomains
        aspect = cfg.width / cfg.height
        best = (N, 1)
        best_err = abs(np.log(N / 1 / aspect))
        # the divisors of N in ascending order, found up to sqrt(N): N is
        # checked against the element count only later, by ``decompose``
        low = [d for d in range(1, math.isqrt(N) + 1) if N % d == 0]
        for px in low + [N // d for d in reversed(low) if d * d != N]:
            py = N // px
            err = abs(np.log((px / py) / aspect))
            if err < best_err:
                best, best_err = (px, py), err
        if 1 in best:
            return "strips", None
        return "grid", best
    raise StructuralError(f"unknown partition {cfg.partition!r}")


# the preconditioners of each problem: "one-level", ASP, and the two-level
# methods, one per coarse-space builder of ``_helmholtz`` and ``_maxwell``
_METHODS = {
    "helmholtz": ("one-level", "grid", "dtn", "hgeneo", "deltageneo"),
    "maxwell": ("asp", "one-level", "free-cs", "geneo-complement"),
}


def _helmholtz(cfg: RunConfig):
    """The Helmholtz system of ``cfg``, its decomposition with Robin factors,
    and the coarse-space builder of each two-level method.  The mesh is
    decomposed before the global assembly, so that a malformed partition or
    overlap is rejected first."""
    model = _build_model(cfg)
    nx_c, ny_c = _helm_mesh_cells(cfg, model)
    coarse = build_rect_mesh(cfg.width, cfg.height, nx_c, ny_c, order=cfg.order)
    mesh = refine_uniform(coarse, cfg.coarse_refine)
    shape, grid = _partition_args(cfg)
    dec = decompose(mesh, cfg.n_subdomains, shape=shape, grid=grid,
                    layers=cfg.overlap_layers, mode=cfg.overlap_mode)
    sx = cfg.source_x if cfg.source_x is not None else cfg.width / 2
    sy = cfg.source_y if cfg.source_y is not None else 0.9 * cfg.height
    prob = HelmholtzProblem(
        mesh=mesh, model=model, omega=2 * np.pi * cfg.f,
        source=PointSource(sx, sy),
    )
    system = assemble_helmholtz(prob)
    assemble_local_matrices(dec, prob, system)
    return system, dec, {
        "grid": lambda: build_grid_cs(prob, coarse, system),
        "dtn": lambda: build_dtn_cs(
            dec, system, EigenSelection("re_below", cfg.dtn_threshold, cfg.m_max)),
        "hgeneo": lambda: build_hgeneo_cs(
            dec, system, EigenSelection("abs_largest", None, cfg.m_max)),
        "deltageneo": lambda: build_deltageneo_cs(
            dec, prob, system, EigenSelection("re_above", cfg.lambda_min, cfg.m_max)),
    }


def _maxwell(cfg: RunConfig):
    """The Maxwell system of ``cfg``, its edge decomposition with Dirichlet
    factors (None for ASP, which needs none), and the coarse-space builder of
    each two-level method.  The partition is parsed and the overlap checked
    on the mesh before the global assembly, for every method."""
    mesh = build_rect_mesh(cfg.width, cfg.height, cfg.maxwell_cells, cfg.maxwell_cells)
    shape, grid = _partition_args(cfg)
    partition_mesh(mesh, cfg.overlap_layers, cfg.overlap_mode)
    if cfg.model == "channel":
        eps = channel_field(mesh, 1.0 / cfg.contrast, n_channels=cfg.n_channels,
                            base=cfg.c, width_frac=cfg.channel_width)
    elif cfg.model == "constant":
        eps = cfg.c
    else:
        raise StructuralError(f"unknown maxwell model {cfg.model!r}")
    prob = MaxwellProblem(mesh=mesh, mu_r=1.0, eps_r=eps, alpha=cfg.alpha)
    system = assemble_maxwell(prob)
    if cfg.random_source:
        system.b = np.random.default_rng(cfg.seed).standard_normal(system.n_dofs)
    if cfg.preconditioner == "asp":
        return system, None, {}
    dec = build_edge_decomposition(prob, system, cfg.n_subdomains, shape=shape,
                                   grid=grid, layers=cfg.overlap_layers,
                                   mode=cfg.overlap_mode)
    return system, dec, {
        "free-cs": lambda: build_free_cs(dec, system),
        "geneo-complement": lambda: build_geneo_complement_cs(
            dec, system, tau=cfg.tau, m_max=cfg.m_max),
    }


def run_case(cfg: RunConfig) -> SolveReport:
    """One deterministic benchmark run; non-convergence is reported, not raised.
    Helmholtz is solved by GMRES, Maxwell by CG.  An unknown preconditioner,
    or a mesh that ``estimate_dofs`` rejects, raises StructuralError before
    any set-up.  The decomposition and the coarse builders are dropped before
    the Krylov solve: the preconditioner holds all that its apply reads."""
    method = cfg.preconditioner
    if method not in _METHODS[cfg.problem]:
        raise StructuralError(f"unknown {cfg.problem} preconditioner {method!r}")
    estimate_dofs(cfg)
    set_up, variant = (_maxwell, "cg") if cfg.problem == "maxwell" else (_helmholtz, "gmres")
    kcfg = KrylovConfig(tol=cfg.tol, max_iter=cfg.max_iter, restart=cfg.restart,
                        variant=variant)
    t0 = time.perf_counter()
    system, dec, coarse_builders = set_up(cfg)
    cs = None
    if dec is None:
        op = AspPreconditioner(system).apply
    elif method == "one-level":
        op = OneLevel(dec).apply
    else:
        cs = coarse_builders[method]()
        op = TwoLevel(OneLevel(dec), cs, system.A, mode=cfg.two_level_mode).apply
    del dec, coarse_builders
    setup = time.perf_counter() - t0

    t1 = time.perf_counter()
    _, rep = krylov_solve(system.A, op, system.b, kcfg)
    solve = time.perf_counter() - t1
    n0, rejected, flags = (0, [], []) if cs is None else (cs.n0, cs.rejected, cs.flags)
    return SolveReport(rep.iterations, rep.converged, rep.final_residual, setup, solve,
                       system.A.shape[0], n0, cfg, list(rejected), list(flags))


# ----------------------------------------------------------------- sweeps

SWEEP_COLUMNS = ("f", "dofs", "N", "method", "iterations", "coarse_dim", "error",
                 "converged", "rejected", "flagged", "setup_time", "solve_time")


def _sweep_cell(base: RunConfig, f, N, method) -> dict:
    """One sweep row.  ``rejected`` is the total of eigenpairs that the
    residual contract dropped, ``flagged`` the flagged subdomains separated
    by spaces, or "none"; a skipped or failed cell has "-" in both.  A failed
    cell's ``converged`` names the exception's class and ``error`` holds the
    first line of its message; ``error`` is empty on every other row.  A cell
    whose mesh ``estimate_dofs`` rejects fails so, with "-" for ``dofs``."""
    cfg = replace(base, f=float(f), n_subdomains=int(N), preconditioner=method)
    unsolved = {"f": f, "dofs": "-", "N": N, "method": method,
                "iterations": "-", "coarse_dim": "-", "rejected": "-", "flagged": "-",
                "error": "", "setup_time": "", "solve_time": ""}
    try:
        unsolved["dofs"] = est = estimate_dofs(cfg)
        if est / max(N, 1) < cfg.dofs_floor:
            return {**unsolved, "converged": "skipped"}
        rep = run_case(cfg)
    except Exception as exc:  # isolate the cell, keep sweeping
        return {**unsolved, "converged": f"error:{type(exc).__name__}",
                "error": (str(exc).splitlines() or [""])[0]}
    return {
        "f": f, "dofs": rep.n_dofs, "N": N, "method": method,
        "iterations": rep.iterations if rep.converged else "-",
        "coarse_dim": rep.coarse_dim,
        "error": "",
        "converged": rep.converged,
        "rejected": sum(rep.rejected),
        "flagged": " ".join(map(str, rep.flags)) or "none",
        "setup_time": f"{rep.setup_time:.3f}",
        "solve_time": f"{rep.solve_time:.3f}",
    }


def run_sweep(base: RunConfig, f_values, n_values, methods) -> list:
    """Cartesian sweep, one cell after another in the (f, N, method) product
    order; per-cell failures are isolated and rendered '-'."""
    return [_sweep_cell(base, f, N, m) for f in f_values for N in n_values for m in methods]


def sweep_to_csv(rows, path=None) -> str:
    """RFC-4180-style CSV with a mandatory header; timing columns last."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def emit_dispersion(specs, path=None, samples: int = 50) -> str:
    """CSV of dispersion curves: scheme, p, 1/G, normalized velocity."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["scheme", "p", "inv_G", "velocity"])
    for spec in specs:
        for inv_g, vel in dispersion_curve(spec, samples=samples):
            writer.writerow([spec.scheme, spec.p, f"{inv_g:.10g}", f"{vel:.12g}"])
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text
