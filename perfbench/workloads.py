"""The three workloads: what each sets up, which loads it solves, and with
which methods (each two-level method names the one-level method it must
beat in iterations).

A workload's set-up and its set of loads depend on no seed.  The seed only
orders the loads and flips the sign of each (``seeded_loads``): negation is
exact in floating point, so every seed solves the same systems with the same
arithmetic up to sign and takes the same iterations.  A round solves every
load with every method of the workload, so all rounds of a run, and all runs,
repeat the same operations.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from wavedd.decomposition import assemble_local_matrices, decompose
from wavedd.helmholtz import HelmholtzProblem, PointSource, assemble_helmholtz, nearest_dof
from wavedd.linalg import KrylovConfig
from wavedd.maxwell import (
    MaxwellProblem,
    OneLevelAdditiveSchwarz,
    TwoLevelAdditiveSchwarz,
    assemble_maxwell,
    build_edge_decomposition,
    build_free_cs,
    build_geneo_complement_cs,
    channel_field,
)
from wavedd.mesh import build_rect_mesh, refine_uniform
from wavedd.schwarz import (
    EigenSelection,
    OneLevelOras,
    TwoLevel,
    build_dtn_cs,
    build_grid_cs,
    build_hgeneo_cs,
)
from wavedd.velocity import VelocityModel

from .tracing import TimedApply, Tracer

TOL = 1e-6
LOAD_SEED = 2103_06025  # fixed generator of the Maxwell step loads
GMRES = KrylovConfig(tol=TOL, max_iter=500)
CG = KrylovConfig(tol=TOL, max_iter=500, variant="cg")


@dataclass(frozen=True)
class Method:
    name: str
    A: object            # operator handed to krylov_solve
    M: object            # preconditioner handed to krylov_solve
    cfg: KrylovConfig
    baseline: str | None = None  # method it must beat in iterations


def _basis_mb(Z) -> float:
    """Computed bytes of a coarse basis, dense or sparse."""
    if hasattr(Z, "indptr"):
        nbytes = Z.data.nbytes + Z.indices.nbytes + Z.indptr.nbytes
    else:
        nbytes = Z.nbytes
    return nbytes / 2**20


def seeded_loads(loads: list, rng: np.random.Generator) -> list:
    """The loads in a seeded order, each multiplied by a seeded sign."""
    signs = rng.choice((-1.0, 1.0), size=len(loads))
    return [signs[i] * loads[i] for i in rng.permutation(len(loads))]


def _operator(A, tr: Tracer, traced: bool):
    return tr.timed("linalg.operator_apply", A.matvec) if traced else A


# ------------------------------------------------------------------ Helmholtz


@dataclass(frozen=True)
class WedgeCase:
    """Layered wedge (velocities 1.0, 2.2, 5.0 km/s from the bottom up),
    P2 on one uniform refinement of a coarse grid, N vertical strips."""

    width: float
    height: float
    coarse_cells: tuple
    freq: float
    n_sub: int
    source_y: float

    def interfaces(self):
        s = self.height / 0.25  # interfaces of the 0.25 km acceptance wedge, scaled
        return [(0.09 * s, 0.02 * s), (0.17 * s, -0.015 * s)]


def _helmholtz_setup(case: WedgeCase, tr: Tracer) -> SimpleNamespace:
    st = SimpleNamespace()
    with tr.span("mesh.build"):
        st.coarse = build_rect_mesh(case.width, case.height, *case.coarse_cells, order=2)
        st.mesh = refine_uniform(st.coarse, 1)
    model = VelocityModel.layered_wedge([1.0, 2.2, 5.0], case.interfaces())
    st.problem = HelmholtzProblem(
        mesh=st.mesh, model=model, omega=2 * np.pi * case.freq,
        source=PointSource(case.width / 2, case.source_y))
    with tr.span("helmholtz.assemble"):
        st.system = assemble_helmholtz(st.problem)
    with tr.span("decomposition.decompose"):
        st.dec = decompose(st.mesh, case.n_sub, shape="strips")
    with tr.span("decomposition.local_setup"):
        assemble_local_matrices(st.dec, st.problem, st.system)
    st.one = OneLevelOras(st.dec)
    st.A = st.system.A.to_scipy()
    st.coarse_spaces = {}
    return st


def _point_loads(st, xs, y):
    loads = []
    for x in xs:
        b = np.zeros(st.A.shape[0], dtype=np.complex128)
        b[nearest_dof(st.mesh, float(x), y)] = 1.0
        loads.append(b)
    return loads


def _oras_methods(st, tr: Tracer, traced: bool) -> list:
    """One-level ORAS plus every coarse space in ``st.coarse_spaces``, each
    combined with it in the library's default (hybrid) two-level form."""
    A = _operator(st.system.A, tr, traced)
    one = TimedApply(st.one, "schwarz.one_level_apply", tr) if traced else st.one
    methods = [Method("one-level", A, one.apply, GMRES)]
    for name, cs in st.coarse_spaces.items():
        coarse = TimedApply(cs, "schwarz.coarse_apply", tr) if traced else cs
        two = TwoLevel(one, coarse, st.system.A)
        M = tr.timed("schwarz.two_level_apply", two.apply) if traced else two.apply
        methods.append(Method(name, A, M, GMRES, baseline="one-level"))
    return methods


@dataclass(frozen=True)
class HelmholtzShots:
    """Seismic shots: one ORAS set-up, then one GMRES solve per shot, the
    load of a shot being the unit point load at the DOF nearest to it."""

    case: WedgeCase
    shots: int
    name: str = "helmholtz-shots"

    def setup(self, tr: Tracer):
        return _helmholtz_setup(self.case, tr)

    def loads(self, st):
        xs = np.linspace(0.2, 0.8, self.shots) * self.case.width
        return _point_loads(st, xs, self.case.source_y)

    def methods(self, st, tr: Tracer, traced: bool):
        return _oras_methods(st, tr, traced)

    def layer_values(self, st) -> dict:
        return {}


@dataclass(frozen=True)
class WedgeSpectral:
    """One decomposition, three coarse spaces (grid, DtN, H-GenEO) and
    one-level ORAS, each solving the same point load."""

    case: WedgeCase
    m_max: int
    name: str = "wedge-spectral"

    def setup(self, tr: Tracer):
        st = _helmholtz_setup(self.case, tr)
        with tr.span("schwarz.grid_cs"):
            st.coarse_spaces["grid"] = build_grid_cs(st.problem, st.coarse, st.system)
        with tr.span("schwarz.dtn_cs"):
            st.coarse_spaces["dtn"] = build_dtn_cs(
                st.dec, st.system, EigenSelection("re_below", None, 20))
        with tr.span("schwarz.hgeneo_cs"):
            st.coarse_spaces["hgeneo"] = build_hgeneo_cs(
                st.dec, st.system, EigenSelection("abs_largest", None, self.m_max))
        return st

    def loads(self, st):
        return _point_loads(st, [self.case.width / 2], self.case.source_y)

    def methods(self, st, tr: Tracer, traced: bool):
        return _oras_methods(st, tr, traced)

    def layer_values(self, st) -> dict:
        out = {f"schwarz.coarse_dim.{k}": cs.n0 for k, cs in st.coarse_spaces.items()}
        out["schwarz.coarse_basis_mb"] = sum(
            _basis_mb(cs.Z) for cs in st.coarse_spaces.values())
        return out


# ------------------------------------------------------------------ Maxwell


@dataclass(frozen=True)
class MaxwellSteps:
    """eps-channel model: free + GenEO-complement two-level additive Schwarz
    built once, then PCG for a sequence of random loads from a fixed
    generator (the right-hand sides of successive implicit time steps), with
    one-level additive Schwarz on the same loads."""

    cells: int
    contrast: float
    n_sub: int
    grid: tuple
    steps: int
    name: str = "maxwell-steps"

    def setup(self, tr: Tracer):
        st = SimpleNamespace()
        with tr.span("mesh.build"):
            st.mesh = build_rect_mesh(1.0, 1.0, self.cells, self.cells)
        eps = channel_field(st.mesh, 1.0 / self.contrast, n_channels=10, width_frac=0.02)
        st.problem = MaxwellProblem(mesh=st.mesh, eps_r=eps, alpha=1e-2)
        with tr.span("maxwell.assemble"):
            st.system = assemble_maxwell(st.problem)
        with tr.span("maxwell.edge_decomposition"):
            st.dec = build_edge_decomposition(st.problem, st.system, self.n_sub,
                                              shape="grid", grid=self.grid)
        st.one = OneLevelAdditiveSchwarz(st.dec)
        with tr.span("maxwell.free_cs"):
            free = build_free_cs(st.dec, st.system)
        with tr.span("maxwell.geneo_cs"):
            st.cs = build_geneo_complement_cs(st.dec, st.system, tau=10.0, free_cs=free)
        st.A = st.system.A.to_scipy()
        st.coarse_spaces = {"maxwell-two-level": st.cs}
        return st

    def loads(self, st):
        rng = np.random.default_rng(LOAD_SEED)
        return [rng.standard_normal(st.A.shape[0]) for _ in range(self.steps)]

    def methods(self, st, tr: Tracer, traced: bool):
        A = _operator(st.system.A, tr, traced)
        one = TimedApply(st.one, "maxwell.one_level_apply", tr) if traced else st.one
        coarse = TimedApply(st.cs, "schwarz.coarse_apply", tr) if traced else st.cs
        two = TwoLevelAdditiveSchwarz(one, coarse, st.system.A)
        M2 = tr.timed("maxwell.two_level_apply", two.apply) if traced else two.apply
        return [
            Method("maxwell-two-level", A, M2, CG, baseline="maxwell-one-level"),
            Method("maxwell-one-level", A, one.apply, CG),
        ]

    def layer_values(self, st) -> dict:
        return {"maxwell.coarse_dim": st.cs.n0,
                "maxwell.coarse_basis_mb": _basis_mb(st.cs.Z)}


# ------------------------------------------------------------------ sizes

FULL = {
    w.name: w for w in (
        # ~32k P2 DOFs: 2.5 x 0.5 km at 8 Hz and 10 points per wavelength
        HelmholtzShots(WedgeCase(2.5, 0.5, (100, 20), 8.0, 8, 0.45), shots=2),
        # the 5-ppwl wedge of acceptance criterion 5: n = 4221, N = 16
        WedgeSpectral(WedgeCase(2.5, 0.25, (50, 5), 8.0, 16, 0.22), m_max=40),
        # 36 cells is the smallest size at which GenEO adds modes to the free space
        MaxwellSteps(cells=36, contrast=1e4, n_sub=8, grid=(4, 2), steps=8),
    )
}

# Reduced sizes for the benchmark's own tests: same code paths, seconds each.
SMALL = {
    w.name: w for w in (
        HelmholtzShots(WedgeCase(2.5, 0.5, (25, 5), 2.0, 4, 0.45), shots=2),
        WedgeSpectral(WedgeCase(2.5, 0.25, (25, 3), 2.0, 4, 0.22), m_max=10),
        MaxwellSteps(cells=16, contrast=1e4, n_sub=4, grid=(2, 2), steps=2),
    )
}
