"""Helmholtz assembly: structure checks, FD oracle, convergence rates."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wavedd.helmholtz import (
    HelmholtzProblem,
    PointSource,
    _TRI_QP,
    _TRI_QW,
    _boundary_edge_triangles,
    _element_matrices,
    _scatter,
    _shape_grads,
    _shape_values,
    assemble_helmholtz,
    assemble_load,
    interpolate,
    l2_error,
    mesh_size_rule,
    nearest_dof,
    ppwl,
)
from wavedd.linalg import is_symmetric
from wavedd.mesh import build_rect_mesh, refine_uniform
from wavedd.velocity import VelocityModel


def _problem(mesh, omega=0.0, c=1.0, bc="impedance", source=(0.5, 0.5)):
    return HelmholtzProblem(
        mesh=mesh,
        model=VelocityModel.constant(c),
        omega=omega,
        source=PointSource(*source),
        outer_bc=bc,
    )


# ------------------------------------------------------- Poisson limit


def _fd_poisson_solve(nx, load_index, amplitude):
    """Independent 5-point finite difference Poisson solve on the interior
    grid of an (nx x nx)-cell unit square, with a delta load."""
    h = 1.0 / nx
    m = nx - 1  # interior nodes per direction
    n = m * m
    rows, cols, vals = [], [], []
    for j in range(m):
        for i in range(m):
            k = j * m + i
            rows.append(k); cols.append(k); vals.append(4.0)
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < m and 0 <= jj < m:
                    rows.append(k); cols.append(jj * m + ii); vals.append(-1.0)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n)) / h**2
    b = np.zeros(n)
    b[load_index] = amplitude / h**2
    return spla.spsolve(A, b)


def test_omega_zero_dirichlet_is_pure_laplacian():
    mesh = build_rect_mesh(1.0, 1.0, 8, 8, order=1)
    sys = assemble_helmholtz(_problem(mesh, omega=0.0, bc="dirichlet"))
    assert np.abs(sys.A.toarray() - sys.L.toarray()).max() == 0.0


def test_poisson_matches_fd_oracle():
    """P1 stiffness on the structured mesh equals the 5-point stencil, so the
    FEM delta-load solution must match the FD one up to solver roundoff."""
    nx = 16
    mesh = build_rect_mesh(1.0, 1.0, nx, nx, order=1)
    prob = _problem(mesh, omega=0.0, bc="dirichlet", source=(0.52, 0.52))
    sys = assemble_helmholtz(prob)
    u = spla.spsolve(sys.A, sys.b).real

    dof = nearest_dof(mesh, 0.52, 0.52)
    xy = mesh.dof_coords()[dof]
    i, j = int(round(xy[0] * nx)) - 1, int(round(xy[1] * nx)) - 1
    u_fd = _fd_poisson_solve(nx, j * (nx - 1) + i, 1.0)

    # compare on interior grid nodes
    err = 0.0
    for jj in range(1, nx):
        for ii in range(1, nx):
            d = nearest_dof(mesh, ii / nx, jj / nx)
            err = max(err, abs(u[d] - u_fd[(jj - 1) * (nx - 1) + (ii - 1)]))
    assert err < 1e-2 * np.abs(u_fd).max()


# ------------------------------------------------------- structure


def test_impedance_symmetric_non_hermitian():
    mesh = build_rect_mesh(1.0, 1.0, 6, 6, order=2)
    sys = assemble_helmholtz(_problem(mesh, omega=2 * np.pi * 3))
    A = sys.A.toarray()
    assert np.abs(A - A.T).max() == 0.0
    assert np.abs(A - A.conj().T).max() > 1e-6


def test_decomposition_into_parts():
    mesh = build_rect_mesh(1.0, 1.0, 5, 4, order=2)
    sys = assemble_helmholtz(_problem(mesh, omega=2 * np.pi * 2))
    A = sys.A.toarray()
    L = sys.L.toarray()
    W = sys.weighted_mass.toarray()
    G = sys.impedance_mass.toarray()
    assert np.abs(A - (L - W + 1j * G)).max() < 1e-14 * np.abs(A).max()


def test_stiffness_psd_with_constant_kernel():
    mesh = build_rect_mesh(1.0, 1.0, 5, 5, order=2)
    sys = assemble_helmholtz(_problem(mesh, omega=2 * np.pi))
    L = sys.L.toarray().real
    w = np.linalg.eigvalsh(L)
    assert w[0] > -1e-10
    assert w[0] == pytest.approx(0.0, abs=1e-10)  # constants
    assert w[1] > 1e-8  # connected mesh: zero-mean subspace is positive


def test_mass_symmetric_positive_diagonal():
    mesh = build_rect_mesh(1.0, 1.0, 6, 3, order=2)
    sys = assemble_helmholtz(_problem(mesh, omega=2 * np.pi * 2))
    W = sys.weighted_mass
    assert is_symmetric(W)
    assert np.all(W.diagonal().real > 0)
    G = sys.impedance_mass
    assert is_symmetric(G)


def test_point_source_single_entry():
    mesh = build_rect_mesh(1.0, 1.0, 8, 8, order=2)
    sys = assemble_helmholtz(_problem(mesh, omega=2 * np.pi, source=(0.31, 0.62)))
    assert np.count_nonzero(sys.b) == 1
    dof = np.flatnonzero(sys.b)[0]
    assert sys.b[dof] == 1.0


def test_zero_area_element_rejected():
    mesh = build_rect_mesh(1.0, 1.0, 2, 2, order=1)
    mesh.vertices[4] = mesh.vertices[1]  # collapse an interior vertex
    with pytest.raises(Exception):
        assemble_helmholtz(_problem(mesh, omega=1.0))


# ------------------------------------------------------- element kernel


def _random_triangles(m, seed):
    """m positively oriented triangles of mixed size, skew and position:
    the second edge is the first rotated by 0.05 to 3.09 rad and scaled by
    0.1 to 3."""
    rng = np.random.default_rng(seed)
    p0 = rng.uniform(-10.0, 10.0, (m, 2))
    phi = rng.uniform(0.0, 2 * np.pi, m)
    e1 = rng.uniform(0.01, 1.0, m)[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])
    theta = phi + rng.uniform(0.05, np.pi - 0.05, m)
    e2 = (rng.uniform(0.1, 3.0, m) * np.hypot(*e1.T))[:, None] \
        * np.column_stack([np.cos(theta), np.sin(theta)])
    return np.stack([p0, p0 + e1, p0 + e2], axis=1)  # (m, 3, 2)


def _pointwise_element_matrices(p, order):
    """The element matrices by physical gradients at every quadrature point."""
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    area = 0.5 * np.linalg.det(J)
    g = np.einsum("qid,mde->mqie", _shape_grads(order, _TRI_QP), np.linalg.inv(J))
    Ke = np.einsum("q,mqie,mqje,m->mij", _TRI_QW, g, g, area)
    N = _shape_values(order, _TRI_QP)
    Me = np.einsum("q,qi,qj,m->mij", _TRI_QW, N, N, area)
    return Ke, Me, area


@pytest.mark.parametrize("order", [1, 2])
def test_element_matrices_match_pointwise_quadrature(order):
    """The reference-tensor kernel against gradients at every quadrature
    point, on skewed triangles; for P1 also against the closed forms
    K_ij = area grad(lam_i) . grad(lam_j) and M_ij = area (1 + delta_ij) / 12."""
    m = 200
    p = _random_triangles(m, seed=13 + order)
    mesh = SimpleNamespace(vertices=p.reshape(-1, 2), triangles=np.arange(3 * m).reshape(m, 3),
                           order=order)
    Ke, Me = _element_matrices(mesh, np.arange(m))
    Ke_q, Me_q, area = _pointwise_element_matrices(p, order)
    nd = 3 if order == 1 else 6
    assert Ke.shape == Me.shape == (m, nd, nd)
    scale = np.abs(Ke_q).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(Ke - Ke_q) <= 1e-14 * scale)
    assert np.all(np.abs(Me - Me_q) <= 1e-14 * np.abs(Me_q).max(axis=(1, 2))[:, None, None])
    assert np.array_equal(Ke, Ke.transpose(0, 2, 1))
    assert np.all(np.abs(Ke.sum(axis=2)) <= 1e-14 * scale[:, :, 0])  # constants
    if order == 1:
        x, y = p[..., 0], p[..., 1]
        grad = np.stack([np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1),
                         np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)],
                        axis=-1) / (2 * area)[:, None, None]
        K_closed = np.einsum("mid,mjd,m->mij", grad, grad, area)
        M_closed = area[:, None, None] * (1.0 + np.eye(3)) / 12.0
        assert np.all(np.abs(Ke - K_closed) <= 1e-14 * scale)
        assert np.all(np.abs(Me - M_closed) <= 1e-14 * M_closed.max(axis=(1, 2))[:, None, None])


# ------------------------------------------------------- consistency rates


def _plane_wave_residual(order, nx, omega):
    mesh = build_rect_mesh(1.0, 1.0, nx, nx, order=order)
    prob = _problem(mesh, omega=omega)
    sys = assemble_helmholtz(prob)
    k = omega  # c = 1
    u = interpolate(mesh, lambda x, y: np.exp(1j * k * x))
    r = (sys.L - sys.weighted_mass) @ u
    # interior rows only: drop every dof on a boundary edge
    from wavedd.helmholtz import _boundary_edge_dofs

    bdofs = np.unique(_boundary_edge_dofs(mesh, mesh.boundary_edges).ravel())
    mask = np.ones(mesh.n_dofs, bool)
    mask[bdofs] = False
    return np.abs(r[mask]).max()


@pytest.mark.parametrize("order,min_slope", [(1, 1.8), (2, 1.9)])
def test_plane_wave_interior_residual_rate(order, min_slope):
    """Interior consistency: rows of (L - W) on the plane-wave interpolant
    vanish at rate >= h^p (P1 superconverges to h^4 on this structured mesh,
    measured slopes ~3.9 and ~2.1)."""
    omega = 2 * np.pi
    res = [_plane_wave_residual(order, nx, omega) for nx in (8, 16, 32)]
    slopes = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert slopes.mean() >= min_slope


@pytest.mark.parametrize("order,rate", [(1, 2.0), (2, 3.0)])
def test_manufactured_plane_wave_convergence(order, rate):
    """Impedance problem with boundary data chosen so u = exp(ikx) exactly."""
    omega = 2 * np.pi
    k = omega

    def exact(x, y):
        return np.exp(1j * k * x)

    def bdata(x, y, nx_, ny_):
        du_dn = 1j * k * nx_ * np.exp(1j * k * x)
        return du_dn + 1j * k * exact(x, y)

    errs = []
    for nx in (8, 16, 32):
        mesh = build_rect_mesh(1.0, 1.0, nx, nx, order=order)
        prob = HelmholtzProblem(
            mesh=mesh,
            model=VelocityModel.constant(1.0),
            omega=omega,
            source=None,
            outer_bc="impedance",
            boundary_data=bdata,
        )
        sys = assemble_helmholtz(prob)
        u = spla.spsolve(sys.A, sys.b)
        errs.append(l2_error(mesh, u, exact))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert slopes.mean() >= rate - 0.25


# ------------------------------------------------------- load vector


def _plane_wave_data(x, y, nx_, ny_):
    return (1j * nx_ + 1j) * np.exp(1j * x)


@pytest.mark.parametrize("bc", ["impedance", "dirichlet"])
@pytest.mark.parametrize("kind", ["point", "volume", "boundary"])
def test_assemble_load_matches_assembled_load(kind, bc):
    mesh = build_rect_mesh(1.0, 1.0, 6, 5, order=2)
    prob = HelmholtzProblem(
        mesh=mesh,
        model=VelocityModel.constant(1.0),
        omega=2 * np.pi,
        source=PointSource(0.3, 0.7, 2.0 - 1.0j) if kind == "point" else None,
        outer_bc=bc,
        volume_source=(lambda x, y: np.sin(3 * x) * y) if kind == "volume" else None,
        boundary_data=_plane_wave_data if kind == "boundary" else None,
    )
    b = assemble_load(prob)
    assert np.array_equal(b, assemble_helmholtz(prob).b)
    assert np.any(b != 0) or (kind, bc) == ("boundary", "dirichlet")


def _boundary_edge_triangles_loop(mesh):
    """Reference: the first triangle in mesh order that has each edge."""
    owner = {}
    for t in range(mesh.n_triangles):
        for e in mesh.tri_edges[t]:
            owner.setdefault(int(e), t)
    return [(int(e), owner[int(e)]) for e in mesh.boundary_edges]


@pytest.mark.parametrize("order", [1, 2])
def test_boundary_edge_triangles_match_loop(order):
    mesh = refine_uniform(build_rect_mesh(2.0, 1.0, 5, 3, order=order), 1)
    pairs = _boundary_edge_triangles(mesh)
    assert [tuple(p) for p in pairs.tolist()] == _boundary_edge_triangles_loop(mesh)


# ------------------------------------------------------- resolution rules


def test_scatter_skips_eliminated_dofs_and_sums_duplicates():
    """``_scatter`` against a dense loop, with -1 DOFs, a DOF repeated within
    one element and a DOF that no element uses; integer-valued blocks make
    every summation order exact."""
    dofmap = np.array([[0, 2, -1], [2, 0, 1], [-1, -1, 3], [1, 1, 2]])
    Ae = np.random.default_rng(4).integers(-9, 10, (4, 3, 3)).astype(float)
    n = 5
    ref = np.zeros((n, n))
    for dofs, block in zip(dofmap, Ae):
        for i, r in enumerate(dofs):
            for j, c in enumerate(dofs):
                if r >= 0 and c >= 0:
                    ref[r, c] += block[i, j]
    S = _scatter(dofmap, Ae, n)
    assert S.format == "csr" and S.shape == (n, n)
    assert np.array_equal(S.toarray(), ref)
    assert not ref[4].any()


def test_ppwl_formula():
    assert ppwl(omega=2 * np.pi / (10 * 0.1), c=1.0, h=0.1) == pytest.approx(10.0)
    assert ppwl(omega=2 * np.pi, c=1.0, h=1.0) == pytest.approx(1.0)


def test_ppwl_round_trip():
    c, f, G = 1.5, 5.0, 5.0
    omega = 2 * np.pi * f
    h = 2 * np.pi * c / (omega * G)
    assert h == pytest.approx(0.06)
    assert ppwl(omega, c, h) == pytest.approx(G)


def test_mesh_size_fixed_ppwl():
    assert mesh_size_rule(2 * np.pi, rule="fixed-ppwl", G=10, c=1.0) == pytest.approx(0.1)


def test_mesh_size_pollution_free_exponent():
    h1 = mesh_size_rule(3.0, p=1, rule="pollution-free")
    h2 = mesh_size_rule(6.0, p=1, rule="pollution-free")
    assert h1 / h2 == pytest.approx(4.0)


def test_mesh_size_bounded_error_exponent():
    h1 = mesh_size_rule(3.0, p=2, rule="bounded-error")
    h2 = mesh_size_rule(6.0, p=2, rule="bounded-error")
    assert h1 / h2 == pytest.approx(2**1.25)


def test_mesh_size_calibration():
    omega0 = 2 * np.pi
    for rule in ("pollution-free", "bounded-error"):
        h = mesh_size_rule(omega0, p=2, rule=rule, omega_ref=omega0)
        assert h == pytest.approx(2 * np.pi / (omega0 * 10.0))
