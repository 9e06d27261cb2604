"""P1/P2 Lagrange assembly of the heterogeneous Helmholtz operator.

The weak form of  -lap(u) - (omega/c)^2 u = f  with the impedance (absorbing)
outer condition (d/dn + ik) u = 0 yields

    A = L - W + i*Gamma,

with L the stiffness matrix, W the k^2-weighted mass matrix (c sampled at
element centroids, so quadrature is exact for the piecewise-constant
coefficient) and Gamma the boundary mass weighted by k per boundary edge.
L and W are returned separately since the spectral coarse spaces reuse them.

The element stiffness is built in reference-tensor form: one tensor of
reference-gradient integrals per call, contracted with each element's 2 x 2
metric area J^-1 J^-T.  This is exact for affine P1 and P2 elements, with no
quadrature per element.

Resolution bookkeeping: the points-per-wavelength count is
G = lambda / h = 2 pi c / (omega h) for mesh size h.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import StructuralError
from .linalg import ComplexSparseMatrix, is_symmetric
from .mesh import Mesh
from .velocity import VelocityModel

__all__ = [
    "PointSource",
    "HelmholtzProblem",
    "AssembledSystem",
    "assemble_helmholtz",
    "assemble_load",
    "assemble_helmholtz_subset",
    "ppwl",
    "mesh_size_rule",
    "l2_error",
    "interpolate",
]

# degree-5 rule on the reference triangle; weights sum to 1 (scale by area)
_B1 = (6.0 - np.sqrt(15.0)) / 21.0
_B2 = (6.0 + np.sqrt(15.0)) / 21.0
_W1 = (155.0 - np.sqrt(15.0)) / 1200.0
_W2 = (155.0 + np.sqrt(15.0)) / 1200.0
_TRI_QP = np.array(
    [
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [1.0 - 2 * _B1, _B1, _B1],
        [_B1, 1.0 - 2 * _B1, _B1],
        [_B1, _B1, 1.0 - 2 * _B1],
        [1.0 - 2 * _B2, _B2, _B2],
        [_B2, 1.0 - 2 * _B2, _B2],
        [_B2, _B2, 1.0 - 2 * _B2],
    ]
)  # barycentric coordinates (lam0, lam1, lam2)
_TRI_QW = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])

# 3-point Gauss on [0, 1] (degree 5), for boundary edge integrals
_EDGE_QP = np.array([0.5 - np.sqrt(3.0 / 20.0), 0.5, 0.5 + np.sqrt(3.0 / 20.0)])
_EDGE_QW = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

_GRAD_LAM = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # d(lam)/d(xi, eta)


def _shape_values(order: int, bary: np.ndarray) -> np.ndarray:
    """Basis values at barycentric points: (nq, nd)."""
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    if order == 1:
        return np.column_stack([l0, l1, l2])
    return np.column_stack(
        [
            l0 * (2 * l0 - 1),
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            4 * l1 * l2,
            4 * l2 * l0,
            4 * l0 * l1,
        ]
    )


def _shape_grads(order: int, bary: np.ndarray) -> np.ndarray:
    """Reference gradients at barycentric points: (nq, nd, 2)."""
    nq = bary.shape[0]
    if order == 1:
        return np.broadcast_to(_GRAD_LAM, (nq, 3, 2)).copy()
    g = np.empty((nq, 6, 2))
    l = bary
    for q in range(nq):
        l0, l1, l2 = l[q]
        g0, g1, g2 = _GRAD_LAM
        g[q, 0] = (4 * l0 - 1) * g0
        g[q, 1] = (4 * l1 - 1) * g1
        g[q, 2] = (4 * l2 - 1) * g2
        g[q, 3] = 4 * (l2 * g1 + l1 * g2)
        g[q, 4] = 4 * (l0 * g2 + l2 * g0)
        g[q, 5] = 4 * (l1 * g0 + l0 * g1)
    return g


def _edge_trace(order: int, t: np.ndarray) -> np.ndarray:
    """Trace basis on an edge at parameters t: (nq, 2) for P1, (nq, 3) for P2
    with dof order (endpoint a, endpoint b, midpoint)."""
    if order == 1:
        return np.column_stack([1 - t, t])
    return np.column_stack([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)])


@dataclass(frozen=True)
class PointSource:
    x: float
    y: float
    amplitude: complex = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise StructuralError("source coordinates must be finite")
        if not np.isfinite(self.amplitude):
            raise StructuralError("source amplitude must be finite")


@dataclass(frozen=True)
class HelmholtzProblem:
    """Continuous problem description.

    ``volume_source`` and ``boundary_data`` are analysis hooks used by
    manufactured-solution tests: f(x, y) adds a volume load, g(x, y, nx, ny)
    adds impedance boundary data (d/dn + ik) u = g.
    """

    mesh: Mesh
    model: VelocityModel
    omega: float
    source: PointSource
    outer_bc: str = "impedance"
    volume_source: Callable | None = None
    boundary_data: Callable | None = None

    def __post_init__(self):
        if self.omega < 0:
            raise StructuralError("omega must be nonnegative")
        if self.outer_bc not in ("impedance", "dirichlet"):
            raise StructuralError(f"unknown outer_bc {self.outer_bc!r}")

    def wavenumber(self, x, y):
        return self.omega / self.model(x, y)


@dataclass
class AssembledSystem:
    A: ComplexSparseMatrix          # L - W + i*Gamma, complex symmetric CSR; Gamma = A.imag
    b: np.ndarray
    L: sp.csr_matrix                # stiffness (Laplacian part), real values
    weighted_mass: sp.csr_matrix    # k^2-weighted mass W
    dirichlet_dofs: np.ndarray


def _element_geometry(mesh: Mesh, elements: np.ndarray):
    p = mesh.vertices[mesh.triangles[elements]]  # (m, 3, 2)
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)  # (m, 2, 2)
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if np.any(detJ <= 0):
        raise StructuralError("zero-area or inverted element in assembly")
    inv = np.empty_like(J)
    inv[:, 0, 0] = J[:, 1, 1]
    inv[:, 0, 1] = -J[:, 0, 1]
    inv[:, 1, 0] = -J[:, 1, 0]
    inv[:, 1, 1] = J[:, 0, 0]
    inv /= detJ[:, None, None]
    return p, J, inv, detJ


def _element_matrices(mesh: Mesh, elements: np.ndarray):
    """Exact stiffness and mass element matrices for all given elements.

    Reference-tensor form (Kirby and Logg, ACM TOMS 32(3), 2006): on an
    affine triangle the physical gradients are the reference ones times
    J^-1, so

        Ke[m, i, j] = sum_{d, e} T[i, j, d, e] G[m, d, e],
        T[i, j, d, e] = sum_q w_q dN[q, i, d] dN[q, j, e],
        G[m] = area_m J_m^-1 J_m^-T.

    T is built once from the degree-5 rule, which integrates it exactly
    for P1 and P2 (its integrand has degree 2 (order - 1) <= 2), and each
    element needs only its 2 x 2 metric G.  Me is the reference mass
    scaled by the element area.
    """
    _, _, Jinv, detJ = _element_geometry(mesh, elements)
    area = 0.5 * detJ
    N = _shape_values(mesh.order, _TRI_QP)     # (nq, nd)
    dN = _shape_grads(mesh.order, _TRI_QP)     # (nq, nd, 2)
    nd = dN.shape[1]
    T = np.einsum("q,qid,qje->ijde", _TRI_QW, dN, dN).reshape(nd * nd, 4)
    G = (Jinv @ Jinv.transpose(0, 2, 1)) * area[:, None, None]
    Ke = (G.reshape(-1, 4) @ T.T).reshape(-1, nd, nd)
    Ke = 0.5 * (Ke + Ke.transpose(0, 2, 1))  # exact symmetry, not just roundoff-level
    Me_ref = np.einsum("q,qi,qj->ij", _TRI_QW, N, N)  # scale by element area
    Me_ref = 0.5 * (Me_ref + Me_ref.T)
    Me = Me_ref[None, :, :] * area[:, None, None]
    return Ke, Me


def _quad_points_xy(mesh: Mesh, elements: np.ndarray):
    p = mesh.vertices[mesh.triangles[elements]]
    # x(q) = lam0 p0 + lam1 p1 + lam2 p2
    return np.einsum("qk,mkd->mqd", _TRI_QP, p)


def _boundary_edge_dofs(mesh: Mesh, edge_ids: np.ndarray):
    e = mesh.edges[edge_ids]
    if mesh.order == 1:
        return e
    return np.column_stack([e, mesh.n_vertices + edge_ids])


def _gamma_blocks(problem: HelmholtzProblem, edge_ids: np.ndarray):
    """Edge mass element blocks on the given edges: their (ne, nd) DOF map,
    the blocks weighted by the wavenumber sampled at each edge midpoint (the
    impedance boundary mass, or the Robin interface term), and the
    unweighted blocks (the interface mass)."""
    mesh = problem.mesh
    pts = mesh.vertices[mesh.edges[edge_ids]]
    mids = pts.mean(axis=1)
    lengths = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    k_edge = problem.wavenumber(mids[:, 0], mids[:, 1])
    tr = _edge_trace(mesh.order, _EDGE_QP)     # (nq, nd)
    ref_mass = np.einsum("q,qi,qj->ij", _EDGE_QW, tr, tr)
    return (_boundary_edge_dofs(mesh, edge_ids),
            ref_mass[None, :, :] * (k_edge * lengths)[:, None, None],
            ref_mass[None, :, :] * lengths[:, None, None])


def _mask_rows_cols(csr: sp.csr_matrix, dofs: np.ndarray, diag: float = 0.0):
    """Zero the given rows and columns; optionally put ``diag`` on the diagonal."""
    if dofs.size == 0:
        return csr
    n = csr.shape[0]
    keep = np.ones(n)
    keep[dofs] = 0.0
    D = sp.diags(keep)
    out = (D @ csr @ D).tocsr()
    if diag != 0.0:
        ind = np.zeros(n)
        ind[dofs] = diag
        out = (out + sp.diags(ind)).tocsr()
    return out


def _scatter(dofmap: np.ndarray, Ae: np.ndarray, n: int) -> sp.csr_matrix:
    """Sum the element matrices Ae, (m, nd, nd), into a sparse n x n matrix
    by the (m, nd) DOF map, skipping -1 DOFs (eliminated ones)."""
    nd = dofmap.shape[1]
    rows = np.repeat(dofmap, nd, axis=1).ravel()
    cols = np.tile(dofmap, (1, nd)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    return sp.coo_matrix((Ae.reshape(-1)[keep], (rows[keep], cols[keep])),
                         shape=(n, n)).tocsr()


def _require_finite(A: sp.csr_matrix) -> None:
    """Raise StructuralError when an assembled matrix holds inf or NaN, which
    the symmetry test would otherwise report as asymmetry."""
    if not np.isfinite(A.data).all():
        raise StructuralError("assembled matrix has non-finite entries "
                              "(overflowing coefficients or degenerate elements)")


def nearest_dof(mesh: Mesh, x: float, y: float) -> int:
    coords = mesh.dof_coords()
    return int(np.argmin((coords[:, 0] - x) ** 2 + (coords[:, 1] - y) ** 2))


def assemble_helmholtz(problem: HelmholtzProblem) -> AssembledSystem:
    """Assemble A = L - W + i*Gamma and the load vector.

    The point source becomes a delta load at the nearest DOF.  With the
    Dirichlet outer condition the boundary rows/columns are eliminated
    symmetrically (unit diagonal kept in L), so A keeps its full size.
    """
    mesh = problem.mesh
    n = mesh.n_dofs
    elements = np.arange(mesh.n_triangles)
    Ke, Me = _element_matrices(mesh, elements)
    eldofs = mesh.element_dofs()
    cent = mesh.centroids()
    k_elem = problem.wavenumber(cent[:, 0], cent[:, 1])
    We = Me * (k_elem**2)[:, None, None]

    L = _scatter(eldofs, Ke, n)
    W = _scatter(eldofs, We, n)

    if problem.outer_bc == "impedance":
        gdofs, weighted, _ = _gamma_blocks(problem, mesh.boundary_edges)
        Gamma = _scatter(gdofs, weighted, n)
        dirichlet = np.empty(0, dtype=np.int64)
    else:
        Gamma = sp.csr_matrix((n, n))
        bdofs = np.unique(_boundary_edge_dofs(mesh, mesh.boundary_edges).ravel())
        dirichlet = bdofs

    if dirichlet.size:
        L = _mask_rows_cols(L, dirichlet, diag=1.0)
        W = _mask_rows_cols(W, dirichlet)
        Gamma = _mask_rows_cols(Gamma, dirichlet)

    A = ComplexSparseMatrix((L - W).astype(np.complex128) + 1j * Gamma)
    _require_finite(A)
    if not is_symmetric(A):
        raise StructuralError("matrix flagged symmetric is not symmetric")
    return AssembledSystem(A=A, b=assemble_load(problem), L=L, weighted_mass=W,
                           dirichlet_dofs=dirichlet)


def assemble_load(problem: HelmholtzProblem) -> np.ndarray:
    """The load vector of ``assemble_helmholtz`` without assembling A.

    Sums the point source (a delta at the nearest DOF), the volume source and,
    under the impedance condition, the boundary data; under the Dirichlet
    condition the boundary entries are zero.  A new source on the same mesh
    and model needs only this.
    """
    mesh = problem.mesh
    b = np.zeros(mesh.n_dofs, dtype=np.complex128)
    src = problem.source
    if src is not None:
        b[nearest_dof(mesh, src.x, src.y)] += src.amplitude
    if problem.volume_source is not None:
        elements = np.arange(mesh.n_triangles)
        area = 0.5 * _element_geometry(mesh, elements)[3]
        xy = _quad_points_xy(mesh, elements)         # (m, nq, 2)
        fvals = problem.volume_source(xy[..., 0], xy[..., 1])
        N = _shape_values(mesh.order, _TRI_QP)
        load = np.einsum("q,mq,qi,m->mi", _TRI_QW, np.asarray(fvals, dtype=complex),
                         N, area)
        np.add.at(b, mesh.element_dofs().ravel(), load.ravel())
    if problem.boundary_data is not None and problem.outer_bc == "impedance":
        b += _boundary_load(problem)
    if problem.outer_bc == "dirichlet":
        b[_boundary_edge_dofs(mesh, mesh.boundary_edges).ravel()] = 0.0
    return b


def _boundary_load(problem: HelmholtzProblem) -> np.ndarray:
    """Impedance data term: b_i += int_Gamma g phi_i with outward normals."""
    mesh = problem.mesh
    n = mesh.n_dofs
    out = np.zeros(n, dtype=np.complex128)
    edge_tri = _boundary_edge_triangles(mesh)
    tr = _edge_trace(mesh.order, _EDGE_QP)
    for e_id, t_id in edge_tri:
        a, bb = mesh.edges[e_id]
        pa, pb = mesh.vertices[a], mesh.vertices[bb]
        tan = pb - pa
        length = np.hypot(*tan)
        nrm = np.array([tan[1], -tan[0]]) / length
        opp = [v for v in mesh.triangles[t_id] if v not in (a, bb)][0]
        if np.dot(mesh.vertices[opp] - pa, nrm) > 0:
            nrm = -nrm
        pts = pa[None, :] + _EDGE_QP[:, None] * tan[None, :]
        g = problem.boundary_data(pts[:, 0], pts[:, 1], nrm[0], nrm[1])
        dofs = _boundary_edge_dofs(mesh, np.array([e_id]))[0]
        out[dofs] += length * np.einsum("q,q,qi->i", _EDGE_QW, np.asarray(g, dtype=complex), tr)
    return out


def _boundary_edge_triangles(mesh: Mesh) -> np.ndarray:
    """(edge_id, triangle_id) rows for the boundary edges, in the order of
    ``mesh.boundary_edges``; the triangle is the lowest-numbered one that
    has the edge."""
    _, first = np.unique(mesh.tri_edges.ravel(), return_index=True)
    edges = mesh.boundary_edges
    return np.column_stack([edges, first[edges] // 3])


def assemble_helmholtz_subset(
    problem: HelmholtzProblem,
    elements: np.ndarray,
    dofs: np.ndarray,
    sign_w: float = -1.0,
    impedance: bool = True,
    dirichlet_dofs: np.ndarray | None = None,
) -> sp.csr_matrix:
    """Assemble L + sign_w*W + i*Gamma from a subset of elements only, on the
    given (sorted, global) DOF set; natural boundary conditions on internal
    interfaces.  This is the local Neumann matrix builder; sign_w=+1 with
    impedance=False yields the nearby positive operator -lap + k^2."""
    mesh = problem.mesh
    elements = np.asarray(elements)
    if elements.size == 0:
        raise StructuralError("empty element subset")
    Ke, Me = _element_matrices(mesh, elements)
    eldofs_g = mesh.element_dofs()[elements]
    eldofs = np.searchsorted(dofs, eldofs_g)
    cent = mesh.centroids()[elements]
    k_elem = problem.wavenumber(cent[:, 0], cent[:, 1])
    Ae = Ke + sign_w * Me * (k_elem**2)[:, None, None]
    nloc = dofs.size
    S = _scatter(eldofs, Ae, nloc).astype(np.complex128)

    if impedance and problem.outer_bc == "impedance":
        counts = np.bincount(mesh.tri_edges[elements].ravel(), minlength=mesh.n_edges)
        local_bnd = np.intersect1d(np.flatnonzero(counts == 1), mesh.boundary_edges)
        if local_bnd.size:
            gdofs, weighted, _ = _gamma_blocks(problem, local_bnd)
            S = S + 1j * _scatter(np.searchsorted(dofs, gdofs), weighted, nloc)

    if dirichlet_dofs is not None and dirichlet_dofs.size:
        present = np.intersect1d(dirichlet_dofs, dofs)
        loc = np.searchsorted(dofs, present)
        S = _mask_rows_cols(S.tocsr(), loc, diag=1.0)
    return S


def ppwl(omega: float, c: float, h: float) -> float:
    """Points per wavelength G = lambda/h = 2 pi c / (omega h)."""
    if omega <= 0 or c <= 0 or h <= 0:
        raise StructuralError("ppwl arguments must be positive")
    return 2.0 * np.pi * c / (omega * h)


def mesh_size_rule(
    omega: float,
    p: int = 2,
    rule: str = "fixed-ppwl",
    G: float = 10.0,
    c: float = 1.0,
    omega_ref: float = 2.0 * np.pi,
) -> float:
    """Mesh size h for a target resolution regime.

    fixed-ppwl      h = 2 pi c / (omega G)
    pollution-free  h ~ omega^(-1 - 1/p)
    bounded-error   h ~ omega^(-1 - 1/(2p))

    The asymptotic rules are calibrated so h(omega_ref) matches 10 points per
    wavelength at the reference frequency.
    """
    if omega <= 0:
        raise StructuralError("omega must be positive")
    if rule == "fixed-ppwl":
        return 2.0 * np.pi * c / (omega * G)
    if rule == "pollution-free":
        expo = 1.0 + 1.0 / p
    elif rule == "bounded-error":
        expo = 1.0 + 1.0 / (2.0 * p)
    else:
        raise StructuralError(f"unknown rule {rule!r}")
    C = (2.0 * np.pi * c / (10.0 * omega_ref)) * omega_ref**expo
    return C * omega ** (-expo)


def interpolate(mesh: Mesh, f: Callable) -> np.ndarray:
    """Nodal interpolant of f(x, y) on the Lagrange DOFs."""
    coords = mesh.dof_coords()
    return np.asarray(f(coords[:, 0], coords[:, 1]))


def l2_error(mesh: Mesh, u: np.ndarray, exact: Callable) -> float:
    """||u_h - u||_L2 by elementwise quadrature."""
    elements = np.arange(mesh.n_triangles)
    _, _, _, detJ = _element_geometry(mesh, elements)
    area = 0.5 * detJ
    N = _shape_values(mesh.order, _TRI_QP)
    eldofs = mesh.element_dofs()
    uh = np.einsum("qi,mi->mq", N, u[eldofs])
    xy = _quad_points_xy(mesh, elements)
    ue = exact(xy[..., 0], xy[..., 1])
    err2 = np.einsum("q,mq,m->", _TRI_QW, np.abs(uh - ue) ** 2, area)
    return float(np.sqrt(err2.real))
