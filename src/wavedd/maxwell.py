"""Lowest-order edge elements for the 2D positive curl-curl problem

    curl(mu_r^-1 curl u) + alpha eps_r u = f,   u x n = 0 on the boundary,

plus its preconditioners: the nodal auxiliary space preconditioner (ASP),
and the local Dirichlet factors and coarse spaces of additive Schwarz.
``build_edge_decomposition`` attaches the factors, on which
``schwarz.OneLevel`` is the one-level additive Schwarz (weights W_j = I);
``schwarz.TwoLevel`` adds the gradient ("free") coarse space or the GenEO
enrichment built in the orthogonal complement of that space.
Both coarse bases are sparse matrices of locally supported columns, with a
sparse coarse matrix E: the coarse correction depends only on their span, so
they are never orthonormalized globally.  They share the code of the
Helmholtz spectral spaces: the GenEO complement is one pencil on the
subdomain loop ``schwarz._local_modes``, ``schwarz._independent_columns``
drops the dependent columns of both bases, and each kept column is then
scaled to unit A-norm.  The free basis is kept whole in the GenEO
complement: only the appended modes are tested, against its span and each
other, so a dependent mode is dropped, never a free column.  The pencil
holds no n_loc x n_loc array: its left side is a ``LinearOperator`` that
applies the projector onto the b_j-orthogonal complement of the local
gradients in low-rank form around the sparse D A_j D, through one pivoted
Cholesky factor of an r x r Gram matrix; its right side is the sparse
Neumann matrix with the factor of its sparse SPD test, which ARPACK reuses
to solve it for the few modes above tau.  The coarse matrices E and the two
nodal factors of ASP are SPD and factored in SuperLU's symmetric mode
(``linalg.spd_factorize``).  The local Dirichlet factors keep COLAMD with
partial pivoting: the one-level iteration counts of the high-contrast
channels depend on that rounding (at contrast 1e4, 95 iterations against 80
in symmetric mode).  The
edge and nodal matrices are summed by ``helmholtz._scatter``, and the nodal
auxiliary operators of ASP weight the P1 element matrices of
``helmholtz._element_matrices``.

DOFs are tangential circulations on interior edges, every edge directed from
its lower- to its higher-numbered vertex; boundary edges are eliminated by
the essential condition.  The gradient matrix C (signed node-to-edge
incidence over interior nodes) spans the near-kernel of the curl-curl term:
K C = 0 holds exactly up to roundoff.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .decomposition import Decomposition, decompose
from .errors import SingularityError, StructuralError
from .linalg import (
    ComplexSparseMatrix,
    EigenSelection,
    csr_from_triplets,
    dense_generalized_eig,  # noqa: F401 - perfbench/tracing.py patches this name here
    is_symmetric,
    lu_factorize,
    orthonormalize,  # noqa: F401 - perfbench/tracing.py patches this name here
    spd_factorize,
)
from .mesh import Mesh
from .helmholtz import _element_geometry, _element_matrices, _scatter
from .schwarz import (
    CoarseSpace,
    OneLevel,
    TwoLevel,
    _independent_columns,
    _local_modes,
    _sparse_spd_or_shifted,
)

__all__ = [
    "MaxwellProblem",
    "MaxwellSystem",
    "assemble_maxwell",
    "AspPreconditioner",
    "OneLevelAdditiveSchwarz",
    "TwoLevelAdditiveSchwarz",
    "build_edge_decomposition",
    "build_free_cs",
    "build_geneo_complement_cs",
    "FslCheck",
    "fsl_bounds_check",
    "channel_field",
]

_MID_BARY = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
_LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))


def _per_element(field, mesh: Mesh) -> np.ndarray:
    """Coefficient per element: scalar, array of length nt, or callable."""
    if callable(field):
        c = mesh.centroids()
        return np.asarray(field(c[:, 0], c[:, 1]), dtype=float)
    arr = np.asarray(field, dtype=float)
    if arr.ndim == 0:
        return np.full(mesh.n_triangles, float(arr))
    if arr.shape[0] != mesh.n_triangles:
        raise StructuralError("per-element field length mismatch")
    return arr


@dataclass(frozen=True)
class MaxwellProblem:
    mesh: Mesh                      # order-1 geometry
    mu_r: object = 1.0              # scalar | per-element array | callable
    eps_r: object = 1.0
    alpha: float = 1.0
    source: np.ndarray | None = None  # load on free-edge DOFs
    bc: str = "tangential_zero"       # or "natural" (analysis only)

    def __post_init__(self):
        if self.alpha <= 0:
            raise StructuralError("alpha must be positive")
        if self.bc not in ("tangential_zero", "natural"):
            raise StructuralError(f"unknown bc {self.bc!r}")
        if self.mesh.order != 1:
            raise StructuralError("edge elements use order-1 mesh geometry")


@dataclass
class MaxwellSystem:
    mesh: Mesh
    alpha: float
    edge_dof: np.ndarray     # (n_edges,) free-edge dof id or -1
    free_edges: np.ndarray   # edge ids of the dofs, in dof order
    node_dof: np.ndarray     # (n_vertices,) interior-node dof id or -1
    free_nodes: np.ndarray
    K: ComplexSparseMatrix   # curl-curl part (real, symmetric)
    Mw: sp.csr_matrix        # eps_r-weighted edge mass (symmetric)
    A: ComplexSparseMatrix   # K + alpha * Mw (real, symmetric)
    C: sp.csr_matrix         # gradient matrix, n_edges_free x n_nodes_free
    Ltilde: sp.csr_matrix    # mu_r^-1-weighted vector nodal Laplacian (2 blocks)
    Qtilde: sp.csr_matrix    # eps_r-weighted vector nodal mass (2 blocks)
    Pinterp: sp.csr_matrix   # edge <- vector-nodal interpolation
    L: sp.csr_matrix         # unweighted scalar nodal Laplacian
    b: np.ndarray

    @property
    def n_dofs(self) -> int:
        return self.free_edges.size

    def element_edge_dofs(self) -> np.ndarray:
        """(nt, 3) free-edge dof per element, -1 where eliminated."""
        return self.edge_dof[self.mesh.tri_edges]


def _barycentric_gradients(mesh: Mesh, elements: np.ndarray):
    """Gradients of the three barycentric coordinates, (m, 3, 2), and the
    areas of the given elements."""
    _, _, inv, det = _element_geometry(mesh, elements)
    g = np.empty((elements.size, 3, 2))
    g[:, 1] = inv[:, 0]
    g[:, 2] = inv[:, 1]
    g[:, 0] = -g[:, 1] - g[:, 2]
    return g, 0.5 * det


def _edge_element_matrices(mesh: Mesh, elements: np.ndarray, mu_e: np.ndarray,
                           eps_e: np.ndarray):
    """Whitney edge stiffness and mass of the given elements, with mu_e and
    eps_e their coefficients; each local edge runs from the lower to the
    higher global vertex id."""
    g, area = _barycentric_gradients(mesh, elements)
    tri = mesh.triangles[elements]
    nt = elements.size
    ia = np.empty((nt, 3), dtype=np.int64)  # local tail (lower global id)
    ib = np.empty((nt, 3), dtype=np.int64)
    for k, (k1, k2) in enumerate(_LOCAL_EDGES):
        lo_first = tri[:, k1] < tri[:, k2]
        ia[:, k] = np.where(lo_first, k1, k2)
        ib[:, k] = np.where(lo_first, k2, k1)
    rows = np.arange(nt)[:, None]
    ga = g[rows, ia]  # (nt, 3, 2) gradient of tail barycentric
    gb = g[rows, ib]
    curl = 2.0 * (ga[:, :, 0] * gb[:, :, 1] - ga[:, :, 1] * gb[:, :, 0])  # (nt, 3)
    Ke = (curl[:, :, None] * curl[:, None, :]) * (area / mu_e)[:, None, None]

    # W_k at the 3 edge midpoints: lam_a grad(lam_b) - lam_b grad(lam_a)
    W = np.empty((nt, 3, 3, 2))  # (elem, basis k, quad q, component)
    for q in range(3):
        bc = _MID_BARY[q]
        la = bc[ia]  # (nt, 3)
        lb = bc[ib]
        W[:, :, q, :] = la[:, :, None] * gb - lb[:, :, None] * ga
    Me = np.einsum("mkqd,mlqd->mkl", W, W) * (area * eps_e / 3.0)[:, None, None]
    Ke = 0.5 * (Ke + Ke.transpose(0, 2, 1))
    Me = 0.5 * (Me + Me.transpose(0, 2, 1))
    return Ke, Me


def assemble_maxwell(problem: MaxwellProblem) -> MaxwellSystem:
    """Assemble the edge-element system and the nodal auxiliary operators."""
    mesh = problem.mesh
    mu_e = _per_element(problem.mu_r, mesh)
    eps_e = _per_element(problem.eps_r, mesh)
    if np.any(mu_e <= 0) or np.any(eps_e <= 0):
        raise StructuralError("mu_r and eps_r must be strictly positive")

    if problem.bc == "tangential_zero":
        bnd_edges = mesh.boundary_edges
        bnd_nodes = np.unique(mesh.edges[bnd_edges].ravel())
    else:
        bnd_edges = np.empty(0, dtype=np.int64)
        bnd_nodes = np.empty(0, dtype=np.int64)
    edge_dof = np.full(mesh.n_edges, -1, dtype=np.int64)
    free_edges = np.setdiff1d(np.arange(mesh.n_edges), bnd_edges)
    edge_dof[free_edges] = np.arange(free_edges.size)
    node_dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
    free_nodes = np.setdiff1d(np.arange(mesh.n_vertices), bnd_nodes)
    node_dof[free_nodes] = np.arange(free_nodes.size)
    ne, nn = free_edges.size, free_nodes.size

    Ke, Me = _edge_element_matrices(mesh, np.arange(mesh.n_triangles), mu_e, eps_e)
    dofmap = edge_dof[mesh.tri_edges]
    K = _scatter(dofmap, Ke, ne)
    Mw = _scatter(dofmap, Me, ne)
    A = K + problem.alpha * Mw
    if not (is_symmetric(K) and is_symmetric(Mw) and is_symmetric(A)):
        raise StructuralError("matrix flagged symmetric is not symmetric")

    # gradient matrix: grad(phi_v) has circulation phi(head) - phi(tail)
    tails = mesh.edges[free_edges, 0]
    heads = mesh.edges[free_edges, 1]
    rows, cols, vals = [], [], []
    for sign, nodes in ((-1.0, tails), (1.0, heads)):
        nd = node_dof[nodes]
        keep = nd >= 0
        rows.append(np.flatnonzero(keep))
        cols.append(nd[keep])
        vals.append(np.full(int(keep.sum()), sign))
    C = csr_from_triplets(ne, nn, tuple(map(np.concatenate, (rows, cols, vals))))

    # nodal auxiliary operators on interior nodes
    Kn, Mn = _element_matrices(mesh, np.arange(mesh.n_triangles))
    ndofmap = node_dof[mesh.triangles]
    Lmu = _scatter(ndofmap, Kn * (1.0 / mu_e)[:, None, None], nn)
    Lplain = _scatter(ndofmap, Kn, nn)
    Mass = _scatter(ndofmap, Mn * eps_e[:, None, None], nn)
    if nn and bnd_nodes.size == 0:
        # pure Neumann auxiliary problems are singular: ground one node
        ground = sp.coo_matrix(([1.0], ([0], [0])), shape=(nn, nn)).tocsr()
        Lmu = Lmu + ground
        Lplain = Lplain + ground
    Ltilde = sp.block_diag([Lmu, Lmu]).tocsr()
    Qtilde = sp.block_diag([Mass, Mass]).tocsr()

    # Nedelec interpolation of a vector nodal field: trapezoid circulation
    d = mesh.vertices[heads] - mesh.vertices[tails]
    prow, pcol, pval = [], [], []
    for comp in range(2):
        for nodes in (tails, heads):
            nd = node_dof[nodes]
            keep = nd >= 0
            prow.append(np.flatnonzero(keep))
            pcol.append(nd[keep] + comp * nn)
            pval.append(0.5 * d[keep, comp])
    Pinterp = csr_from_triplets(ne, 2 * nn, tuple(map(np.concatenate, (prow, pcol, pval))))

    b = problem.source
    if b is None:
        b = np.zeros(ne)
        if ne:
            mids = 0.5 * (mesh.vertices[tails] + mesh.vertices[heads])
            ctr = np.array([(mesh.bbox()[0] + mesh.bbox()[1]) / 2,
                            (mesh.bbox()[2] + mesh.bbox()[3]) / 2])
            b[int(np.argmin(((mids - ctr) ** 2).sum(axis=1)))] = 1.0
    else:
        b = np.asarray(b, dtype=float)
        if b.shape[0] != ne:
            raise StructuralError("source length does not match free-edge count")

    return MaxwellSystem(
        mesh=mesh, alpha=problem.alpha,
        edge_dof=edge_dof, free_edges=free_edges,
        node_dof=node_dof, free_nodes=free_nodes,
        K=ComplexSparseMatrix(K), Mw=Mw, A=ComplexSparseMatrix(A),
        C=C, Ltilde=Ltilde, Qtilde=Qtilde, Pinterp=Pinterp, L=Lplain, b=b,
    )


def assemble_maxwell_subset(problem: MaxwellProblem, sys: MaxwellSystem,
                            elements: np.ndarray, dofs: np.ndarray
                            ) -> sp.csr_matrix:
    """Local Neumann matrix K + alpha*Mw assembled from a subset of elements,
    natural conditions on internal interfaces."""
    mesh = problem.mesh
    Ke, Me = _edge_element_matrices(mesh, elements,
                                    _per_element(problem.mu_r, mesh)[elements],
                                    _per_element(problem.eps_r, mesh)[elements])
    gdof = sys.edge_dof[mesh.tri_edges[elements]]
    loc = np.where(gdof >= 0, np.searchsorted(dofs, gdof), -1)
    return _scatter(loc, Ke + problem.alpha * Me, dofs.size)


# ------------------------------------------------------------------ ASP


class AspPreconditioner:
    """Nodal auxiliary space preconditioner:
    diag(A)^-1 + P (L~ + alpha Q~)^-1 P^T + alpha^-1 C L^-1 C^T.

    The two nodal matrices are SPD and factored by ``spd_factorize``; P^T
    and C^T are stored as CSR once."""

    def __init__(self, sys: MaxwellSystem):
        d = sys.A.diagonal().real
        if np.any(d <= 0):
            raise SingularityError("A has non-positive diagonal entries")
        self._dinv = 1.0 / d
        self._P, self._PT = sys.Pinterp, sys.Pinterp.T.tocsr()
        self._C, self._CT = sys.C, sys.C.T.tocsr()
        self._alpha = sys.alpha
        self._aux_fact = spd_factorize(sys.Ltilde + sys.alpha * sys.Qtilde)
        self._l_fact = spd_factorize(sys.L)

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = self._dinv * v
        out = out + self._P @ self._aux_fact.solve(self._PT @ v)
        out = out + (self._C @ self._l_fact.solve(self._CT @ v)) / self._alpha
        return out

    __call__ = apply


# ------------------------------------------------------------------ Schwarz


def build_edge_decomposition(problem: MaxwellProblem, sys: MaxwellSystem, N: int,
                             shape: str = "grid", grid=None, layers: int = 1,
                             mode: str = "minimum", factorize: bool = True
                             ) -> Decomposition:
    """Overlapping decomposition of the free-edge DOFs, with local Dirichlet
    factorizations and local Neumann matrices attached."""
    dec = decompose(problem.mesh, N, shape=shape, grid=grid, layers=layers,
                    mode=mode, element_dofs=sys.element_edge_dofs(),
                    n_dofs=sys.n_dofs)
    for sd in dec.subdomains:
        sd.A_loc = sys.A[np.ix_(sd.dofs, sd.dofs)]
        if factorize:
            sd.a_fact = lu_factorize(sd.A_loc)
        sd.neumann = assemble_maxwell_subset(problem, sys, sd.elements, sd.dofs)
    return dec


# names kept for their importers: OneLevelAdditiveSchwarz for
# perfbench/workloads.py and tests/test_acceptance.py, TwoLevelAdditiveSchwarz
# for perfbench/workloads.py
OneLevelAdditiveSchwarz = OneLevel
TwoLevelAdditiveSchwarz = TwoLevel


def _unit_a_norm(Z: sp.csc_matrix, A: sp.csr_matrix) -> sp.csc_matrix:
    """The columns of Z, each scaled to unit A-norm."""
    a_norm = np.sqrt(np.asarray(Z.multiply(A @ Z).sum(axis=0)).ravel())
    return Z @ sp.diags(1.0 / a_norm)


def _free_basis(dec: Decomposition, sys: MaxwellSystem) -> sp.csc_matrix:
    """The sparse basis of V_G = span{R_j^T D_j R_j C e_m}: one column per
    subdomain j and interior node m whose gradient touches subdomain j, less
    the dependent columns that ``_independent_columns`` drops, each scaled to
    unit A-norm."""
    n = dec.n_dofs
    C = sys.C.tocsc()
    blocks = []
    for sd in dec.subdomains:
        Gj = (sp.csr_matrix((sd.weights, (sd.dofs, sd.dofs)), shape=(n, n)) @ C).tocsc()
        blocks.append(Gj[:, np.diff(Gj.indptr) > 0])
    return _unit_a_norm(_independent_columns(sp.hstack(blocks, format="csc")), sys.A)


def build_free_cs(dec: Decomposition, sys: MaxwellSystem) -> CoarseSpace:
    """The gradient ("free") coarse space V_G: partition-of-unity-localized
    near-kernel vectors, no eigensolves.  Z is the sparse ``_free_basis``;
    ``dim_vg`` is the rank of V_G.
    """
    cs = CoarseSpace(_free_basis(dec, sys), sys.A, provenance="maxwell-free")
    cs.dim_gradient_space = int(sys.C.shape[1])
    cs.dim_vg = cs.n0
    return cs


def _bj_projector(G: sp.csc_matrix, A_loc: sp.csr_matrix):
    """The b_j-orthogonal projector xi onto span(G), b_j(u, v) = (A_loc u, v),
    from sparse matrices and r x r arrays only, r the columns of G.

    One pivoted Cholesky (LAPACK xPSTRF) of the diagonally scaled A-Gram
    d_i d_j (G^T W)_ij, W = A_loc G and d_i = (G^T W)_ii^-1/2, keeps the
    ``rank`` independent columns G_k, in pivot order, at pivots above 1e-12;
    its leading factor L_k gives M0 = G_k^T W_k = D_k^-1 L_k L_k^T D_k^-1.
    Returns xi v = G_k S v and xi^T u = W_k M0^-1 G_k^T u, with
    S v = M0^-1 W_k^T v applied through that factor by two calls of LAPACK
    xTRTRS, the routine behind ``scipy.linalg.solve_triangular`` without
    its per-call checks (ARPACK applies xi over a thousand times per
    set-up), for a vector or a block of columns.
    """
    W = A_loc @ G
    M = (G.T @ W).toarray()
    d = 1.0 / np.sqrt(M.diagonal())
    gram = np.asfortranarray(np.outer(d, d) * M)
    pstrf, trtrs = sla.get_lapack_funcs(("pstrf", "trtrs"), (gram,))
    L, piv, rank, _ = pstrf(gram, tol=1e-12, lower=1, overwrite_a=True)
    keep = piv[:rank] - 1
    Lk, dk = np.asfortranarray(L[:rank, :rank]), d[keep]
    Gk, Wk = G[:, keep], W[:, keep]
    GkT, WkT = Gk.T.tocsr(), Wk.T.tocsr()

    def m0_solve(y):  # M0^-1 y = D_k L_k^-T L_k^-1 D_k y
        s = dk if y.ndim == 1 else dk[:, None]
        y, _ = trtrs(Lk, s * y, lower=1)
        return s * trtrs(Lk, y, lower=1, trans=1)[0]

    def xi(v):
        return Gk @ m0_solve(WkT @ v)

    def xi_t(u):
        return Wk @ m0_solve(GkT @ u)

    return xi, xi_t


def build_geneo_complement_cs(dec: Decomposition, sys: MaxwellSystem, tau: float = 10.0,
                              m_max: int = 20, free_cs: CoarseSpace | None = None
                              ) -> CoarseSpace:
    """GenEO modes in the b_j-orthogonal complement of the local gradient
    space: (I - xi^T) D A_j D (I - xi) V = lambda A~_j V, keep lambda > tau,
    lift by R_j^T D_j (I - xi) V, and append to the free coarse space.

    The pencil is built from sparse matrices and r x r arrays only, r the
    local gradient columns.  Its left side is a ``LinearOperator`` that
    applies the sparse D A_j D between two applications of P = I - xi, with
    xi the low-rank projector of ``_bj_projector`` on the raw sparse columns
    of C.  Its right side is the sparse Neumann matrix A~_j as the
    ``Factorization`` of the sparse SPD test of ``_sparse_spd_or_shifted``,
    shifted and flagged when A~_j is not SPD; ARPACK reuses that factor.
    ``dense_generalized_eig`` solves the pencil by ARPACK, growing the number
    of wanted values only while all pass tau; a subdomain on which ARPACK
    fails is re-solved densely and flagged.

    The subdomain loop is ``schwarz._local_modes``, that of the Helmholtz
    spectral spaces; this builder supplies only the pencil.  The lifted
    modes are appended to the free basis, ``free_cs.Z`` or, without
    ``free_cs``, ``_free_basis`` (no free E is formed then).  The free basis
    is kept whole: ``_independent_columns`` tests only the appended modes,
    against its span and each other, so a dependent mode is dropped, never a
    free column.  Each kept column is scaled to unit A-norm, and
    ``CoarseSpace`` forms and factors the sparse E of the joint basis."""
    free = _free_basis(dec, sys) if free_cs is None else free_cs.Z
    C = sys.C.tocsc()
    selection = EigenSelection("re_above", tau, m_max)

    def pencil(sd):
        rhs, flagged = _sparse_spd_or_shifted(sd.neumann.real)
        A_loc = sd.A_loc.real
        Gl = C[sd.dofs, :]
        touching = np.unique(Gl.nonzero()[1])
        if touching.size:
            xi, xi_t = _bj_projector(Gl[:, touching], A_loc)
        else:
            xi = xi_t = np.zeros_like
        D = sd.weights
        K = (sp.diags(D) @ A_loc @ sp.diags(D)).tocsr()

        def lhs(v):  # P^T K P v, with P = I - xi
            u = K @ (v - xi(v))
            return u - xi_t(u)

        op = spla.LinearOperator(K.shape, matvec=lhs, matmat=lhs, dtype=np.float64)

        def lift(v):  # D P v
            v = v.real
            return D * (v - xi(v))

        return op, rhs, selection, lift, flagged

    modes, record = _local_modes(dec, pencil)
    Z = _independent_columns(sp.hstack([free, modes]), kept=free.shape[1])
    cs = CoarseSpace(_unit_a_norm(Z, sys.A), sys.A, provenance="maxwell-geneo", **record)
    cs.dim_gradient_space = int(sys.C.shape[1])
    cs.dim_vg = free.shape[1]
    return cs


# ------------------------------------------------------------------ spectra


@dataclass
class FslCheck:
    c_lower: float
    c_upper: float
    eigenvalues: np.ndarray
    max_imag: float

    @property
    def ratio(self) -> float:
        return self.c_upper / self.c_lower


def fsl_bounds_check(A, preconditioner, max_dofs: int = 500) -> FslCheck:
    """Empirical spectral bounds of M^-1 A on a small instance: densify the
    preconditioned operator column by column and report the extreme real
    parts (SPD pairs must give a real positive spectrum)."""
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A)
    n = Ad.shape[0]
    if n > max_dofs:
        raise StructuralError(f"instance too large for the dense check ({n} > {max_dofs})")
    apply_M = preconditioner.apply if hasattr(preconditioner, "apply") else preconditioner
    M = np.empty((n, n))
    e = np.zeros(n)
    for i in range(n):
        e[i] = 1.0
        M[:, i] = np.real(apply_M(e))
        e[i] = 0.0
    w = sla.eigvals(M @ Ad.real)
    return FslCheck(
        c_lower=float(w.real.min()),
        c_upper=float(w.real.max()),
        eigenvalues=w,
        max_imag=float(np.abs(w.imag).max()),
    )


def channel_field(mesh: Mesh, contrast: float, n_channels: int = 3,
                  base: float = 1.0, width_frac: float = 0.08) -> np.ndarray:
    """Per-element coefficient with `n_channels` horizontal high-value bands,
    positioned so they cross vertical subdomain interfaces."""
    c = mesh.centroids()
    _, _, ymin, ymax = mesh.bbox()
    height = ymax - ymin
    vals = np.full(mesh.n_triangles, base)
    for i in range(n_channels):
        y0 = ymin + height * (i + 0.75) / (n_channels + 0.5)
        band = np.abs(c[:, 1] - y0) < width_frac * height
        vals[band] = base * contrast
    return vals
